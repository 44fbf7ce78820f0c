type tid = int

let irq_tid line = -(line + 1)
let is_irq_tid tid = tid < 0

type fpage = { base_vpn : int; pages : int; writable : bool }

type item =
  | Words of int array
  | Str of { bytes : int; tag : int }
  | Map of { fpage : fpage; grant : bool }

type msg = { label : int; items : item list }

let msg ?(items = []) label = { label; items }

let words m =
  List.fold_left
    (fun acc item ->
      match item with Words w -> Array.append acc w | Str _ | Map _ -> acc)
    [||] m.items

let str_total m =
  List.fold_left
    (fun acc item ->
      match item with Str { bytes; _ } -> acc + bytes | Words _ | Map _ -> acc)
    0 m.items

let first_str_tag m =
  List.find_map
    (function Str { tag; _ } -> Some tag | Words _ | Map _ -> None)
    m.items

let map_items m =
  List.filter_map
    (function Map { fpage; grant } -> Some (fpage, grant) | Words _ | Str _ -> None)
    m.items

type recv_filter = Any | From of tid

type error =
  | Dead_partner
  | Not_permitted
  | Bad_argument of string
  | Page_fault_unhandled of int
  | Killed
  | Timeout

type spawn_spec = {
  name : string;
  priority : int;
  same_space : bool;
  pager : tid option;
  body : unit -> unit;
}

type call =
  | Burn of int
  | Send of tid * msg * int64 option
  | Recv of recv_filter * int64 option
  | Call of tid * msg * int64 option
  | Reply_wait of tid * msg
  | Yield
  | Sleep of int64
  | Exit
  | My_tid
  | Spawn of spawn_spec
  | Alloc_pages of int
  | Touch of { addr : int; len : int; write : bool }
  | Unmap of fpage
  | Irq_attach of int
  | Irq_mask of int
  | Irq_unmask of int
  | Send_batch of (tid * msg) list
  | Kill_thread of tid
  | Cap_mint of { obj : int; rights : int }
  | Cap_derive of { handle : int; to_ : tid; rights : int }
  | Cap_revoke of { handle : int; self : bool }
  | Cap_check of { subject : tid; handle : int; need : int }
  | Cap_lookup of { vpn : int }
  | Thread_pause of tid
  | Thread_resume of tid
  | Log_dirty of { target : tid; enable : bool }
  | Dirty_read of tid

type reply =
  | R_unit
  | R_tid of tid
  | R_msg of tid * msg
  | R_fpage of fpage
  | R_vpns of int list
  | R_error of error

type _ Effect.t += Invoke : call -> reply Effect.t

exception Ipc_error of error
exception Killed_by_kernel

let invoke c = Effect.perform (Invoke c)

let expect_unit = function
  | R_unit -> ()
  | R_error e -> raise (Ipc_error e)
  | R_tid _ | R_msg _ | R_fpage _ | R_vpns _ ->
      raise (Ipc_error (Bad_argument "reply"))

let expect_msg = function
  | R_msg (src, m) -> (src, m)
  | R_error e -> raise (Ipc_error e)
  | R_unit | R_tid _ | R_fpage _ | R_vpns _ ->
      raise (Ipc_error (Bad_argument "reply"))

let burn n = expect_unit (invoke (Burn n))
let send ?timeout dst m = expect_unit (invoke (Send (dst, m, timeout)))
let recv ?timeout filter = expect_msg (invoke (Recv (filter, timeout)))
let call ?timeout dst m = expect_msg (invoke (Call (dst, m, timeout)))
let reply_wait dst m = expect_msg (invoke (Reply_wait (dst, m)))
let yield () = expect_unit (invoke Yield)
let sleep cycles = expect_unit (invoke (Sleep cycles))

let exit () =
  ignore (invoke Exit);
  (* The kernel never resumes an exited thread. *)
  assert false

let my_tid () =
  match invoke My_tid with
  | R_tid tid -> tid
  | R_error e -> raise (Ipc_error e)
  | R_unit | R_msg _ | R_fpage _ | R_vpns _ ->
      raise (Ipc_error (Bad_argument "reply"))

let spawn spec =
  match invoke (Spawn spec) with
  | R_tid tid -> tid
  | R_error e -> raise (Ipc_error e)
  | R_unit | R_msg _ | R_fpage _ | R_vpns _ ->
      raise (Ipc_error (Bad_argument "reply"))

let alloc_pages n =
  match invoke (Alloc_pages n) with
  | R_fpage fp -> fp
  | R_error e -> raise (Ipc_error e)
  | R_unit | R_msg _ | R_tid _ | R_vpns _ ->
      raise (Ipc_error (Bad_argument "reply"))

let touch ~addr ~len ~write = expect_unit (invoke (Touch { addr; len; write }))
let unmap fp = expect_unit (invoke (Unmap fp))
let irq_attach line = expect_unit (invoke (Irq_attach line))
let irq_mask line = expect_unit (invoke (Irq_mask line))
let irq_unmask line = expect_unit (invoke (Irq_unmask line))

(* Deferred-notify: one kernel entry delivers every currently-receptive
   message of the batch; returns how many were delivered. *)
let send_batch msgs =
  match invoke (Send_batch msgs) with
  | R_tid n -> n
  | R_error e -> raise (Ipc_error e)
  | R_unit | R_msg _ | R_fpage _ | R_vpns _ ->
      raise (Ipc_error (Bad_argument "reply"))
let kill_thread tid = expect_unit (invoke (Kill_thread tid))

let expect_handle = function
  | R_tid h -> h
  | R_error e -> raise (Ipc_error e)
  | R_unit | R_msg _ | R_fpage _ | R_vpns _ ->
      raise (Ipc_error (Bad_argument "reply"))

let cap_mint ~obj ~rights = expect_handle (invoke (Cap_mint { obj; rights }))

let cap_derive ~handle ~to_ ~rights =
  expect_handle (invoke (Cap_derive { handle; to_; rights }))

let cap_revoke ~handle ~self =
  expect_handle (invoke (Cap_revoke { handle; self }))

let cap_check ~subject ~handle ~need =
  match invoke (Cap_check { subject; handle; need }) with
  | R_unit -> true
  | R_error Not_permitted -> false
  | R_error e -> raise (Ipc_error e)
  | R_tid _ | R_msg _ | R_fpage _ | R_vpns _ ->
      raise (Ipc_error (Bad_argument "reply"))

let cap_lookup ~vpn =
  match invoke (Cap_lookup { vpn }) with
  | R_tid h -> Some h
  | R_error Not_permitted -> None
  | R_error e -> raise (Ipc_error e)
  | R_unit | R_msg _ | R_fpage _ | R_vpns _ ->
      raise (Ipc_error (Bad_argument "reply"))

let thread_pause tid = expect_unit (invoke (Thread_pause tid))
let thread_resume tid = expect_unit (invoke (Thread_resume tid))

let log_dirty ~target ~enable =
  expect_unit (invoke (Log_dirty { target; enable }))

let dirty_read target =
  match invoke (Dirty_read target) with
  | R_vpns vpns -> vpns
  | R_error e -> raise (Ipc_error e)
  | R_unit | R_tid _ | R_msg _ | R_fpage _ ->
      raise (Ipc_error (Bad_argument "reply"))
