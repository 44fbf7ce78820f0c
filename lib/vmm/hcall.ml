type domid = int
type port = int
type gref = int
type syscall_path = Fast_trap_gate | Bounced
type block_result = Events of port list | Timed_out

type pt_op =
  | Pt_map of { bframe : Vmk_hw.Frame.frame; bvpn : int; bwritable : bool }
  | Pt_unmap of int

type hcall =
  | H_burn of int
  | H_dom_id
  | H_yield
  | H_block of { timeout : int64 option }
  | H_alloc_frames of int
  | H_evtchn_alloc_unbound of domid
  | H_evtchn_bind of { remote_dom : domid; remote_port : port }
  | H_evtchn_send of port
  | H_irq_bind of int
  | H_gnttab_grant of { to_dom : domid; frame : Vmk_hw.Frame.frame; readonly : bool }
  | H_gnttab_revoke of gref
  | H_gnttab_map of { dom : domid; gref : gref }
  | H_gnttab_unmap of { dom : domid; gref : gref }
  | H_gnttab_transfer of { to_dom : domid; frame : Vmk_hw.Frame.frame }
  | H_gnttab_exchange of {
      dom : domid;
      gref : gref;
      give : Vmk_hw.Frame.frame;
    }
  | H_gnttab_copy of { dom : domid; gref : gref; bytes : int; tag : int }
  | H_pt_map of { frame : Vmk_hw.Frame.frame; vpn : int; writable : bool }
  | H_pt_unmap of int
  | H_pt_batch of pt_op list
  | H_set_trap_table of { int80_direct : bool }
  | H_load_segment of Vmk_hw.Segments.selector * Vmk_hw.Segments.descriptor
  | H_syscall_trap
  | H_xs_write of { path : string; value : string }
  | H_xs_read of string
  | H_xs_rm of string
  | H_xs_watch of string
  | H_dom_create of {
      cd_name : string;
      cd_privileged : bool;
      cd_weight : int;
      cd_body : unit -> unit;
    }
  | H_dom_alive of domid
  | H_dom_pause of domid
  | H_dom_unpause of domid
  | H_log_dirty of { ld_dom : domid; ld_enable : bool }
  | H_dirty_read of domid
  | H_touch_page of { tp_vpn : int; tp_write : bool }
  | H_exit

type error =
  | Bad_port
  | Bad_gref
  | Permission_denied
  | Out_of_memory
  | Dead_domain
  | Not_virtualisable of string

type hreply =
  | R_unit
  | R_domid of domid
  | R_port of port
  | R_gref of gref
  | R_frames of Vmk_hw.Frame.frame list
  | R_block of block_result
  | R_syscall of syscall_path
  | R_xs of string option
  | R_bool of bool
  | R_vpns of int list
  | R_error of error

type _ Effect.t += Invoke : hcall -> hreply Effect.t

exception Hcall_error of error
exception Domain_killed

let invoke c = Effect.perform (Invoke c)

let expect_unit = function
  | R_unit -> ()
  | R_error e -> raise (Hcall_error e)
  | R_domid _ | R_port _ | R_gref _ | R_frames _ | R_block _ | R_syscall _
  | R_xs _ | R_bool _ | R_vpns _ ->
      raise (Hcall_error (Not_virtualisable "reply"))

let expect_port = function
  | R_port p -> p
  | R_error e -> raise (Hcall_error e)
  | R_unit | R_domid _ | R_gref _ | R_frames _ | R_block _ | R_syscall _
  | R_xs _ | R_bool _ | R_vpns _ ->
      raise (Hcall_error (Not_virtualisable "reply"))

let burn n = expect_unit (invoke (H_burn n))

let dom_id () =
  match invoke H_dom_id with
  | R_domid d -> d
  | R_error e -> raise (Hcall_error e)
  | _ -> raise (Hcall_error (Not_virtualisable "reply"))

let yield () = expect_unit (invoke H_yield)

let block ?timeout () =
  match invoke (H_block { timeout }) with
  | R_block r -> r
  | R_error e -> raise (Hcall_error e)
  | _ -> raise (Hcall_error (Not_virtualisable "reply"))

let alloc_frames n =
  match invoke (H_alloc_frames n) with
  | R_frames fs -> fs
  | R_error e -> raise (Hcall_error e)
  | _ -> raise (Hcall_error (Not_virtualisable "reply"))

let evtchn_alloc_unbound peer = expect_port (invoke (H_evtchn_alloc_unbound peer))

let evtchn_bind ~remote_dom ~remote_port =
  expect_port (invoke (H_evtchn_bind { remote_dom; remote_port }))

let evtchn_send p = expect_unit (invoke (H_evtchn_send p))
let irq_bind line = expect_port (invoke (H_irq_bind line))

let grant ~to_dom ~frame ~readonly =
  match invoke (H_gnttab_grant { to_dom; frame; readonly }) with
  | R_gref g -> g
  | R_error e -> raise (Hcall_error e)
  | _ -> raise (Hcall_error (Not_virtualisable "reply"))

let grant_revoke g = expect_unit (invoke (H_gnttab_revoke g))

let grant_map ~dom ~gref =
  match invoke (H_gnttab_map { dom; gref }) with
  | R_frames [ f ] -> f
  | R_error e -> raise (Hcall_error e)
  | _ -> raise (Hcall_error (Not_virtualisable "reply"))

let grant_unmap ~dom ~gref = expect_unit (invoke (H_gnttab_unmap { dom; gref }))

let grant_transfer ~to_dom ~frame =
  expect_unit (invoke (H_gnttab_transfer { to_dom; frame }))

let grant_exchange ~dom ~gref ~give =
  match invoke (H_gnttab_exchange { dom; gref; give }) with
  | R_frames [ f ] -> f
  | R_error e -> raise (Hcall_error e)
  | _ -> raise (Hcall_error (Not_virtualisable "reply"))

let grant_copy ~dom ~gref ~bytes ~tag =
  expect_unit (invoke (H_gnttab_copy { dom; gref; bytes; tag }))

let pt_map ~frame ~vpn ~writable =
  expect_unit (invoke (H_pt_map { frame; vpn; writable }))

let pt_unmap vpn = expect_unit (invoke (H_pt_unmap vpn))
let pt_batch ops = expect_unit (invoke (H_pt_batch ops))

let set_trap_table ~int80_direct =
  expect_unit (invoke (H_set_trap_table { int80_direct }))

let load_segment sel d = expect_unit (invoke (H_load_segment (sel, d)))

let syscall_trap () =
  match invoke H_syscall_trap with
  | R_syscall p -> p
  | R_error e -> raise (Hcall_error e)
  | _ -> raise (Hcall_error (Not_virtualisable "reply"))

let xs_write ~path ~value = expect_unit (invoke (H_xs_write { path; value }))

let xs_read path =
  match invoke (H_xs_read path) with
  | R_xs v -> v
  | R_error e -> raise (Hcall_error e)
  | _ -> raise (Hcall_error (Not_virtualisable "reply"))

let xs_rm path = expect_unit (invoke (H_xs_rm path))
let xs_watch path = expect_port (invoke (H_xs_watch path))

let dom_create ~name ?(privileged = false) ?(weight = 256) body =
  match
    invoke
      (H_dom_create
         { cd_name = name; cd_privileged = privileged; cd_weight = weight; cd_body = body })
  with
  | R_domid d -> d
  | R_error e -> raise (Hcall_error e)
  | _ -> raise (Hcall_error (Not_virtualisable "reply"))

let dom_alive domid =
  match invoke (H_dom_alive domid) with
  | R_bool b -> b
  | R_error e -> raise (Hcall_error e)
  | _ -> raise (Hcall_error (Not_virtualisable "reply"))

let dom_pause domid = expect_unit (invoke (H_dom_pause domid))
let dom_unpause domid = expect_unit (invoke (H_dom_unpause domid))

let log_dirty ~dom ~enable =
  expect_unit (invoke (H_log_dirty { ld_dom = dom; ld_enable = enable }))

let dirty_read dom =
  match invoke (H_dirty_read dom) with
  | R_vpns vpns -> vpns
  | R_error e -> raise (Hcall_error e)
  | _ -> raise (Hcall_error (Not_virtualisable "reply"))

let touch_page ~vpn ~write =
  expect_unit (invoke (H_touch_page { tp_vpn = vpn; tp_write = write }))

let xs_wait_for ?timeout path =
  let _port = xs_watch path in
  let rec wait () =
    match xs_read path with
    | Some v -> Some v
    | None -> (
        match block ?timeout () with
        | Events _ -> wait ()
        | Timed_out -> xs_read path)
  in
  wait ()

let xs_wait_pred ?timeout path pred =
  let _port = xs_watch path in
  let ok () =
    match xs_read path with Some v when pred v -> Some v | Some _ | None -> None
  in
  let rec wait () =
    match ok () with
    | Some v -> Some v
    | None -> (
        match block ?timeout () with
        | Events _ -> wait ()
        | Timed_out -> ok ())
  in
  wait ()

let exit () =
  ignore (invoke H_exit);
  assert false
