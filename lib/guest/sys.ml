type gcall =
  | G_burn of int
  | G_getpid
  | G_yield
  | G_net_send of { len : int; tag : int }
  | G_net_drain
  | G_net_recv
  | G_blk_write of { sector : int; len : int; tag : int }
  | G_blk_read of { sector : int; len : int }
  | G_fs_create of string
  | G_fs_append of { fd : int; tag : int }
  | G_fs_read of { fd : int; index : int }
  | G_exit

type gret =
  | G_unit
  | G_int of int
  | G_bool of bool
  | G_data of { len : int; tag : int }
  | G_error of string

type _ Effect.t += Gsys : gcall -> gret Effect.t

exception Sys_error of string

let invoke c = Effect.perform (Gsys c)

let expect_unit = function
  | G_unit | G_bool true -> ()
  | G_error e -> raise (Sys_error e)
  | G_bool false -> raise (Sys_error "operation failed")
  | G_int _ | G_data _ -> raise (Sys_error "unexpected return")

let expect_int = function
  | G_int n -> n
  | G_error e -> raise (Sys_error e)
  | G_unit | G_bool _ | G_data _ -> raise (Sys_error "unexpected return")

let burn n = expect_unit (invoke (G_burn n))
let getpid () = expect_int (invoke G_getpid)
let yield () = expect_unit (invoke G_yield)
let net_send ~len ~tag = expect_unit (invoke (G_net_send { len; tag }))
let net_drain () = expect_unit (invoke G_net_drain)

let net_recv () =
  match invoke G_net_recv with
  | G_data { len; tag } -> (len, tag)
  | G_error e -> raise (Sys_error e)
  | G_unit | G_int _ | G_bool _ -> raise (Sys_error "unexpected return")

let blk_write ~sector ~len ~tag =
  expect_unit (invoke (G_blk_write { sector; len; tag }))

let blk_read ~sector ~len =
  match invoke (G_blk_read { sector; len }) with
  | G_data { tag; _ } -> tag
  | G_error e -> raise (Sys_error e)
  | G_unit | G_int _ | G_bool _ -> raise (Sys_error "unexpected return")

let fs_create name = expect_int (invoke (G_fs_create name))
let fs_append ~fd ~tag = expect_unit (invoke (G_fs_append { fd; tag }))

let fs_read ~fd ~index =
  match invoke (G_fs_read { fd; index }) with
  | G_int tag -> tag
  | G_data { tag; _ } -> tag
  | G_error e -> raise (Sys_error e)
  | G_unit | G_bool _ -> raise (Sys_error "unexpected return")

let exit () =
  ignore (invoke G_exit);
  assert false

let block_size = 512

(* Vnet addressing (E17): the machine-wide demux convention extended
   with a source field — tag = dst·10⁶ + src·10⁴ + seq. The dst decode
   is the same [tag / 10⁶] key Dom0 and the L4 demux have always used,
   so vnet-tagged and plain traffic route through the same plumbing. *)

let vnet_broadcast = 0
let vnet_max_port = 99
let vnet_max_seq = 9_999

let vnet_tag ~src ~dst ~seq =
  if src < 1 || src > vnet_max_port then invalid_arg "vnet_tag: src";
  if dst < 0 || dst > vnet_max_port then invalid_arg "vnet_tag: dst";
  if seq < 0 || seq > vnet_max_seq then invalid_arg "vnet_tag: seq";
  (dst * 1_000_000) + (src * 10_000) + seq

let vnet_dst tag = tag / 1_000_000
let vnet_src tag = tag mod 1_000_000 / 10_000
let vnet_seq tag = tag mod 10_000

module Fiber = Vmk_hw.Exec.Fiber (struct
  type call = gcall
  type reply = gret
  type _ Effect.t += Invoke = Gsys
end)

(* The pump's view of the app: the call it is parked at, or [G_exit]
   once it has returned. An exception from the app propagates. *)
let park () last call = last := call
let finish () last = function None -> last := G_exit | Some e -> raise e

let run_with_handler ~handler body =
  let app = Fiber.create ~reply:G_unit body in
  let last = ref G_exit in
  let rec pump () =
    Fiber.resume app ~call:park ~finish () last;
    match !last with
    | G_exit -> (* Never resumed; the fiber is abandoned. *) ()
    | call ->
        (* A handler that raises Sys_error is a failing syscall, not a
           crashing kernel: surface it to the app as an error return. *)
        Fiber.set_reply app
          (try handler call with Sys_error message -> G_error message);
        pump ()
  in
  pump ()

let kernel_work = function
  | G_burn _ -> 0
  | G_getpid -> 120
  | G_yield -> 180
  | G_net_send _ -> 650
  | G_net_drain -> 200
  | G_net_recv -> 700
  | G_blk_write _ | G_blk_read _ -> 800
  | G_fs_create _ -> 450
  | G_fs_append _ | G_fs_read _ -> 500
  | G_exit -> 100
