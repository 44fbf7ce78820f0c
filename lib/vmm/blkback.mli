(** Dom0-side block backend.

    Grant-maps the guest's data buffer and lets the disk DMA directly
    to/from it (zero-copy), completing the ring request when the disk
    interrupt arrives. Per-request Dom0 work is constant; the disk does
    the byte moving. *)

type t

val connect_opt :
  ?timeout:int64 ->
  ?generation:int ->
  Blk_channel.t ->
  Vmk_hw.Machine.t ->
  unit ->
  t option
(** Backend half of the handshake: waits until the frontend has
    published its port, then binds ([None] on [timeout] or bind
    failure). [generation > 0] runs the reconnect handshake of a
    restarted backend: publish [key/g<n>/backend-dom], bump [key/gen] to
    cue the frontend, and negotiate a fresh port pair under the [g<n>]
    subtree (the old port is unusable — it is bound to the dead
    predecessor). *)

val port : t -> Hcall.port

val handle_event : t -> unit
(** Pull requests from the ring and submit them to the disk. *)

val try_complete : t -> Vmk_hw.Disk.request -> bool
(** Offer a finished disk request; [true] if it belonged to this backend
    (response pushed, frontend notified). Dom0 drains the disk and routes
    completions through this. *)
