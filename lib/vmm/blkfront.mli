(** Guest-side paravirtual block driver.

    Synchronous read/write over the shared ring: grant the data buffer,
    push a request, notify, and wait (through the {!Evt_mux}) for the
    matching response. A timeout or a hypercall failure surfaces as
    [None]/[false] — how a guest discovers its storage service died
    (experiment E6). *)

type t

val connect :
  Blk_channel.t ->
  backend:Hcall.domid ->
  ?arch:Vmk_hw.Arch.profile ->
  unit ->
  t
(** Frontend half of the handshake; at most 8 requests are in flight. *)

val port : t -> Hcall.port
val pump : t -> unit
(** Drain ring responses (register on the mux: [Evt_mux.on mux (port t)
    (fun () -> pump t)]). *)

val read :
  t -> mux:Evt_mux.t -> sector:int -> bytes:int -> ?timeout:int64 -> unit ->
  int option
(** Synchronous read; returns the sector's content tag, [None] on
    timeout/backend death. *)

val write :
  t ->
  mux:Evt_mux.t ->
  sector:int ->
  bytes:int ->
  tag:int ->
  ?timeout:int64 ->
  unit ->
  bool

val backend_dead : t -> bool

val probe : t -> bool
(** Liveness check: send a (harmless, spurious) notification to the
    backend; [Dead_domain] marks the frontend dead. Returns
    {!backend_dead}'s new value. *)

val reconnect : t -> ?timeout:int64 -> unit -> bool
(** Recover from a backend death against a restarted backend domain:
    drop all state shared with the corpse (ring slots, in-flight grants,
    unclaimed completions), wait for a [key/gen] strictly above our own,
    and redo the handshake under the [key/g<n>/] subtree with a fresh
    port pair. [false] on timeout. After [true], re-register {!port}
    (it changed) on the event mux. *)
