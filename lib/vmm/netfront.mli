(** Guest-side paravirtual network driver.

    Runs inside a guest domain's fiber. Transmits by granting the packet
    buffer to the backend and notifying over the event channel; receives
    by keeping the backend stocked with buffers (transferred pages in
    {!Net_channel.Flip} mode, granted pages in {!Net_channel.Copy} mode)
    and consuming responses. Every received payload is copied once into
    the "application" — the guest-side per-byte cost, kept distinct from
    Dom0's per-packet cost (experiment E3). *)

type t

val connect :
  Net_channel.t ->
  backend:Hcall.domid ->
  ?arch:Vmk_hw.Arch.profile ->
  unit ->
  t
(** Perform the frontend half of the handshake (publishes the unbound
    port, pre-posts 32 receive buffers). Must be called from the guest
    fiber before the backend connects. [arch] prices the guest-side
    packet copies (default {!Vmk_hw.Arch.default}); pass the machine's
    profile on other platforms. *)

val restore : Net_channel.t -> generation:int -> unit -> t
(** Rebuild a frontend from migrated state on the destination machine
    (E20), pricing packet copies at {!Vmk_hw.Arch.default}. The returned
    handle starts {!backend_dead} — the source's backend is gone — with
    the source's [generation], so the normal {!reconnect} path performs
    the handshake against the destination backend once it publishes a
    higher [key/gen]. Allocates fresh transmit frames from the caller's
    (destination) reservation. *)

val port : t -> Hcall.port
(** The frontend's event-channel port (to match against
    {!Hcall.block} results). *)

val pump : t -> unit
(** Drain ring responses in one batch: complete transmits, move received
    packets into the local queue, replenish backend buffers — then at most
    {e one} notify back to the backend, however many responses were
    reaped. One event from a NAPI-batched backend (E16) is thus answered
    with one pump, not a notify storm. Call after every event. *)

val send : t -> len:int -> tag:int -> bool
(** Queue one packet for transmission; [false] when the TX ring is full
    and after a pump there is still no room or no free buffer. *)

val try_recv : t -> (int * int) option
(** Pop a received [(len, tag)] if one is queued (after {!pump}). *)

val recv_blocking : t -> ?timeout:int64 -> unit -> (int * int) option
(** Block (via the scheduler) until a packet arrives; [None] on timeout
    or if the backend appears dead. Only usable when the net channel is
    the fiber's sole event source. *)

val tx_acked : t -> int
(** Transmit responses seen so far. *)

val tx_unacked : t -> int
(** Transmits still awaiting their completion response — what
    [Sys.net_drain] waits out before a sender may exit (a guest dying
    with requests in its tx ring strands them: the backend's grant map
    fails against the dead domain). *)

val take_ecn_mark : t -> bool
(** Consume the pending ECN congestion mark: [true] if any transmit
    completion since the last call carried the bridge's
    past-the-watermark bit ({!Net_channel.tx_resp}[.txr_mark]). The
    sender should back off before the destination starts dropping
    (E17). *)

val backend_dead : t -> bool
(** A send or notification failed with [Dead_domain]. *)

val generation : t -> int
(** Reconnect generation: 0 originally, the backend's [key/gen] after
    each successful {!reconnect}. *)

val probe : t -> bool
(** Liveness check via a spurious notification; returns the new
    {!backend_dead}. *)

val reconnect : t -> ?timeout:int64 -> unit -> bool
(** Recover against a restarted backend domain: drop state shared with
    the corpse, wait for [key/gen] above our own, redo the handshake
    under [key/g<n>/] and re-post 32 fresh receive buffers.
    [false] on timeout. After [true], re-register {!port} on the mux. *)
