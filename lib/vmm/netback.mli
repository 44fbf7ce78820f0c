(** Dom0-side network backend.

    Owns the physical NIC on behalf of one frontend. The receive path is
    the heart of experiment E3: in {!Net_channel.Flip} mode the backend's
    per-packet work is constant (ring handling + one grant transfer),
    independent of packet size; in {!Net_channel.Copy} mode it grows with
    the byte count (grant map + copy + unmap). All of it is charged to
    Dom0's cycle account.

    Runs inside the Dom0 fiber; {!Dom0} routes NIC interrupts and channel
    events here. *)

type t

val connect_opt :
  ?timeout:int64 ->
  ?generation:int ->
  ?admit:Vmk_overload.Overload.Token_bucket.t ->
  ?napi:int ->
  ?attach_nic:bool ->
  Net_channel.t ->
  Vmk_hw.Machine.t ->
  unit ->
  t option
(** Backend half of the handshake. Waits (yielding) until the frontend
    has published its port, then binds, collects the frontend's initial
    buffer posts and stocks the NIC with 16 receive buffers. [admit]
    installs a token-bucket admission gate on the receive path: packets
    beyond the rate are shed cheaply before the per-packet delivery work
    — the receive-livelock defense (E15).

    [napi] switches {!handle_nic} to NAPI-style hybrid service (E16): the
    first interrupt masks the NIC line, then poll rounds each drain up to
    [napi] packets at one [poll_batch_cost], admit them as one batch
    ({!Vmk_overload.Overload.Token_bucket.admit_n}) and push at most one
    event-channel notify per batch; the line is acknowledged and
    re-enabled only when a round comes back empty.

    [attach_nic:false] (bridge backends, E17) keeps pool frames local
    instead of posting them as physical-NIC receive buffers: this
    backend's receive side is fed by {!deliver_pkt}, its transmit side
    redirected with {!set_tx_handler}.

    [None] on [timeout] or bind failure. [generation > 0] runs the
    restarted-backend reconnect handshake under the [key/g<n>/] subtree
    — see {!Blkback.connect_opt}. *)

val port : t -> Hcall.port

val handle_event : t -> unit
(** Process frontend activity: transmit requests (grant-map + NIC submit)
    and replenished receive buffers. *)

val handle_nic : t -> unit
(** Drain the NIC assuming this is the only backend: deliver received
    packets to the frontend (flip or copy), complete transmissions,
    restock NIC buffers. With several backends, {!Dom0} drains the NIC
    itself and routes through {!deliver_rx}/{!complete_tx}/{!flush}
    (the demux path stays on per-packet interrupts). In NAPI mode
    ([napi] at connect) this is the hybrid poll loop described at
    {!connect_opt}. *)

val demux_key : t -> int
(** The frontend's demux key: packets tagged [key·10⁶ + seq] are its. *)

val deliver_rx : t -> Vmk_hw.Nic.rx_event -> unit
(** Deliver one received packet to this backend's frontend. *)

val set_tx_handler : t -> (len:int -> tag:int -> bool) -> unit
(** Redirect transmits away from the physical NIC: {!handle_event}
    grant-maps each tx request, hands [~len ~tag] to the handler (the
    bridge's switch-forward), unmaps and completes the transmit
    immediately; the handler's boolean is bounced to the frontend as
    the ECN mark ({!Net_channel.tx_resp}[.txr_mark]). *)

val deliver_pkt : t -> len:int -> tag:int -> bool
(** Inject one packet into this backend's receive path without the
    physical NIC (the bridge drains switch ports through here). Runs
    the full admission/delivery pipeline on a pool frame; [true] when
    the packet reached the frontend's ring. *)

val rx_ready : t -> bool
(** The bridge's delivery gate: would {!deliver_pkt} land a packet on
    the frontend's ring right now (pool frame, response slot and a
    posted receive buffer all available)? Pumps pending frontend posts
    first. When [false] the bridge leaves packets queued at the switch
    port — real back-pressure that builds toward the ECN watermark —
    and resumes on the frontend's repost notify. *)

val complete_tx : t -> Vmk_hw.Frame.frame -> bool
(** Offer a completed transmit buffer; [true] if it was this backend's. *)

val flush : t -> unit
(** Restock the NIC from the pool and notify the frontend if anything was
    delivered since the last flush. *)

