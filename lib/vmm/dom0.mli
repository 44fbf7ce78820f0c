(** Dom0 — the privileged "super-VM" hosting the legacy drivers.

    Binds the physical NIC and disk interrupts, connects the backends for
    every channel it is given, and multiplexes events forever. This is
    the centralised structure the paper's §2.2 warns about ("a single
    point of failure"): experiment E6 kills it and measures the blast
    radius; experiment E3 measures how much of the machine's CPU it
    consumes under I/O load. *)

val name : string
(** ["dom0"] — also its cycle account. *)

val body :
  Vmk_hw.Machine.t ->
  ?connect_timeout:int64 ->
  ?generation:int ->
  ?net_admit:Vmk_overload.Overload.Token_bucket.t ->
  ?net_napi:int ->
  ?net_poll:int64 ->
  ?net:Net_channel.t list ->
  ?blk:Blk_channel.t list ->
  unit ->
  unit
(** The Dom0 kernel: create with
    [Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach ~net ~blk)].

    Without [connect_timeout], every channel in [net]/[blk] must
    eventually be connected by a frontend or Dom0 blocks in the
    handshake forever. With it, a channel whose frontend never appears
    within the bound is logged and dropped (counter
    ["dom0.connect_dropped"]) and Dom0 serves the rest.

    [generation > 0] is for a restarted Dom0: each backend runs the
    reconnect handshake under the channel's [key/g<n>/] subtree (see
    {!Blkback.connect_opt}) so surviving frontends can rebind.

    [net_admit] installs a single token-bucket admission gate shared by
    every net backend — one gate for the physical NIC. Packets beyond
    the rate are shed before delivery work (E15's livelock defense).

    [net_napi] puts every net backend in NAPI-style hybrid
    interrupt/polling mode with the given poll budget (see
    {!Netback.connect_opt}). [net_poll] is polling-only mode (E16's other
    extreme): the NIC interrupt is never bound — the line stays masked,
    so the hypervisor routes nothing — and Dom0 services the NIC every
    [net_poll] cycles off its block timeout (counter
    ["dom0.poll_ticks"]), trading idle-time poll work for zero per-packet
    interrupt cost. *)
