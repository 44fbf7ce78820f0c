(** User-level network driver server.

    The microkernel answer to Xen's Dom0 netback: an unprivileged thread
    that owns the NIC, receives its interrupts as IPC, and serves clients
    over the same IPC primitive used for everything else. Clients send
    {!Proto.net_send} with a string item, or {!Proto.net_recv} and block
    until a packet arrives.

    DMA buffers are allocated straight from the frame table (device
    memory), outside the paging game. *)

val body :
  Vmk_hw.Machine.t ->
  ?admit:Vmk_overload.Overload.Token_bucket.t ->
  ?rx_capacity:int ->
  ?napi:int ->
  ?poll:int64 ->
  ?vnet:bool ->
  unit ->
  unit
(** Server loop; spawn with {!Kernel.spawn}. Posts 16 receive buffers
    and keeps the NIC topped up.

    Overload policy (E15): [admit] installs a token-bucket gate on the
    receive path — packets beyond the rate are shed before the expensive
    per-packet work (counters ["drv.net.rx_shed"], ["overload.shed"]).
    [rx_capacity] bounds the received-packet queue (default unbounded —
    the naive configuration that livelocks); overflow drops the oldest
    packet (counters ["drv.net.rx_drop"], ["overload.drop"]). A
    [net_send] finding no free transmit buffer answers {!Proto.busy}
    (retryable) rather than {!Proto.error}.

    Interrupt mitigation (E16): [napi] switches the interrupt path to
    NAPI-style hybrid service — the first IRQ-IPC masks the line
    ({!Sysif.irq_mask}), poll rounds each drain up to [napi] packets at
    one [poll_batch_cost] with batch admission
    ({!Vmk_overload.Overload.Token_bucket.admit_n}) and one
    {!Sysif.send_batch} reply flush; an empty round unmasks (one ack for
    the whole coalesced burst) and re-arms. [poll] is polling-only mode:
    the line is masked for good and the NIC is serviced every [poll]
    cycles off the receive timeout (counter ["drv.net.poll_ticks"]).

    Vnet broker (E17): [vnet] makes the server the connection broker of
    the L4 inter-guest path. Guest kernels register with
    {!Proto.vnet_attach} and resolve peers with {!Proto.vnet_lookup}
    (flow-cache of 64 entries → MAC-table, costs
    itemized under ["vnet.flow_hit"]/["vnet.flow_miss"]); the data path
    then runs as direct guest-to-guest IPC, never touching this
    server. *)

val account : string
(** Cycle account the server's work should be charged to: ["drv.net"].
    Pass as [?account] when spawning. *)
