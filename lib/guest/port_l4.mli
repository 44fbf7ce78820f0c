(** L4 port: the mini-OS as a microkernel server (L4Linux analog).

    The guest kernel is an ordinary thread; applications are threads in
    their own address spaces whose system calls are IPC calls to the
    guest-kernel server — exactly the structure of [HHL+97]. Device
    access goes through the user-level driver servers, adding one more
    IPC round trip per I/O, and the same guest-kernel work is charged as
    on the other ports.

    Wiring (see {!Vmk_core} scenarios): spawn {!Net_server}/{!Blk_server}
    threads, spawn {!guest_kernel_body} with their tids, then spawn each
    application with {!app_body}. *)

val gk_account : string
(** ["guestk"] — the guest-kernel server's cycle account. *)

type retry
(** Driver-RPC retry policy: bounded attempts with a per-call IPC
    timeout and exponential backoff (plus seeded jitter) between them.
    Counters: ["l4.retries"] per extra attempt, ["l4.gaveup"] per call
    abandoned after the budget. *)

val retry :
  mach:Vmk_hw.Machine.t ->
  ?attempts:int ->
  ?timeout:int64 ->
  ?base_delay:int64 ->
  Vmk_sim.Rng.t ->
  retry
(** Defaults: 5 attempts, 2M-cycle IPC timeout, 100K-cycle base delay
    (doubling per attempt). Derive the rng with {!Vmk_sim.Rng.split} to
    keep streams independent. *)

type vnet
(** Inter-guest fabric endpoint (E17): this guest kernel's address on
    the vnet, its bounded direct-IPC receive queue and its peer caches.
    The data path is gk → gk {!Vmk_ukernel.Sysif.call} with a string
    item — no driver server in the loop; only connection setup (one
    {!Vmk_ukernel.Proto.vnet_lookup} per new destination, one
    {!Vmk_ukernel.Proto.vnet_open} map-grant per new peer) touches the
    broker. *)

val vnet :
  mach:Vmk_hw.Machine.t ->
  port:int ->
  ?mark_at:int ->
  unit ->
  vnet
(** [port] is the guest's fabric address (≥ 1, see
    {!Sys.vnet_tag}). The rx queue holds 64 packets and rejects beyond
    that; [mark_at] arms the ECN watermark — marked replies make senders
    pause 100K cycles before their next packet
    (counters ["overload.ecn_mark"]/["overload.ecn_backoff"]). Each
    data-path rendezvous times out after 2M cycles.
    @raise Invalid_argument if [port < 1]. *)

val vnet_sent : vnet -> int
(** Packets delivered direct to a peer (excludes retries). *)

val guest_kernel_body :
  ?retry:retry ->
  ?net_svc:Vmk_ukernel.Svc.entry ->
  ?blk_svc:Vmk_ukernel.Svc.entry ->
  ?vnet:vnet ->
  net:Vmk_ukernel.Sysif.tid option ->
  blk:Vmk_ukernel.Sysif.tid option ->
  unit ->
  unit
(** Server loop translating the mini-OS syscall protocol into driver
    RPC. A dead driver server surfaces as error replies to the
    application, not as a server crash.

    With [net_svc]/[blk_svc] the driver tid is re-read from the registry
    entry before every attempt (so a watchdog respawn is picked up
    transparently); the plain [net]/[blk] tids are used otherwise. With
    [retry], failed driver RPC — IPC error or [Proto.error] reply — is
    retried under the policy instead of failing the application call
    outright.

    With [vnet] the guest joins the fabric: it registers [port] with
    the broker on startup, serves peers' {!Vmk_ukernel.Proto.vnet_pkt}
    IPC interleaved with the application's syscalls, and routes
    [G_net_send] with a resolvable vnet destination directly to the
    peer guest kernel ([G_net_recv] then serves the fabric queue);
    broadcast and unknown destinations fall back to the driver path. *)

val app_body :
  Vmk_hw.Machine.t ->
  gk:Vmk_ukernel.Sysif.tid ->
  (unit -> unit) ->
  unit ->
  unit
(** Wrap an application: every {!Sys} syscall becomes
    [Sysif.call gk …]. Raises {!Sys.Sys_error} into the app when the
    guest kernel has died (E6's microkernel-side blast radius). *)
