(** Driver domains and the thin toolstack Dom0 (E18).

    The disaggregated Xen stack of [FHN+04]: instead of one monolithic
    Dom0 hosting every backend, each device class runs in its own small
    unprivileged-except-for-its-IRQ domain — a netback domain
    ({!net_name}), a blkback/storage domain ({!blk_name}), and the E17
    vnet bridge ({!Bridge}) — while Dom0 shrinks to a toolstack that
    only builds domains ({!Hcall.dom_create}) and restarts the ones that
    die. Because a domain's name is its cycle account, each driver
    domain is separately metered, which is what lets E18's TCB rerun
    (E10) price the storage path without the 2 MLoC legacy OS in it.

    Failure independence is the point: killing the netback domain takes
    the network path down and nothing else — the blkback domain, the
    bridge and every guest not using the NIC keep running, and the
    toolstack rebuilds the dead domain with a bumped generation so the
    E13 generation-keyed reconnect brings frontends back. *)

val net_name : string
(** ["netdrv"] — the netback driver domain's name and cycle account. *)

val blk_name : string
(** ["blkdrv"] — the blkback driver domain's name and cycle account. *)

val toolstack_name : string
(** ["toolstack"] — the thin Dom0's name and cycle account. *)

val service_body :
  Vmk_hw.Machine.t ->
  prefix:string ->
  ?connect_timeout:int64 ->
  ?generation:int ->
  ?net_admit:Vmk_overload.Overload.Token_bucket.t ->
  ?net_napi:int ->
  ?net_poll:int64 ->
  ?net:Net_channel.t list ->
  ?blk:Blk_channel.t list ->
  unit ->
  unit
(** The backend service core shared by {!Dom0.body} (prefix ["dom0"],
    both device classes) and the driver-domain bodies below (one class
    each): connect the backends, bind the device interrupts, multiplex
    events forever. [prefix] names the counters
    ([<prefix>.connect_dropped], [<prefix>.nic_events], [<prefix>.wakeups],
    [<prefix>.events], [<prefix>.poll_ticks], [<prefix>.rx_no_route]);
    the remaining parameters are as documented on {!Dom0.body}. *)

val net_body :
  Vmk_hw.Machine.t ->
  ?connect_timeout:int64 ->
  ?generation:int ->
  net:Net_channel.t list ->
  unit ->
  unit
(** The netback driver domain: {!service_body} with prefix {!net_name}
    and no block channels. Needs [privileged] to bind the NIC line. *)

val blk_body :
  Vmk_hw.Machine.t ->
  ?connect_timeout:int64 ->
  ?generation:int ->
  blk:Blk_channel.t list ->
  unit ->
  unit
(** The blkback/storage driver domain: {!service_body} with prefix
    {!blk_name} and no net channels. Needs [privileged] to bind the
    disk line. *)

(** {1 The toolstack} *)

type spec = {
  ds_name : string;
  ds_privileged : bool;
      (** Driver domains need the IRQ-bind privilege; the bridge does
          not, but granting it is Xen's [irq = ...] config line, not a
          full Dom0. *)
  ds_weight : int;
  ds_make : restart:int -> unit -> unit;
      (** Body factory; [restart] is 0 for the first build and becomes
          the backend's reconnect generation after each rebuild. *)
}
(** What the toolstack knows about one driver domain. *)

val spec :
  name:string ->
  ?privileged:bool ->
  ?weight:int ->
  (restart:int -> unit -> unit) ->
  spec
(** Defaults: [privileged = true], [weight = 256]. *)

type t
(** Toolstack bookkeeping, shared with the host so experiments can look
    up current domids and restart history while the simulation runs. *)

val create : unit -> t

val stop : t -> unit
(** Ask the toolstack to exit at its next wakeup (so [Hypervisor.run]
    without [until] can still reach quiescence). *)

val restarts : t -> (string * int64) list
(** [(driver-domain name, virtual time)] of every rebuild, oldest
    first. *)

val domid : t -> string -> Hcall.domid option
(** Current domid of the named driver domain — frontends connect against
    this, and fault plans kill it. *)

val generation : t -> string -> int option
(** How many times the named driver domain has been rebuilt. *)

val built : t -> bool
(** Whether the toolstack has built its domains yet (it runs as a guest;
    callers must let the hypervisor schedule it first). *)

val toolstack_body :
  Vmk_hw.Machine.t ->
  t ->
  ?restart_limit:int * int64 ->
  period:int64 ->
  spec list ->
  unit ->
  unit
(** The thin Dom0: build every spec once, then poll liveness every
    [period] cycles ({!Hcall.dom_alive}) and rebuild dead driver domains
    with a bumped [restart] — the supervision loop of
    {!Hypervisor.supervise}, moved where it belongs architecturally:
    into a guest that holds no device, no backend state and no driver
    code. [restart_limit = (burst, window)] rate-limits rebuilds per
    driver domain: at most [burst] rebuilds inside any sliding [window]
    of virtual cycles; a rebuild beyond that is deferred (not dropped —
    the next poll after the window slides rebuilds) and counted under
    ["toolstack.rate_limited"]. Counters: ["toolstack.built"],
    ["toolstack.restart"]. Create with [privileged:true] (it must issue
    {!Hcall.dom_create}). *)
