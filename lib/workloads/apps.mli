(** Port-agnostic application workloads.

    Each constructor returns a [unit -> unit] body written purely against
    the {!Vmk_guest.Sys} ABI, so the identical workload runs on the
    native, Xen and L4 ports — the precondition for every cross-structure
    comparison in the paper (E4, E5, E8). Bodies swallow [Sys_error] into
    the [errors] counter rather than crashing, so fault-injection
    experiments can measure failed operations. *)

type stats = {
  mutable completed : int;  (** Operations that succeeded. *)
  mutable errors : int;  (** Operations that raised [Sys_error]. *)
  mutable bytes : int;  (** Payload bytes moved. *)
}

val stats : unit -> stats

val null_syscalls : ?stats:stats -> iterations:int -> unit -> unit -> unit
(** [getpid] in a tight loop with a token of user work — the lmbench
    null-syscall microbenchmark (E4). *)

val compute : ?stats:stats -> iterations:int -> work:int -> unit -> unit -> unit
(** Pure user-mode computation; the baseline that should cost the same
    everywhere. *)

val net_rx_stream :
  ?stats:stats -> packets:int -> unit -> unit -> unit
(** Receive [packets] packets (the [CG05] receive side, E3). Stops early
    when the network dies. *)

val net_rx_probe :
  ?work:int ->
  now:(unit -> int64) ->
  record:(tag:int -> at:int64 -> unit) ->
  packets:int ->
  unit ->
  unit ->
  unit
(** Like {!net_rx_stream}, but reports each packet's tag and virtual
    arrival time through [record] — paired with
    {!Traffic.constant_rate}'s [on_inject] this yields the per-packet
    latency distribution E15's degradation curves are built from.
    [work] cycles of user work follow each arrival (default 0). Stops
    at [packets] or on the first receive error. *)

val net_tx_stream :
  ?stats:stats ->
  settle:int ->
  pace:int ->
  src:int ->
  dst:int ->
  packets:int ->
  len:int ->
  unit ->
  unit ->
  unit
(** The paced inter-guest sender (E17-E19): [settle] cycles of user
    work, then [packets] sends of [len] bytes tagged
    {!Vmk_guest.Sys.vnet_tag}[ ~src ~dst ~seq] for [seq = 0 ..
    packets-1], each followed by [pace] cycles of work. A failed send
    counts as an error and is skipped, so [completed] is the number of
    packets the stack accepted. The transmit queue is drained before
    the body returns. *)

val blk_mix :
  ?stats:stats ->
  ?base:int ->
  ops:int ->
  span:int ->
  seed:int ->
  unit ->
  unit ->
  unit
(** Alternating block writes and read-back-verify over the sector region
    [\[base, base+span)], deterministic in [seed]. A read returning a tag
    that was not the last write to that sector counts as an error, and the
    workload stops at the first failed operation (a dead storage path). *)

val blk_retry_stream :
  ?stats:stats ->
  now:(unit -> int64) ->
  log:(int64 * bool -> unit) ->
  ops:int ->
  span:int ->
  seed:int ->
  pace:int ->
  unit ->
  unit ->
  unit
(** The fault-recovery probe (E13): [ops] write/read-verify pairs over
    sectors [\[0, span)], deterministic in [seed], with [pace] cycles of
    user work between pairs. Unlike {!blk_mix} it does NOT stop on
    failure — each pair's outcome is passed to [log] as
    [(now (), success)], so the experiment can measure the outage window
    and the recovery point. *)

val fs_churn :
  ?stats:stats -> files:int -> blocks_per_file:int -> unit -> unit -> unit
(** Create files, append blocks, read them back and verify. *)

val mixed :
  ?stats:stats ->
  rounds:int ->
  ?syscalls_per_round:int ->
  ?work_per_round:int ->
  ?net_every:int ->
  ?packet_len:int ->
  ?blk_every:int ->
  unit ->
  unit ->
  unit
(** The macro workload (E5, E8): per round, a burst of null syscalls,
    some user work, a network transmit every [net_every] rounds and a
    block write/read pair every [blk_every] rounds. *)
