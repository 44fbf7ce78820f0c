(** Network traffic generators.

    Drive the simulated NIC from engine events — the "external load" side
    of the I/O experiments. Generators gate on a caller-supplied readiness
    predicate so measurement streams start only once the driver stack is
    up (drops during boot would pollute the CPU-share numbers E3 cares
    about). *)

type t
(** A running traffic source. *)

val constant_rate :
  Vmk_hw.Machine.t ->
  gate:(unit -> bool) ->
  period:int64 ->
  len:int ->
  count:int ->
  ?key:int ->
  ?on_inject:(tag:int -> at:int64 -> unit) ->
  unit ->
  t
(** Inject one [len]-byte packet every [period] cycles while [gate ()]
    holds (ticks failing the gate are skipped, not counted), until
    [count] packets were injected. [key] is the demux key packets are
    tagged for (default 1: tag = key·10⁶ + sequence). [on_inject] is
    called with each packet's tag and injection time — the latency
    reference point for E15's per-packet delay measurements. *)

val poisson_rate :
  Vmk_hw.Machine.t ->
  gate:(unit -> bool) ->
  mean_period:float ->
  len:int ->
  count:int ->
  unit ->
  t
(** Exponentially distributed inter-arrival times with the given mean,
    drawn from the machine's seeded RNG; packets carry demux key 1. *)

val replay :
  Vmk_hw.Machine.t ->
  Scenario.t ->
  len:int ->
  ?pkt_gap:int64 ->
  ?on_inject:(tag:int -> at:int64 -> unit) ->
  unit ->
  t
(** Replay a materialised {!Scenario} schedule against the NIC,
    {e open-loop}: every flow starts at its scheduled absolute cycle and
    streams its packets [pkt_gap] cycles apart (default 200), with no
    gate and no backoff — congestion in the system under test never
    slows the source. Packets are demux-keyed by the flow's destination
    guest. [done_] flips once all [total_packets] went in. *)

val injected : t -> int
val done_ : t -> bool
