module Machine = Vmk_hw.Machine
module Nic = Vmk_hw.Nic
module Engine = Vmk_sim.Engine
module Rng = Vmk_sim.Rng

type t = { mutable injected : int; count : int }

let inject ?(on_inject = fun ~tag:_ ~at:_ -> ()) mach t ~key ~len =
  t.injected <- t.injected + 1;
  let tag = (key * 1_000_000) + t.injected in
  on_inject ~tag ~at:(Engine.now mach.Machine.engine);
  Nic.inject_rx mach.Machine.nic ~tag ~len

let constant_rate mach ~gate ~period ~len ~count ?(key = 1) ?on_inject () =
  let t = { injected = 0; count } in
  Engine.every mach.Machine.engine period (fun () ->
      if t.injected < count then begin
        if gate () then inject ?on_inject mach t ~key ~len;
        true
      end
      else false);
  t

let poisson_rate mach ~gate ~mean_period ~len ~count () =
  let t = { injected = 0; count } in
  let rng = Rng.split mach.Machine.rng in
  (* Schedule against absolute deadlines, not dispatch time: a long burn
     that jumps the clock must not stall the arrival process. *)
  let rec schedule at =
    Engine.at mach.Machine.engine at (fun () ->
        if t.injected < count then begin
          if gate () then inject mach t ~key:1 ~len;
          let delay =
            Int64.of_float (max 1.0 (Rng.exponential rng ~mean:mean_period))
          in
          schedule (Int64.add at delay)
        end)
  in
  let first =
    Int64.add
      (Engine.now mach.Machine.engine)
      (Int64.of_float (max 1.0 (Rng.exponential rng ~mean:mean_period)))
  in
  schedule first;
  t

let replay mach sched ~len ?(pkt_gap = 200L) ?on_inject () =
  let t = { injected = 0; count = Scenario.total_packets sched } in
  let engine = mach.Machine.engine in
  let n = Scenario.flows sched in
  (* Open-loop by design: no gate, no backoff. The schedule's absolute
     arrival times are replayed verbatim, so a congested stack sees the
     full offered load and the damage shows up at the sink (E22). *)
  let rec chain ~flow ~seq at =
    Engine.at engine at (fun () ->
        inject ?on_inject mach t ~key:(Scenario.dst sched flow) ~len;
        if seq + 1 < Scenario.size sched flow then
          chain ~flow ~seq:(seq + 1) (Int64.add at pkt_gap))
  in
  (* One walker event runs down the time-sorted flow list, so the event
     heap holds O(active flows) entries, not O(total flows). *)
  let rec walk i =
    if i < n then begin
      let at = Int64.of_int (Scenario.at sched i) in
      Engine.at engine at (fun () ->
          inject ?on_inject mach t ~key:(Scenario.dst sched i) ~len;
          if Scenario.size sched i > 1 then
            chain ~flow:i ~seq:1 (Int64.add at pkt_gap);
          walk (i + 1))
    end
  in
  walk 0;
  t

let injected t = t.injected
let done_ t = t.injected >= t.count
