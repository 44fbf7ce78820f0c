module Machine = Vmk_hw.Machine
module Disk = Vmk_hw.Disk
module Nic = Vmk_hw.Nic
module Irq = Vmk_hw.Irq
module Engine = Vmk_sim.Engine
module Rng = Vmk_sim.Rng
module Counter = Vmk_trace.Counter

type disk_window = {
  d_start : int64;
  d_stop : int64;
  d_mode : Disk.fault_mode;
  d_pct : int;
  d_sectors : (int * int) option;
}

type nic_window = {
  n_start : int64;
  n_stop : int64;
  n_mode : Nic.fault_mode;
  n_pct : int;
}

type pressure = Steal_frames of int

type mig_action = Mig_src_dead | Mig_dst_reject | Mig_link_drop

type event =
  | Disk_faults of disk_window list
  | Nic_faults of nic_window list
  | Irq_storm of { line : int; at : int64; count : int; gap : int64 }
  | Kill_at of { at : int64; target : string }
  | Kill_window of { k_start : int64; k_stop : int64; k_target : string }
  | Memory_pressure of { m_at : int64; m_frames : int; m_victim : string }
  | Mig_fault of { mig_at : int64; mig_action : mig_action }

type plan = event list

type armed = {
  plan : plan;
  mutable kills_fired : (string * int64) list;  (** Newest first. *)
  mutable handles : Engine.handle list;
      (** Every scheduled engine event, so
          {!disarm} can cancel the ones that have not fired yet. *)
}

exception Invalid_plan of string

let invalid fmt = Printf.ksprintf (fun msg -> raise (Invalid_plan msg)) fmt

(* Half-open [start, stop) windows. *)
let spans_overlap a_start a_stop b_start b_stop =
  Int64.compare a_start b_stop < 0 && Int64.compare b_start a_stop < 0

let sectors_overlap a b =
  match (a, b) with
  | None, _ | _, None -> true (* whole-disk windows hit every range *)
  | Some (a_lo, a_hi), Some (b_lo, b_hi) -> a_lo <= b_hi && b_lo <= a_hi

(* Arm time is the last moment a bad plan is cheap: a negative-duration
   window silently never fires, and overlapping windows on one target
   shadow each other (the device consults the first matching window), so
   both are rejected with a message naming the offender. *)
let validate ?horizon ?targets plan =
  (* With a known universe of kill targets, a typo'd or stale name is
     caught at arm time instead of firing into the void mid-run. *)
  let check_target what name =
    match targets with
    | None -> ()
    | Some known ->
        if not (List.mem name known) then
          invalid "%s targets unknown component %S (known: %s)" what name
            (String.concat ", " known)
  in
  (* A window past the horizon (or an instant at/after it) never takes
     effect on a run that ends there — the plan lies about coverage. *)
  let check_horizon_stop what stop =
    match horizon with
    | Some h when Int64.compare stop h > 0 ->
        invalid "%s window extends to %Ld, past plan horizon %Ld" what stop h
    | Some _ | None -> ()
  in
  let check_horizon_at what at =
    match horizon with
    | Some h when Int64.compare at h >= 0 ->
        invalid "%s scheduled at %Ld, at or past plan horizon %Ld" what at h
    | Some _ | None -> ()
  in
  let check_span what start stop =
    if Int64.compare stop start < 0 then
      invalid "%s window [%Ld, %Ld) has negative duration" what start stop;
    check_horizon_stop what stop
  in
  let check_pct what pct =
    if pct < 0 || pct > 100 then invalid "%s fault pct %d outside 0..100" what pct
  in
  let disk_windows = ref [] and nic_windows = ref [] in
  let kill_windows = ref [] and kill_instants = ref [] in
  (* A kill landing inside an armed kill window on the same target is
     shadowed: whichever fires first leaves the other killing a corpse.
     Reject the plan instead of silently absorbing the second kill. *)
  let check_kill_instant what at target =
    List.iter
      (fun (w_start, w_stop, w_target) ->
        if
          String.equal target w_target
          && Int64.compare w_start at <= 0
          && Int64.compare at w_stop < 0
        then
          invalid
            "%s of %s at %Ld falls inside kill window [%Ld, %Ld) on the same \
             target (shadowed)"
            what target at w_start w_stop)
      !kill_windows;
    kill_instants := (at, target) :: !kill_instants
  in
  List.iter
    (fun event ->
      match event with
      | Disk_faults windows ->
          List.iter
            (fun w ->
              check_span "disk" w.d_start w.d_stop;
              check_pct "disk" w.d_pct;
              (match w.d_sectors with
              | Some (lo, hi) when lo > hi ->
                  invalid "disk window sector range [%d, %d] is empty" lo hi
              | Some _ | None -> ());
              List.iter
                (fun prev ->
                  if
                    spans_overlap w.d_start w.d_stop prev.d_start prev.d_stop
                    && sectors_overlap w.d_sectors prev.d_sectors
                  then
                    invalid
                      "disk windows [%Ld, %Ld) and [%Ld, %Ld) overlap on the \
                       same sectors"
                      prev.d_start prev.d_stop w.d_start w.d_stop)
                !disk_windows;
              disk_windows := w :: !disk_windows)
            windows
      | Nic_faults windows ->
          List.iter
            (fun w ->
              check_span "nic" w.n_start w.n_stop;
              check_pct "nic" w.n_pct;
              List.iter
                (fun prev ->
                  if spans_overlap w.n_start w.n_stop prev.n_start prev.n_stop
                  then
                    invalid "nic windows [%Ld, %Ld) and [%Ld, %Ld) overlap"
                      prev.n_start prev.n_stop w.n_start w.n_stop)
                !nic_windows;
              nic_windows := w :: !nic_windows)
            windows
      | Irq_storm { line; at; count; gap } ->
          if at < 0L then invalid "irq storm starts at negative time %Ld" at;
          if count < 0 then invalid "irq storm has negative count %d" count;
          if gap < 0L then invalid "irq storm has negative gap %Ld" gap;
          if count > 0 then
            check_horizon_at "irq storm last tick"
              (Int64.add at (Int64.mul (Int64.of_int (count - 1)) gap));
          ignore line
      | Kill_at { at; target } ->
          if at < 0L then
            invalid "kill of %s scheduled at negative time %Ld" target at;
          check_horizon_at "kill" at;
          check_target "kill" target;
          check_kill_instant "kill" at target
      | Kill_window { k_start; k_stop; k_target } ->
          check_span "kill" k_start k_stop;
          if k_start < 0L then
            invalid "kill window of %s starts at negative time %Ld" k_target
              k_start;
          if Int64.equal k_start k_stop then
            invalid "kill window of %s at [%Ld, %Ld) is empty" k_target
              k_start k_stop;
          check_target "kill window" k_target;
          List.iter
            (fun (prev_start, prev_stop, prev_target) ->
              if
                String.equal k_target prev_target
                && spans_overlap k_start k_stop prev_start prev_stop
              then
                invalid
                  "kill windows [%Ld, %Ld) and [%Ld, %Ld) overlap on target %s"
                  prev_start prev_stop k_start k_stop k_target)
            !kill_windows;
          List.iter
            (fun (at, target) ->
              if
                String.equal target k_target
                && Int64.compare k_start at <= 0
                && Int64.compare at k_stop < 0
              then
                invalid
                  "kill window [%Ld, %Ld) on %s covers the kill already \
                   scheduled at %Ld (shadowed)"
                  k_start k_stop k_target at)
            !kill_instants;
          kill_windows := (k_start, k_stop, k_target) :: !kill_windows
      | Memory_pressure { m_at; m_frames; m_victim } ->
          if m_at < 0L then
            invalid "memory pressure at negative time %Ld" m_at;
          if m_frames < 0 then
            invalid "memory pressure steals negative frames %d (victim %s)"
              m_frames m_victim;
          check_horizon_at "memory pressure" m_at;
          check_target "memory pressure" m_victim;
          check_kill_instant "memory-pressure kill" m_at m_victim
      | Mig_fault { mig_at; mig_action = _ } ->
          if mig_at < 0L then
            invalid "migration fault at negative time %Ld" mig_at;
          check_horizon_at "migration fault" mig_at)
    plan

let kill_times t target =
  List.filter_map
    (fun (name, at) -> if name = target then Some at else None)
    t.kills_fired
  |> List.rev

let first_kill_time t target =
  match kill_times t target with [] -> None | at :: _ -> Some at

(* Each fault window gets its own stream split off the machine RNG at arm
   time, in plan order — the draw sequence is a pure function of
   (machine seed, plan). *)
let arm ?(pressure = fun (_ : pressure) -> ())
    ?(migration = fun (_ : mig_action) -> ()) plan mach ~kill =
  validate plan;
  let engine = mach.Machine.engine in
  let armed = { plan; kills_fired = []; handles = [] } in
  let schedule at f =
    armed.handles <- Engine.at_cancellable engine at f :: armed.handles
  in
  let disk_faults = ref [] and nic_faults = ref [] in
  List.iter
    (fun event ->
      match event with
      | Disk_faults windows ->
          List.iter
            (fun w ->
              disk_faults :=
                {
                  Disk.f_start = w.d_start;
                  f_stop = w.d_stop;
                  f_mode = w.d_mode;
                  f_pct = w.d_pct;
                  f_rng = Rng.split mach.Machine.rng;
                  f_sectors = w.d_sectors;
                }
                :: !disk_faults)
            windows
      | Nic_faults windows ->
          List.iter
            (fun w ->
              nic_faults :=
                {
                  Nic.f_start = w.n_start;
                  f_stop = w.n_stop;
                  f_mode = w.n_mode;
                  f_pct = w.n_pct;
                  f_rng = Rng.split mach.Machine.rng;
                }
                :: !nic_faults)
            windows
      | Irq_storm { line; at; count; gap } ->
          for i = 0 to count - 1 do
            schedule
              (Int64.add at (Int64.mul (Int64.of_int i) gap))
              (fun () ->
                Counter.incr mach.Machine.counters "faults.irq_storm";
                Irq.raise_line mach.Machine.irq line)
          done
      | Kill_at { at; target } ->
          schedule at (fun () ->
              Counter.incr mach.Machine.counters "faults.kill";
              armed.kills_fired <-
                (target, Engine.now engine) :: armed.kills_fired;
              kill target)
      | Kill_window { k_start; k_stop; k_target } ->
          (* The instant is drawn from the window's own split stream at
             arm time, so it is a pure function of (seed, plan) like
             every other stochastic choice. *)
          let rng = Rng.split mach.Machine.rng in
          let at = Rng.int64_range rng k_start (Int64.pred k_stop) in
          schedule at (fun () ->
              Counter.incr mach.Machine.counters "faults.kill";
              armed.kills_fired <-
                (k_target, Engine.now engine) :: armed.kills_fired;
              kill k_target)
      | Memory_pressure { m_at; m_frames; m_victim } ->
          schedule m_at (fun () ->
              Counter.incr mach.Machine.counters "faults.mem_pressure";
              pressure (Steal_frames m_frames);
              armed.kills_fired <-
                (m_victim, Engine.now engine) :: armed.kills_fired;
              kill m_victim)
      | Mig_fault { mig_at; mig_action } ->
          schedule mig_at (fun () ->
              Counter.incr mach.Machine.counters "faults.mig_fault";
              migration mig_action))
    plan;
  Disk.set_faults mach.Machine.disk (List.rev !disk_faults);
  Nic.set_faults mach.Machine.nic (List.rev !nic_faults);
  armed

let disarm armed mach =
  List.iter Engine.cancel armed.handles;
  armed.handles <- [];
  Disk.set_faults mach.Machine.disk [];
  Nic.set_faults mach.Machine.nic []
