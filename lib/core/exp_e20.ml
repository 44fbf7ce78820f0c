module Table = Vmk_stats.Table
module Faults = Vmk_faults.Faults
module Migrate = Vmk_migrate.Migrate
module Mig_vmm = Vmk_migrate.Mig_vmm
module Mig_uk = Vmk_migrate.Mig_uk
module Image = Migrate.Image
module Workload = Migrate.Workload

(* Dirty-rate profiles: [hot] pages rewritten every step is the knob
   that decides whether pre-copy converges. *)
let w_lo = Workload.make ~hot:3 ~cold_every:24 ()
let w_hi = Workload.make ~hot:24 ~cold_every:4 ()

let profile_name w = if w == w_lo then "dirty-lo" else "dirty-hi"
let cfg_precopy = Migrate.precopy ~max_rounds:6 ~threshold:6 ()

let sizes ~quick = if quick then (32, 192) else (64, 480)

let stack_name = function `Vmm -> "VMM" | `L4 -> "L4"
let migrate = function `Vmm -> Mig_vmm.migrate | `L4 -> Mig_uk.migrate

(* Every sequence number delivered exactly once across both sinks. *)
let exactly_once (r : Migrate.result) =
  List.sort compare (r.r_src_log @ r.r_dst_log)
  = List.init r.r_total_sends Fun.id

let outcome_cells = function
  | Migrate.Completed { c_rounds; c_pages; c_downtime } ->
      ("completed", string_of_int c_rounds, string_of_int c_pages,
       Printf.sprintf "%Ld" c_downtime)
  | Migrate.Aborted { a_phase; a_reason } ->
      ( Printf.sprintf "aborted@%s" (Migrate.phase_name a_phase),
        "-", "-", Printf.sprintf "(%s)" (Migrate.reason_name a_reason) )

(* --- the convergence sweep --- *)

type sweep_row = {
  sw_stack : string;
  sw_profile : string;
  sw_mode : string;
  sw_outcome : Migrate.outcome;
  sw_replay_ok : bool;
  sw_packets_ok : bool;
  sw_faults : int;  (** log-dirty protection faults on the source *)
}

let sweep_one stack ~pages ~steps ~w ~cfg ~mode =
  let r = migrate stack ~pages ~steps ~w ~cfg () in
  let reference = Mig_vmm.reference ~pages ~steps ~w () in
  ( {
      sw_stack = stack_name stack;
      sw_profile = profile_name w;
      sw_mode = mode;
      sw_outcome = r.r_outcome;
      sw_replay_ok = r.r_survivor = `Dst && Image.equal r.r_image reference;
      sw_packets_ok = exactly_once r;
      sw_faults = r.r_logdirty_faults;
    },
    r )

let sweep_table rows =
  let t =
    Table.create
      ~header:
        [
          "stack"; "dirty profile"; "mode"; "outcome"; "rounds";
          "pages copied"; "downtime (cyc)"; "replay bit-for-bit";
          "packets exactly-once"; "logdirty faults";
        ]
  in
  List.iter
    (fun r ->
      let outcome, rounds, pages, downtime = outcome_cells r.sw_outcome in
      Table.add_row t
        [
          r.sw_stack; r.sw_profile; r.sw_mode; outcome; rounds; pages;
          downtime;
          (if r.sw_replay_ok then "yes" else "NO");
          (if r.sw_packets_ok then "yes" else "NO");
          string_of_int r.sw_faults;
        ])
    rows;
  t

(* --- the kill matrix --- *)

type kill_row = {
  kr_stack : string;
  kr_inject : string;
  kr_outcome : Migrate.outcome;
  kr_one_copy : bool;
      (** Exactly one live consistent copy: the survivor's image equals
          the uninterrupted reference and no packet was lost or
          duplicated across the two sinks. *)
}

let phases = [ Migrate.Setup; Precopy 0; Precopy 1; Stopcopy; Commit ]
let reasons = [ Migrate.Src_dead; Dst_reject; Link_drop ]

let kill_one stack ~pages ~steps ~w ?abort_at ?plan ~label () =
  let r = migrate stack ~pages ~steps ~w ~cfg:cfg_precopy ?abort_at ?plan () in
  let reference = Mig_vmm.reference ~pages ~steps ~w () in
  let consistent = Image.equal r.r_image reference in
  let conserved = exactly_once r in
  let one_copy =
    match r.r_outcome with
    | Migrate.Aborted _ ->
        (* Rollback: destination never ran, source finished the job. *)
        r.r_survivor = `Src && r.r_dst_log = [] && consistent && conserved
    | Migrate.Completed _ ->
        (* Switch-over: source destroyed, destination finished. *)
        r.r_survivor = `Dst && (not r.r_src_alive) && consistent && conserved
  in
  {
    kr_stack = stack_name stack;
    kr_inject = label;
    kr_outcome = r.r_outcome;
    kr_one_copy = one_copy;
  }

let kill_table rows =
  let t =
    Table.create ~header:[ "stack"; "injected failure"; "outcome"; "exactly one live copy" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.kr_stack;
          r.kr_inject;
          Format.asprintf "%a" Migrate.pp_outcome r.kr_outcome;
          (if r.kr_one_copy then "yes" else "NO");
        ])
    rows;
  t

(* --- driver-domain handoff under storm --- *)

let handoff_table (rows : Mig_vmm.handoff list) =
  let t =
    Table.create
      ~header:
        [
          "mode"; "packets"; "delivered"; "retries"; "outage (cyc)";
          "frontend generation"; "storm packets through";
        ]
  in
  List.iter
    (fun (r : Mig_vmm.handoff) ->
      Table.add_row t
        [
          (match r.Mig_vmm.ho_mode with
          | `Planned -> "planned handoff"
          | `Crash -> "crash + restart");
          string_of_int r.Mig_vmm.ho_sent;
          string_of_int r.Mig_vmm.ho_received;
          string_of_int r.Mig_vmm.ho_retries;
          Printf.sprintf "%Ld" r.Mig_vmm.ho_outage;
          string_of_int r.Mig_vmm.ho_generation;
          string_of_int r.Mig_vmm.ho_storm_received;
        ])
    rows;
  t

let run ~quick =
  let pages, steps = sizes ~quick in
  (* 1. Convergence sweep: pre-copy vs stop-and-copy at both dirty
     rates, on both stacks. *)
  let row stack ~w ~cfg ~mode =
    fst (sweep_one stack ~pages ~steps ~w ~cfg ~mode)
  in
  let vmm_lo, vmm_lo_r =
    sweep_one `Vmm ~pages ~steps ~w:w_lo ~cfg:cfg_precopy ~mode:"precopy"
  in
  let vmm_rows =
    [
      vmm_lo;
      row `Vmm ~w:w_hi ~cfg:cfg_precopy ~mode:"precopy";
      row `Vmm ~w:w_lo ~cfg:Migrate.stop_and_copy ~mode:"stop-and-copy";
      row `Vmm ~w:w_hi ~cfg:Migrate.stop_and_copy ~mode:"stop-and-copy";
    ]
  in
  let uk_lo, uk_lo_r =
    sweep_one `L4 ~pages ~steps ~w:w_lo ~cfg:cfg_precopy ~mode:"precopy"
  in
  let uk_hi = row `L4 ~w:w_hi ~cfg:cfg_precopy ~mode:"precopy" in
  let uk_sc =
    row `L4 ~w:w_lo ~cfg:Migrate.stop_and_copy ~mode:"stop-and-copy"
  in
  let uk_rows = [ uk_lo; uk_hi; uk_sc ] in
  (* 2. Kill matrix: every phase x every failure mode, plus a
     time-scheduled Mig_fault through the Faults plan machinery. *)
  let vmm_kills =
    List.concat_map
      (fun p ->
        List.map
          (fun rsn ->
            kill_one `Vmm ~pages ~steps ~w:w_lo ~abort_at:(p, rsn)
              ~label:
                (Printf.sprintf "%s @ %s" (Migrate.reason_name rsn)
                   (Migrate.phase_name p))
              ())
          reasons)
      phases
  in
  let uk_kills =
    List.map
      (fun p ->
        kill_one `L4 ~pages ~steps ~w:w_lo ~abort_at:(p, Migrate.Src_dead)
          ~label:(Printf.sprintf "src-dead @ %s" (Migrate.phase_name p))
          ())
      phases
  in
  (* Time-scheduled faults through the Faults plan machinery: re-run the
     precopy/dirty-lo migration from the same seed with a Mig_fault aimed
     at the midpoint of its deterministic window. *)
  let mid (a, b) = Int64.div (Int64.add a b) 2L in
  let vmm_mid = mid vmm_lo_r.r_window in
  let timed_vmm =
    kill_one `Vmm ~pages ~steps ~w:w_lo
      ~plan:
        [ Faults.Mig_fault { mig_at = vmm_mid; mig_action = Faults.Mig_link_drop } ]
      ~label:(Printf.sprintf "link-drop @ t=%Ld (Faults plan)" vmm_mid)
      ()
  in
  let uk_mid = mid uk_lo_r.r_window in
  let timed_uk =
    kill_one `L4 ~pages ~steps ~w:w_lo
      ~plan:
        [ Faults.Mig_fault { mig_at = uk_mid; mig_action = Faults.Mig_src_dead } ]
      ~label:(Printf.sprintf "src-dead @ t=%Ld (Faults plan)" uk_mid)
      ()
  in
  let kills = vmm_kills @ [ timed_vmm ] @ uk_kills @ [ timed_uk ] in
  (* 3. Driver-domain handoff under the packet storm. *)
  let packets = if quick then 32 else 64 in
  let planned = Mig_vmm.driver_handoff ~mode:`Planned ~packets () in
  let crash = Mig_vmm.driver_handoff ~mode:`Crash ~packets () in
  let pre_lo = List.nth vmm_rows 0 in
  let pre_hi = List.nth vmm_rows 1 in
  let sc_lo = List.nth vmm_rows 2 in
  let sc_hi = List.nth vmm_rows 3 in
  let downtime_of r =
    match r.sw_outcome with
    | Migrate.Completed { c_downtime; _ } -> c_downtime
    | Migrate.Aborted _ -> Int64.max_int
  in
  let pages_of r =
    match r.sw_outcome with
    | Migrate.Completed { c_pages; _ } -> c_pages
    | Migrate.Aborted _ -> max_int
  in
  let rounds_of r =
    match r.sw_outcome with
    | Migrate.Completed { c_rounds; _ } -> c_rounds
    | Migrate.Aborted _ -> max_int
  in
  let handles_src, handles_dst = Option.get uk_lo_r.r_handles in
  let all_replay =
    List.for_all (fun r -> r.sw_replay_ok && r.sw_packets_ok)
      (vmm_rows @ uk_rows)
  in
  {
    Experiment.tables =
      [
        ("Pre-copy vs stop-and-copy (VMM stack)", sweep_table vmm_rows);
        ("Pre-copy vs stop-and-copy (microkernel stack)", sweep_table uk_rows);
        ("Mid-migration failure injection", kill_table kills);
        ( "Driver-domain handoff under packet storm",
          handoff_table [ planned; crash ] );
        (* Each digest covers the whole migration: protocol, faults, packet
           logs, both machines' counters and accounts. *)
        Experiment.digests
          [
            ("VMM precopy/dirty-lo", vmm_lo_r.r_digest);
            ("L4 precopy/dirty-lo", uk_lo_r.r_digest);
          ];
      ];
    verdicts =
      [
        Experiment.verdict
          ~claim:
            "pre-copy converges at low dirty rates: a handful of rounds and \
             a downtime far below stop-and-copy's copy-everything blackout"
          ~expected:
            "precopy/dirty-lo completes in <= max rounds with downtime < \
             stop-and-copy's, on both stacks"
          ~measured:
            (Printf.sprintf
               "VMM precopy-lo: %Ld cyc downtime in %d rounds vs \
                stop-and-copy %Ld; L4 precopy-lo: %Ld vs %Ld"
               (downtime_of pre_lo) (rounds_of pre_lo) (downtime_of sc_lo)
               (downtime_of uk_lo) (downtime_of uk_sc))
          (downtime_of pre_lo < downtime_of sc_lo
          && downtime_of uk_lo < downtime_of uk_sc
          && rounds_of pre_lo <= cfg_precopy.Migrate.max_rounds + 2);
        Experiment.verdict
          ~claim:
            "at high dirty rates pre-copy stops converging: the round budget \
             runs out and the total pages copied exceed stop-and-copy's \
             one-pass bill"
          ~expected:
            "precopy/dirty-hi copies more total pages than stop-and-copy \
             while stop-and-copy's page bill is flat across dirty rates"
          ~measured:
            (Printf.sprintf
               "VMM precopy-hi copied %d pages vs stop-and-copy %d (image %d \
                pages)"
               (pages_of pre_hi) (pages_of sc_hi) pages)
          (pages_of pre_hi > pages_of sc_hi && pages_of sc_hi <= pages + 8);
        Experiment.verdict
          ~claim:
            "a migrated guest replays bit-for-bit: the restored image equals \
             the uninterrupted run and every packet arrives exactly once \
             across both machines' sinks (both stacks)"
          ~expected:
            "image equality + sequence-log conservation on every completed \
             row; L4 capability handles re-established through the pager"
          ~measured:
            (Printf.sprintf
               "%d/%d rows replay ok; L4 handles src=%d dst=%d"
               (List.length
                  (List.filter (fun r -> r.sw_replay_ok) (vmm_rows @ uk_rows)))
               (List.length (vmm_rows @ uk_rows))
               handles_src handles_dst)
          (all_replay && handles_src = handles_dst && handles_src = pages);
        Experiment.verdict
          ~claim:
            "a failure injected at any protocol phase resolves to exactly \
             one live consistent copy — never both, never neither"
          ~expected:
            "every (phase x failure) cell: abort-and-rollback to a source \
             that finishes identically, or completion on the destination \
             with the source destroyed"
          ~measured:
            (Printf.sprintf "%d/%d injections resolved to one copy"
               (List.length (List.filter (fun r -> r.kr_one_copy) kills))
               (List.length kills))
          (List.for_all (fun r -> r.kr_one_copy) kills);
        Experiment.verdict
          ~claim:
            "migrating a driver domain is a planned handoff: building the \
             successor before destroying the incumbent shrinks the client \
             outage versus crash-restart, even under a packet storm"
          ~expected:
            "planned outage < crash outage; all client packets delivered \
             exactly once either way"
          ~measured:
            (Printf.sprintf
               "planned: %Ld cyc outage, %d/%d delivered; crash: %Ld cyc, \
                %d/%d"
               planned.Mig_vmm.ho_outage planned.Mig_vmm.ho_received packets
               crash.Mig_vmm.ho_outage crash.Mig_vmm.ho_received packets)
          (planned.Mig_vmm.ho_outage < crash.Mig_vmm.ho_outage
          && planned.Mig_vmm.ho_received = packets
          && crash.Mig_vmm.ho_received = packets);
      ];
  }

let experiment =
  {
    Experiment.id = "e20";
    title = "Live migration and checkpoint/restore with mid-migration faults";
    paper_claim =
      "§4: the VMM's 'complete encapsulation of a software stack in a \
       virtual machine' is what makes migration and checkpointing natural; \
       microkernels must reconstruct the equivalent from task state, \
       mappings and capabilities. E20 builds pre-copy live migration and \
       checkpoint/restore on both stacks and stress-tests the claim where \
       it bites: mid-migration failure must leave exactly one live \
       consistent copy.";
    run;
  }
