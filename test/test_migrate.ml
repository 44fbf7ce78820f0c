(* E20 live migration: the stack-agnostic protocol core against
   scripted ops (rounds/pages arithmetic, residual carry, abort paths),
   end-to-end checkpoint/restore on both stacks, and the
   abort-at-every-phase / exactly-once-packet property. *)

module Migrate = Vmk_migrate.Migrate
module Mig_vmm = Vmk_migrate.Mig_vmm
module Mig_uk = Vmk_migrate.Mig_uk
module Image = Migrate.Image
module Workload = Migrate.Workload

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- scripted ops ---

   Dirty harvests come from a queue. Reading a harvest also restamps
   those pages in the source — the guest "wrote" them — so any harvest
   the protocol fails to re-send leaves the staging image stale and
   [Image.equal] catches it. *)

type event = Log_on | Log_off | Quiesce | Resume | State | Destroy

let scripted ~(src : Image.t) ~dirties () =
  let log = ref [] in
  let note e = log := e :: !log in
  let queue = ref dirties in
  let t = ref 0L in
  let ops =
    {
      Migrate.o_now =
        (fun () ->
          t := Int64.add !t 7L;
          !t);
      o_burn = (fun _ -> ());
      o_log_dirty = (fun on -> note (if on then Log_on else Log_off));
      o_dirty_read =
        (fun () ->
          match !queue with
          | [] -> []
          | h :: rest ->
              queue := rest;
              List.iter
                (fun v -> src.Image.pages.(v) <- src.Image.pages.(v) + 100)
                h;
              h);
      o_quiesce = (fun () -> note Quiesce);
      o_resume = (fun () -> note Resume);
      o_state_xfer = (fun () -> note State);
      o_commit = (fun () -> note Destroy);
    }
  in
  (ops, fun () -> List.rev !log)

let stamped pages =
  let img = Image.create ~pages in
  Array.iteri (fun i _ -> img.Image.pages.(i) <- 1_000 + i) img.Image.pages;
  img

let run_scripted ~cfg ?abort_at ?link ~dirties pages =
  let src = stamped pages in
  let staging = Image.create ~pages in
  let ops, events = scripted ~src ~dirties () in
  let session = Migrate.session ?abort_at ?link () in
  let outcome = Migrate.run ~cfg ~session ~src ~staging ~ops in
  (outcome, src, staging, events ())

(* Round 0 pushes all 8 pages; round 1 harvests 3 (> threshold 2, so
   they are pushed); round 2 harvests 1 (converged — carried as the
   residual); the stop-and-copy harvest is empty. 8 + 3 + 1 pages over
   three copy rounds, and the staging image matches the source even
   though the harvests restamped pages under the protocol's feet. *)
let test_precopy_math () =
  let outcome, src, staging, events =
    run_scripted
      ~cfg:(Migrate.precopy ~max_rounds:4 ~threshold:2 ())
      ~dirties:[ [ 0; 1; 2 ]; [ 1 ] ]
      8
  in
  (match outcome with
  | Migrate.Completed { c_rounds; c_pages; c_downtime } ->
      checki "rounds" 3 c_rounds;
      checki "pages" 12 c_pages;
      checkb "downtime positive" true (Int64.compare c_downtime 0L > 0)
  | Migrate.Aborted _ -> Alcotest.fail "expected completion");
  checkb "staging bit-for-bit" true (Image.equal src staging);
  checkb "event order" true
    (events = [ Log_on; Quiesce; State; Destroy; Log_off ])

(* max_rounds = 0 is the checkpoint path: no dirty logging at all, one
   copy round covering every page. *)
let test_stopcopy_math () =
  let outcome, src, staging, events =
    run_scripted ~cfg:Migrate.stop_and_copy ~dirties:[] 8
  in
  (match outcome with
  | Migrate.Completed { c_rounds; c_pages; _ } ->
      checki "rounds" 1 c_rounds;
      checki "pages" 8 c_pages
  | Migrate.Aborted _ -> Alcotest.fail "expected completion");
  checkb "staging bit-for-bit" true (Image.equal src staging);
  checkb "no dirty logging" true (events = [ Quiesce; State; Destroy ])

(* The convergence harvest clears the dirty set as it reads it. Those
   pages are restamped by the scripted harvest, so if the protocol
   dropped the harvest instead of carrying it into stop-and-copy the
   staging image would hold their stale stamps. *)
let test_residual_carry () =
  let outcome, src, staging, _ =
    run_scripted
      ~cfg:(Migrate.precopy ~max_rounds:4 ~threshold:2 ())
      ~dirties:[ [ 5 ]; [ 5; 6 ] ]
      8
  in
  (match outcome with
  | Migrate.Completed { c_pages; _ } ->
      (* 8 in round 0 + sort_uniq([5] @ [5;6]) at stop-and-copy. *)
      checki "pages" 10 c_pages
  | Migrate.Aborted _ -> Alcotest.fail "expected completion");
  checkb "residual pages re-sent" true (Image.equal src staging)

let all_phases =
  [ Migrate.Setup; Migrate.Precopy 0; Migrate.Precopy 1; Migrate.Stopcopy;
    Migrate.Commit ]

(* An abort at any phase reports that phase, never destroys the source,
   and resumes it iff it was already paused (stop-and-copy onwards). *)
let test_abort_each_phase () =
  List.iter
    (fun phase ->
      let outcome, _, _, events =
        run_scripted
          ~cfg:(Migrate.precopy ~max_rounds:3 ~threshold:0 ())
          ~abort_at:(phase, Migrate.Dst_reject)
          ~dirties:[ [ 0 ]; [ 1 ]; [ 2 ] ]
          8
      in
      let name = Migrate.phase_name phase in
      (match outcome with
      | Migrate.Aborted { a_phase; a_reason } ->
          checkb (name ^ ": phase reported") true (a_phase = phase);
          checkb (name ^ ": reason reported") true
            (a_reason = Migrate.Dst_reject)
      | Migrate.Completed _ -> Alcotest.fail (name ^ ": expected abort"));
      checkb (name ^ ": source never destroyed") false
        (List.mem Destroy events);
      let paused = phase = Migrate.Stopcopy || phase = Migrate.Commit in
      checkb (name ^ ": resumed iff paused") paused (List.mem Resume events))
    all_phases

(* A link already down fails the first transfer, not the setup: the
   abort surfaces from inside round 0 as a link drop. *)
let test_link_down_mid_transfer () =
  let link = Migrate.link () in
  link.Migrate.l_down <- true;
  let outcome, _, staging, _ =
    run_scripted ~cfg:(Migrate.precopy ()) ~link ~dirties:[] 8
  in
  (match outcome with
  | Migrate.Aborted { a_phase; a_reason } ->
      checkb "phase" true (a_phase = Migrate.Precopy 0);
      checkb "reason" true (a_reason = Migrate.Link_drop)
  | Migrate.Completed _ -> Alcotest.fail "expected abort");
  checkb "staging untouched" true (Array.for_all (( = ) 0) staging.Image.pages)

(* The workload is a pure function of the image: two images advanced in
   lockstep stay bit-for-bit equal, and the digest separates a one-stamp
   difference. *)
let test_workload_determinism () =
  let w = Workload.make () in
  let a = Image.create ~pages:16 and b = Image.create ~pages:16 in
  for _ = 1 to 100 do
    let wa, sa = Workload.advance a w and wb, sb = Workload.advance b w in
    checkb "same pages written" true (wa = wb);
    checkb "same send schedule" true (sa = sb)
  done;
  checkb "images equal" true (Image.equal a b);
  checki "digests equal" (Image.digest a) (Image.digest b);
  b.Image.pages.(7) <- b.Image.pages.(7) + 1;
  checkb "one stamp apart detected" false
    (Image.equal a b || Image.digest a = Image.digest b)

(* Checkpoint/restore end to end: stop-and-copy on each stack, then the
   destination replay must equal the uninterrupted execution, with every
   packet sequence number delivered exactly once across both sinks. *)
let exactly_once (r : Migrate.result) =
  List.sort compare (r.r_src_log @ r.r_dst_log)
  = List.init r.r_total_sends Fun.id

let check_restored ~pages ~steps (r : Migrate.result) =
  checkb "completed" true
    (match r.r_outcome with Migrate.Completed _ -> true | _ -> false);
  checkb "destination survives" true (r.r_survivor = `Dst);
  checkb "source destroyed" false r.r_src_alive;
  checkb "replay bit-for-bit" true
    (Image.equal r.r_image (Mig_vmm.reference ~pages ~steps ()));
  checkb "packets exactly once" true (exactly_once r)

let test_checkpoint_restore_vmm () =
  let pages = 16 and steps = 120 in
  let r = Mig_vmm.migrate ~pages ~steps ~cfg:Migrate.stop_and_copy () in
  check_restored ~pages ~steps r;
  checkb "no capability handles on the VMM" true (r.r_handles = None)

let test_checkpoint_restore_uk () =
  let pages = 16 and steps = 120 in
  let r = Mig_uk.migrate ~pages ~steps ~cfg:Migrate.stop_and_copy () in
  check_restored ~pages ~steps r;
  match r.r_handles with
  | Some (src, dst) -> checki "capability handles re-established" src dst
  | None -> Alcotest.fail "L4 reports its capability handles"

(* Pre-copy end to end on both stacks: converges under the round budget
   and still replays bit-for-bit. *)
let test_precopy_both_stacks () =
  let pages = 16 and steps = 120 in
  let cfg = Migrate.precopy ~max_rounds:6 ~threshold:6 () in
  let rv = Mig_vmm.migrate ~pages ~steps ~cfg () in
  let ru = Mig_uk.migrate ~pages ~steps ~cfg () in
  let rounds r =
    match r with Migrate.Completed { c_rounds; _ } -> c_rounds | _ -> -1
  in
  checkb "vmm converged" true
    (rounds rv.r_outcome >= 2 && rounds rv.r_outcome <= 6 + 2);
  checkb "uk converged" true
    (rounds ru.r_outcome >= 2 && rounds ru.r_outcome <= 6 + 2);
  checkb "vmm replay" true
    (Image.equal rv.r_image (Mig_vmm.reference ~pages ~steps ()));
  checkb "uk replay" true
    (Image.equal ru.r_image (Mig_vmm.reference ~pages ~steps ()));
  checkb "vmm dirty tracking used" true (rv.r_logdirty_faults > 0);
  checkb "uk dirty tracking used" true (ru.r_logdirty_faults > 0)

(* Two identical runs replay bit-for-bit on both stacks — the
   determinism the replay verdict and the kill-window probe both lean
   on. The digest covers both machines' counters and accounts, not just
   the result fields. *)
let test_determinism () =
  let same name (go : unit -> Migrate.result) =
    Alcotest.(check string) name (go ()).r_digest (go ()).r_digest
  in
  same "vmm digests" (fun () -> Mig_vmm.migrate ~pages:16 ~steps:120 ());
  same "uk digests" (fun () -> Mig_uk.migrate ~pages:16 ~steps:120 ())

(* The qcheck satellite: whatever (phase, reason) the abort lands on,
   on either stack, the run resolves to exactly one live consistent
   copy and every packet arrives exactly once — aborts roll back to a
   source that finishes; completions leave only the destination. *)
let prop_abort_anywhere_exactly_once =
  let pages = 12 and steps = 96 in
  let reference = lazy (Mig_vmm.reference ~pages ~steps ()) in
  QCheck.Test.make
    ~name:"migrate: abort at any phase leaves one consistent copy" ~count:12
    QCheck.(
      triple bool
        (oneofl all_phases)
        (oneofl [ Migrate.Src_dead; Migrate.Dst_reject; Migrate.Link_drop ]))
    (fun (vmm, phase, reason) ->
      let abort_at = (phase, reason) in
      let migrate = if vmm then Mig_vmm.migrate else Mig_uk.migrate in
      let r : Migrate.result = migrate ~pages ~steps ~abort_at () in
      let consistent = Image.equal r.r_image (Lazy.force reference) in
      let conserved = exactly_once r in
      match r.r_outcome with
      | Migrate.Aborted { a_phase; _ } ->
          a_phase = phase && r.r_survivor = `Src && r.r_dst_log = []
          && consistent && conserved
      | Migrate.Completed _ ->
          (* Unreachable with abort_at set on these phases, but if the
             protocol ever completed anyway the destination must be the
             sole survivor. *)
          r.r_survivor = `Dst && (not r.r_src_alive) && consistent && conserved)

let suite =
  [
    Alcotest.test_case "precopy rounds/pages arithmetic" `Quick
      test_precopy_math;
    Alcotest.test_case "stop-and-copy arithmetic" `Quick test_stopcopy_math;
    Alcotest.test_case "convergence residual carried to stop-and-copy" `Quick
      test_residual_carry;
    Alcotest.test_case "abort at each phase rolls back" `Quick
      test_abort_each_phase;
    Alcotest.test_case "link drop fails the transfer, not the guest" `Quick
      test_link_down_mid_transfer;
    Alcotest.test_case "workload is a pure function of the image" `Quick
      test_workload_determinism;
    Alcotest.test_case "checkpoint/restore replays bit-for-bit (vmm)" `Quick
      test_checkpoint_restore_vmm;
    Alcotest.test_case "checkpoint/restore replays bit-for-bit (uk)" `Quick
      test_checkpoint_restore_uk;
    Alcotest.test_case "pre-copy converges and replays on both stacks" `Quick
      test_precopy_both_stacks;
    Alcotest.test_case "migration is deterministic" `Quick test_determinism;
    QCheck_alcotest.to_alcotest prop_abort_anywhere_exactly_once;
  ]
