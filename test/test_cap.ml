(* The E19 capability layer: rights monotonicity, exact-subtree
   revocation, denial accounting, a random derive/revoke property
   against a model tree, the toolstack restart rate limit, fault-plan
   target validation, and both-stacks revocation-storm replay. *)

module Counter = Vmk_trace.Counter
module Cap = Vmk_cap.Cap
module Machine = Vmk_hw.Machine
module Hypervisor = Vmk_vmm.Hypervisor
module Driver_dom = Vmk_vmm.Driver_dom
module Faults = Vmk_faults.Faults
module Exp_e19 = Vmk_core.Exp_e19

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh () = Cap.create ~counters:(Counter.create_set ()) ()

(* --- units --- *)

let test_derive_monotone () =
  let t = fresh () in
  let parent_rights = Cap.r_read lor Cap.r_derive in
  let root = Cap.mint t ~dom:1 ~obj:100 ~rights:parent_rights in
  match Cap.derive t ~dom:1 ~handle:root ~to_dom:2 ~obj:101 ~rights:Cap.r_full with
  | Error _ -> Alcotest.fail "derive from r_derive parent must succeed"
  | Ok child ->
      let info = Option.get (Cap.lookup t ~dom:2 ~handle:child) in
      check_int "child rights are the intersection with the parent"
        parent_rights info.Cap.i_rights;
      check_bool "child cannot write (parent could not)" false
        (Cap.check t ~dom:2 ~handle:child ~need:Cap.r_write);
      (* A grandchild can only shrink further. *)
      (match
         Cap.derive t ~dom:2 ~handle:child ~to_dom:3 ~obj:102
           ~rights:(Cap.r_write lor Cap.r_read)
       with
      | Error _ -> Alcotest.fail "grandchild derive must succeed"
      | Ok gc ->
          let gi = Option.get (Cap.lookup t ~dom:3 ~handle:gc) in
          check_int "grandchild rights shrink to r_read" Cap.r_read
            gi.Cap.i_rights)

let test_revoke_exact_subtree () =
  let t = fresh () in
  let on_revoke _ ~depth:_ = () in
  let root = Cap.mint t ~dom:1 ~obj:200 ~rights:Cap.r_full in
  let ok = function Ok h -> h | Error _ -> Alcotest.fail "derive failed" in
  let a = ok (Cap.derive t ~dom:1 ~handle:root ~to_dom:2 ~obj:201 ~rights:Cap.r_full) in
  let b = ok (Cap.derive t ~dom:2 ~handle:a ~to_dom:3 ~obj:202 ~rights:Cap.r_full) in
  let c = ok (Cap.derive t ~dom:1 ~handle:root ~to_dom:4 ~obj:203 ~rights:Cap.r_full) in
  check_int "four caps live" 4 (Cap.count t);
  (match Cap.revoke t ~dom:2 ~handle:a ~self:true ~on_revoke with
  | Error _ -> Alcotest.fail "revoke of a must succeed"
  | Ok stats ->
      check_int "exactly the a-subtree died" 2 stats.Cap.r_removed;
      check_int "subtree depth 1" 1 stats.Cap.r_max_depth);
  check_bool "b gone" true (Cap.lookup t ~dom:3 ~handle:b = None);
  check_bool "root survives" true (Cap.lookup t ~dom:1 ~handle:root <> None);
  check_bool "sibling c survives" true (Cap.lookup t ~dom:4 ~handle:c <> None);
  check_int "two caps left" 2 (Cap.count t)

let test_denied_accounting () =
  let counters = Counter.create_set () in
  let t = Cap.create ~counters () in
  let h = Cap.mint t ~dom:1 ~obj:300 ~rights:Cap.r_read in
  check_bool "write check fails" false
    (Cap.check t ~dom:1 ~handle:h ~need:Cap.r_write);
  check_int "denied counted" 1 (Counter.get counters "cap.denied");
  (match Cap.derive t ~dom:1 ~handle:h ~to_dom:2 ~obj:301 ~rights:Cap.r_read with
  | Error `Denied -> ()
  | Ok _ | Error `No_cap ->
      Alcotest.fail "derive without r_derive must be Denied");
  check_int "derive denial counted" 2 (Counter.get counters "cap.denied");
  (match
     Cap.revoke t ~dom:1 ~handle:h ~self:true ~on_revoke:(fun _ ~depth:_ -> ())
   with
  | Error `Denied -> ()
  | Ok _ | Error `No_cap -> Alcotest.fail "revoke without r_revoke must be Denied");
  check_int "revoke denial counted" 3 (Counter.get counters "cap.denied");
  check_int "minted once" 1 (Counter.get counters "cap.minted")

let test_grant_moves_subtree () =
  let t = fresh () in
  let ok = function Ok h -> h | Error _ -> Alcotest.fail "op failed" in
  let root = Cap.mint t ~dom:1 ~obj:400 ~rights:Cap.r_full in
  let a = ok (Cap.derive t ~dom:1 ~handle:root ~to_dom:2 ~obj:401 ~rights:Cap.r_full) in
  let b = ok (Cap.derive t ~dom:2 ~handle:a ~to_dom:3 ~obj:402 ~rights:Cap.r_full) in
  let moved = ok (Cap.grant t ~dom:2 ~handle:a ~to_dom:5 ~obj:405) in
  check_bool "source handle died" true (Cap.lookup t ~dom:2 ~handle:a = None);
  check_bool "moved cap lives in dom 5" true
    (Cap.lookup t ~dom:5 ~handle:moved <> None);
  (* The move preserved the tree: revoking the root still reaps b. *)
  (match
     Cap.revoke t ~dom:1 ~handle:root ~self:true
       ~on_revoke:(fun _ ~depth:_ -> ())
   with
  | Ok stats -> check_int "whole tree died" 3 stats.Cap.r_removed
  | Error _ -> Alcotest.fail "root revoke failed");
  check_bool "b reaped through the moved link" true
    (Cap.lookup t ~dom:3 ~handle:b = None);
  check_int "empty" 0 (Cap.count t)

let test_revoke_dom () =
  let t = fresh () in
  let ok = function Ok h -> h | Error _ -> Alcotest.fail "derive failed" in
  let r1 = Cap.mint t ~dom:7 ~obj:500 ~rights:Cap.r_full in
  let _r2 = Cap.mint t ~dom:7 ~obj:501 ~rights:Cap.r_full in
  let child =
    ok (Cap.derive t ~dom:7 ~handle:r1 ~to_dom:8 ~obj:502 ~rights:Cap.r_full)
  in
  let keeper = Cap.mint t ~dom:9 ~obj:503 ~rights:Cap.r_full in
  let stats = Cap.revoke_dom t ~dom:7 ~on_revoke:(fun _ ~depth:_ -> ()) in
  check_int "dom 7's caps and their derivations died" 3 stats.Cap.r_removed;
  check_bool "dom 8's derived cap reaped" true
    (Cap.lookup t ~dom:8 ~handle:child = None);
  check_bool "unrelated dom untouched" true
    (Cap.lookup t ~dom:9 ~handle:keeper <> None)

(* --- random derive/revoke sequences against a model tree --- *)

type mnode = {
  m_dom : int;
  m_handle : Cap.handle;
  m_rights : Cap.rights;
  m_parent : (int * Cap.handle) option;
}

let prop_random_tree =
  QCheck.Test.make
    ~name:"cap: random derive/revoke keeps table and model in lockstep"
    ~count:60
    QCheck.(
      list_of_size
        Gen.(5 -- 40)
        (triple (int_bound 1000) (int_bound 1000) bool))
    (fun ops ->
      let t = fresh () in
      let next_obj = ref 0 in
      let obj () = incr next_obj; 10_000 + !next_obj in
      let root = Cap.mint t ~dom:0 ~obj:(obj ()) ~rights:Cap.r_full in
      let model =
        ref [ { m_dom = 0; m_handle = root; m_rights = Cap.r_full; m_parent = None } ]
      in
      let rec subtree key =
        key
        :: List.concat_map
             (fun n ->
               if n.m_parent = Some key then subtree (n.m_dom, n.m_handle)
               else [])
             !model
      in
      List.iter
        (fun (a, b, is_derive) ->
          match !model with
          | [] -> ()
          | live ->
              let n = List.nth live (a mod List.length live) in
              if is_derive then begin
                let want = b land Cap.r_full in
                let to_dom = b mod 4 in
                match
                  Cap.derive t ~dom:n.m_dom ~handle:n.m_handle ~to_dom
                    ~obj:(obj ()) ~rights:want
                with
                | Ok h ->
                    if not (Cap.has n.m_rights Cap.r_derive) then
                      Alcotest.fail "derive succeeded without r_derive";
                    let expect = want land n.m_rights in
                    let info = Option.get (Cap.lookup t ~dom:to_dom ~handle:h) in
                    if info.Cap.i_rights <> expect then
                      Alcotest.fail "child rights exceed parent mask";
                    model :=
                      {
                        m_dom = to_dom;
                        m_handle = h;
                        m_rights = expect;
                        m_parent = Some (n.m_dom, n.m_handle);
                      }
                      :: !model
                | Error `Denied ->
                    if Cap.has n.m_rights Cap.r_derive then
                      Alcotest.fail "derive denied despite r_derive"
                | Error `No_cap -> Alcotest.fail "model said the cap was live"
              end
              else begin
                let reaped = ref 0 in
                match
                  Cap.revoke t ~dom:n.m_dom ~handle:n.m_handle ~self:true
                    ~on_revoke:(fun _ ~depth:_ -> incr reaped)
                with
                | Ok stats ->
                    if not (Cap.has n.m_rights Cap.r_revoke) then
                      Alcotest.fail "revoke succeeded without r_revoke";
                    let doomed = subtree (n.m_dom, n.m_handle) in
                    if stats.Cap.r_removed <> List.length doomed then
                      Alcotest.fail "revoke did not remove exactly the subtree";
                    if !reaped <> stats.Cap.r_removed then
                      Alcotest.fail "on_revoke fired wrong number of times";
                    model :=
                      List.filter
                        (fun m -> not (List.mem (m.m_dom, m.m_handle) doomed))
                        !model
                | Error `Denied ->
                    if Cap.has n.m_rights Cap.r_revoke then
                      Alcotest.fail "revoke denied despite r_revoke"
                | Error `No_cap -> Alcotest.fail "model said the cap was live"
              end)
        ops;
      Cap.count t = List.length !model
      && List.for_all
           (fun m -> Cap.lookup t ~dom:m.m_dom ~handle:m.m_handle <> None)
           !model)

(* --- satellite: toolstack restart rate limit --- *)

let test_toolstack_rate_limit () =
  let mach = Machine.create ~seed:5L () in
  let counters = mach.Machine.counters in
  let h = Hypervisor.create mach in
  let ts = Driver_dom.create () in
  (* A driver domain that dies instantly: every liveness poll wants a
     rebuild, so the sliding window must kick in after [burst]. *)
  let spec =
    Driver_dom.spec ~name:"flappy" ~privileged:false (fun ~restart:_ () -> ())
  in
  ignore
    (Hypervisor.create_domain h ~name:Driver_dom.toolstack_name
       ~privileged:true
       (Driver_dom.toolstack_body mach ts
          ~restart_limit:(2, 1_000_000L)
          ~period:50_000L [ spec ]));
  ignore
    (Hypervisor.run h ~until:(fun () ->
         Counter.get counters "toolstack.rate_limited" >= 3));
  check_int "only the burst restarted inside the window" 2
    (Counter.get counters "toolstack.restart");
  (* Deferred, not dropped: once the window slides past, the next poll
     rebuilds again. *)
  ignore
    (Hypervisor.run h ~until:(fun () ->
         Counter.get counters "toolstack.restart" >= 3));
  check_bool "a rebuild happened after the window slid" true
    (Counter.get counters "toolstack.restart" >= 3);
  Driver_dom.stop ts;
  ignore (Hypervisor.run h ~max_dispatches:1_000)

(* --- satellite: fault plans reject unknown kill targets --- *)

let test_faults_unknown_target () =
  let plan = [ Faults.Kill_at { at = 100L; target = "netdvr" (* typo *) } ] in
  (* Without a target universe the name passes (legacy behavior). *)
  Faults.validate plan;
  check_bool "typo'd kill target rejected at validate time" true
    (match Faults.validate ~targets:[ "netdrv"; "blkdrv" ] plan with
    | () -> false
    | exception Faults.Invalid_plan _ -> true);
  check_bool "memory-pressure victim checked too" true
    (match
       Faults.validate ~targets:[ "netdrv" ]
         [
           Faults.Memory_pressure
             { m_at = 10L; m_frames = 4; m_victim = "gone" };
         ]
     with
    | () -> false
    | exception Faults.Invalid_plan _ -> true);
  (* A known name passes with the universe supplied. *)
  Faults.validate ~targets:[ "netdrv" ]
    [ Faults.Kill_at { at = 100L; target = "netdrv" } ]

(* --- E19 chains and storm replay on both stacks --- *)

let test_uk_chain_exact () =
  let c = Exp_e19.uk_chain ~depth:3 in
  check_int "three caps removed" 3 c.Exp_e19.ch_removed;
  check_int "all three delegates faulted afterwards" 3 c.Exp_e19.ch_severed;
  check_bool "teardown took cycles" true (c.Exp_e19.ch_teardown > 0L)

let test_vmm_chain_exact () =
  let c = Exp_e19.vmm_chain ~depth:3 in
  check_int "2d caps removed" 6 c.Exp_e19.ch_removed;
  check_int "2d-1 forced unmaps" 5 c.Exp_e19.ch_forced;
  check_int "d-1 transitive grants" 2 c.Exp_e19.ch_transitive;
  check_int "every link saw Bad_gref" 3 c.Exp_e19.ch_severed

let test_storm_replay_uk () =
  let a = Exp_e19.uk_storm ~quick:true ~revoke:true in
  let b = Exp_e19.uk_storm ~quick:true ~revoke:true in
  check_bool "uk storm replays bit-for-bit" true
    (a.Exp_e19.st_digest = b.Exp_e19.st_digest);
  check_bool "victim denied" true (a.Exp_e19.st_victim_failed > 0);
  check_int "innocents delivered everything" a.Exp_e19.st_expected
    a.Exp_e19.st_innocent_rx

let test_storm_replay_vmm () =
  let a = Exp_e19.xen_storm ~quick:true ~revoke:true in
  let b = Exp_e19.xen_storm ~quick:true ~revoke:true in
  check_bool "vmm storm replays bit-for-bit" true
    (a.Exp_e19.st_digest = b.Exp_e19.st_digest);
  check_bool "cascade forced unmaps" true (a.Exp_e19.st_forced > 0);
  check_int "innocents delivered everything" a.Exp_e19.st_expected
    a.Exp_e19.st_innocent_rx

let suite =
  [
    Alcotest.test_case "derive: rights monotone" `Quick test_derive_monotone;
    Alcotest.test_case "revoke: exact subtree" `Quick test_revoke_exact_subtree;
    Alcotest.test_case "denied: accounted" `Quick test_denied_accounting;
    Alcotest.test_case "grant: move preserves tree" `Quick
      test_grant_moves_subtree;
    Alcotest.test_case "revoke_dom: domain death" `Quick test_revoke_dom;
    QCheck_alcotest.to_alcotest prop_random_tree;
    Alcotest.test_case "toolstack: restart rate limit" `Quick
      test_toolstack_rate_limit;
    Alcotest.test_case "faults: unknown kill target" `Quick
      test_faults_unknown_target;
    Alcotest.test_case "e19: uk chain exact" `Quick test_uk_chain_exact;
    Alcotest.test_case "e19: vmm chain exact" `Quick test_vmm_chain_exact;
    Alcotest.test_case "e19: uk storm replay" `Slow test_storm_replay_uk;
    Alcotest.test_case "e19: vmm storm replay" `Slow test_storm_replay_vmm;
  ]
