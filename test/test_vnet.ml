(* The inter-guest fabric (E17): the learning switch's MAC table and
   flow cache, bounded port queues with ECN watermarks, weighted
   fair-share at the gate, the ring-drop accounting split the fabric
   work surfaced, per-flow order preservation, the exact and
   allocation-free steady-state forward, and bit-for-bit replay of the
   end-to-end experiment on both stacks. *)

module Counter = Vmk_trace.Counter
module Overload = Vmk_overload.Overload
module Vnet = Vmk_vnet.Vnet
module Mac = Vnet.Mac_table
module Flows = Vnet.Flow_cache
module Switch = Vnet.Switch
module Ring = Vmk_vmm.Ring
module E17 = Vmk_core.Exp_e17

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pkt ?(len = 512) ~src ~dst () =
  { Vnet.src; dst; len; tag = (dst * 1_000_000) + (src * 10_000) }

(* --- MAC table --- *)

let test_mac_learning () =
  let m = Mac.create ~ttl:100L () in
  Mac.learn m ~now:0L ~mac:7 ~port:1;
  check_int "resolves" 1 (Option.get (Mac.lookup m ~now:10L 7));
  (* A refresh extends the lease... *)
  Mac.learn m ~now:90L ~mac:7 ~port:1;
  check_int "still bound" 1 (Option.get (Mac.lookup m ~now:150L 7));
  (* ...but an idle entry ages out. *)
  check_bool "expired" true (Mac.lookup m ~now:500L 7 = None);
  check_int "expiry counted" 1 (Mac.expiries m);
  (* A station move rebinds to the new port. *)
  Mac.learn m ~now:500L ~mac:7 ~port:1;
  Mac.learn m ~now:501L ~mac:7 ~port:3;
  check_int "moved" 3 (Option.get (Mac.lookup m ~now:502L 7));
  check_int "move counted" 1 (Mac.moves m)

(* --- flow cache --- *)

let test_flow_cache_accounting () =
  let f = Flows.create ~capacity:2 () in
  check_bool "cold miss" true (Flows.find f ~src:1 ~dst:2 = None);
  Flows.insert f ~src:1 ~dst:2 ~port:2;
  check_int "hit" 2 (Option.get (Flows.find f ~src:1 ~dst:2));
  Flows.insert f ~src:1 ~dst:3 ~port:3;
  (* FIFO eviction: the third distinct flow displaces the oldest. *)
  Flows.insert f ~src:1 ~dst:4 ~port:4;
  check_bool "oldest evicted" true (Flows.find f ~src:1 ~dst:2 = None);
  check_int "evictions" 1 (Flows.evictions f);
  check_int "hits" 1 (Flows.hits f);
  check_int "misses" 2 (Flows.misses f);
  (* Invalidate drops every flow naming the moved station. *)
  Flows.invalidate f ~mac:4;
  check_bool "invalidated" true (Flows.find f ~src:1 ~dst:4 = None)

(* --- switch forwarding --- *)

let quad () =
  let c = Counter.create_set () in
  let s = Switch.create ~counters:c ~port_capacity:4 () in
  List.iter (fun id -> ignore (Switch.add_port s ~id)) [ 1; 2; 3; 4 ];
  (c, s)

let test_broadcast_flood () =
  let c, s = quad () in
  let d = Switch.forward s ~now:0L ~in_port:1 (pkt ~src:1 ~dst:0 ()) in
  check_bool "flood" true d.Switch.flood;
  check_int "everyone but the source" 3 d.Switch.enqueued;
  check_int "nothing reflected" 0 (Switch.pending s ~port:1);
  check_int "queued at 2" 1 (Switch.pending s ~port:2);
  check_int "flood counted" 1 (Counter.get c "vnet.flood")

let test_unknown_unicast_drops () =
  let c, s = quad () in
  let d = Switch.forward s ~now:0L ~in_port:1 (pkt ~src:1 ~dst:9 ()) in
  check_int "not enqueued" 0 d.Switch.enqueued;
  check_int "no_route counted" 1 (Counter.get c "vnet.no_route");
  (* Hairpin to self is refused the same way. *)
  Mac.learn (Switch.mac_table s) ~now:0L ~mac:1 ~port:1;
  let d = Switch.forward s ~now:0L ~in_port:1 (pkt ~src:1 ~dst:1 ()) in
  check_int "hairpin refused" 0 d.Switch.enqueued;
  check_int "both under no_route" 2 (Counter.get c "vnet.no_route")

let test_bounded_port_rejects () =
  let c, s = quad () in
  Mac.learn (Switch.mac_table s) ~now:0L ~mac:2 ~port:2;
  for _ = 1 to 6 do
    ignore (Switch.forward s ~now:0L ~in_port:1 (pkt ~src:1 ~dst:2 ()))
  done;
  (* Capacity 4 under Reject: the overflow is counted, not queued. *)
  check_int "queue at capacity" 4 (Switch.pending s ~port:2);
  check_int "drops counted" 2 (Counter.get c "vnet.drop");
  check_int "machine-wide drop" 2 (Counter.get c Overload.drop_counter);
  check_int "dropped tally" 2 (Switch.dropped s)

let test_ecn_watermark () =
  let c = Counter.create_set () in
  let s = Switch.create ~counters:c ~port_capacity:8 ~mark_at:2 () in
  List.iter (fun id -> ignore (Switch.add_port s ~id)) [ 1; 2 ];
  Mac.learn (Switch.mac_table s) ~now:0L ~mac:2 ~port:2;
  let d1 = Switch.forward s ~now:0L ~in_port:1 (pkt ~src:1 ~dst:2 ()) in
  check_bool "below watermark" false d1.Switch.marked;
  let d2 = Switch.forward s ~now:0L ~in_port:1 (pkt ~src:1 ~dst:2 ()) in
  check_bool "at watermark" true d2.Switch.marked;
  check_bool "port reports mark" true (Switch.port_marked s ~port:2);
  check_int "mark counted" 1 (Counter.get c Overload.ecn_mark_counter);
  (* Draining below the watermark clears the bit. *)
  ignore (Switch.pop s ~port:2);
  check_bool "cleared" false (Switch.port_marked s ~port:2)

(* --- weighted fair share at the gate --- *)

let test_fair_gate_protects_victim () =
  let c = Counter.create_set () in
  let fair = Overload.Weighted_buckets.create ~counters:c ~period:1_000L ~burst:2 () in
  Overload.Weighted_buckets.set_weight fair ~key:2 8;
  let s = Switch.create ~counters:c ~port_capacity:64 ~fair () in
  List.iter (fun id -> ignore (Switch.add_port s ~id)) [ 1; 2; 3 ];
  Mac.learn (Switch.mac_table s) ~now:0L ~mac:3 ~port:3;
  (* An aggressor burst at one instant: burst tokens then the gate. *)
  let delivered = ref 0 in
  for _ = 1 to 10 do
    let d = Switch.forward s ~now:0L ~in_port:1 (pkt ~src:1 ~dst:3 ()) in
    delivered := !delivered + d.Switch.enqueued
  done;
  check_int "aggressor clipped to burst" 2 !delivered;
  check_int "sheds counted" 8 (Counter.get c Overload.fair_shed_counter);
  (* The weighted victim refills 8x faster and is all admitted. *)
  let ok = ref 0 in
  for i = 0 to 7 do
    let now = Int64.of_int (i * 125) in
    let d = Switch.forward s ~now ~in_port:2 (pkt ~src:2 ~dst:3 ()) in
    ok := !ok + d.Switch.enqueued
  done;
  check_int "victim untouched" 8 !ok

(* --- ring drop accounting split (the E17 bugfix) --- *)

let test_ring_drop_split () =
  let r = Ring.create ~capacity:2 () in
  let req = ref 0 and resp = ref 0 in
  Ring.on_request_drop r (fun () -> incr req);
  Ring.on_response_drop r (fun () -> incr resp);
  check_bool "fills" true (Ring.push_request r 1 && Ring.push_request r 2);
  (* A refused request is producer back-pressure (the frontend holds
     the payload and retries) — it must not hit the response hook. *)
  check_bool "third refused" false (Ring.push_request r 3);
  check_int "request hook" 1 !req;
  check_int "response hook untouched" 0 !resp;
  check_bool "resp fills" true (Ring.push_response r 1 && Ring.push_response r 2);
  check_bool "resp refused" false (Ring.push_response r 3);
  check_int "response hook" 1 !resp;
  check_int "request hook unchanged" 1 !req;
  check_int "request drops" 1 (Ring.request_dropped_total r);
  check_int "response drops" 1 (Ring.response_dropped_total r);
  check_int "combined" 2 (Ring.dropped_total r)

(* --- per-flow order preservation --- *)

let prop_per_flow_order =
  QCheck.Test.make ~name:"switch preserves per-source order to a port" ~count:100
    QCheck.(list_of_size Gen.(1 -- 80) (int_range 1 3))
    (fun srcs ->
      (* Interleave sends from sources 1-3 to port 4 in the generated
         order; each source's packets carry an ascending seq in [tag]. *)
      let s = Switch.create ~port_capacity:128 () in
      List.iter (fun id -> ignore (Switch.add_port s ~id)) [ 1; 2; 3; 4 ];
      Mac.learn (Switch.mac_table s) ~now:0L ~mac:4 ~port:4;
      let seqs = Hashtbl.create 4 in
      List.iter
        (fun src ->
          let seq = Option.value ~default:0 (Hashtbl.find_opt seqs src) in
          Hashtbl.replace seqs src (seq + 1);
          ignore
            (Switch.forward s ~now:0L ~in_port:src
               { Vnet.src; dst = 4; len = 64; tag = (src * 10_000) + seq }))
        srcs;
      let last = Hashtbl.create 4 in
      let ordered = ref true in
      let rec drain () =
        match Switch.pop s ~port:4 with
        | None -> ()
        | Some p ->
            let src = p.Vnet.tag / 10_000 and seq = p.Vnet.tag mod 10_000 in
            (match Hashtbl.find_opt last src with
            | Some prev when prev >= seq -> ordered := false
            | _ -> ());
            Hashtbl.replace last src seq;
            drain ()
      in
      drain ();
      !ordered)

(* --- steady-state forward: exact cycles, no allocation --- *)

(* Once every station is learned and every flow installed, a forward is
   one flow-cache hit plus one enqueue: exactly the published cycle
   constants, no minor-heap words (interned counter ids, preallocated
   ring slots), and the delivery record is the switch's own scratch. *)
let test_steady_forward () =
  List.iter
    (fun guests ->
      let burned = ref 0 in
      let s =
        Switch.create ~counters:(Counter.create_set ())
          ~burn:(fun c -> burned := !burned + c)
          ()
      in
      for id = 1 to guests do
        ignore (Switch.add_port s ~id)
      done;
      let fwd src =
        let dst = (src mod guests) + 1 in
        let d =
          Switch.forward_to s ~now:0L ~in_port:src ~src ~dst ~len:512
            ~tag:((dst * 1_000_000) + (src * 10_000))
        in
        ignore (Switch.discard s ~port:dst);
        d
      in
      (* The first ring learns every station, the second installs every
         (src, next) flow. *)
      for _ = 1 to 2 do
        for src = 1 to guests do
          ignore (fwd src)
        done
      done;
      let scratch = fwd 1 in
      burned := 0;
      let packets = 2_000 in
      let words =
        Alloc.minor_words (fun () ->
            for i = 0 to packets - 1 do
              ignore (fwd ((i mod guests) + 1))
            done)
      in
      let label = Printf.sprintf "%d guests: " guests in
      Alcotest.(check (float 0.0)) (label ^ "minor words") 0.0 words;
      check_int (label ^ "cycles")
        (packets * (Vnet.flow_hit_cost + Vnet.enqueue_cost))
        !burned;
      check_bool (label ^ "scratch reused") true (fwd 1 == scratch))
    [ 2; 4; 8 ]

(* --- end-to-end replay (also the alloc_pages/grant-collision
   regression: the Uk pairwise boot maps IPC grant items into the
   receiver's space ahead of the allocator) --- *)

let test_replay_vmm () =
  let a = E17.pairwise ~stack:E17.Vmm ~guests:2 ~count:6 in
  let b = E17.pairwise ~stack:E17.Vmm ~guests:2 ~count:6 in
  check_int "all delivered" 6 (E17.received a);
  check_bool "bit-for-bit" true (E17.digest a = E17.digest b)

let test_replay_uk () =
  let a = E17.pairwise ~stack:E17.Uk ~guests:2 ~count:6 in
  let b = E17.pairwise ~stack:E17.Uk ~guests:2 ~count:6 in
  check_int "all delivered" 6 (E17.received a);
  check_bool "bit-for-bit" true (E17.digest a = E17.digest b)

let suite =
  [
    Alcotest.test_case "mac: learn, age, move" `Quick test_mac_learning;
    Alcotest.test_case "flows: hit/miss/evict/invalidate" `Quick
      test_flow_cache_accounting;
    Alcotest.test_case "switch: broadcast floods" `Quick test_broadcast_flood;
    Alcotest.test_case "switch: unknown unicast drops" `Quick
      test_unknown_unicast_drops;
    Alcotest.test_case "switch: bounded port rejects" `Quick
      test_bounded_port_rejects;
    Alcotest.test_case "switch: ecn watermark" `Quick test_ecn_watermark;
    Alcotest.test_case "switch: weighted fair gate" `Quick
      test_fair_gate_protects_victim;
    Alcotest.test_case "ring: request/response drop split" `Quick
      test_ring_drop_split;
    Alcotest.test_case "switch: steady forward is exact and allocation-free"
      `Quick test_steady_forward;
    QCheck_alcotest.to_alcotest prop_per_flow_order;
    Alcotest.test_case "e17: replay (vmm)" `Quick test_replay_vmm;
    Alcotest.test_case "e17: replay (uk)" `Quick test_replay_uk;
  ]
