(* E17: the inter-guest communication fabric. N mini-OS instances on
   one machine exchange vnet-addressed packets through the two stack
   realizations of the {!Vmk_vnet} switch:

   - Xen-style: a privileged Dom0 software bridge ({!Bridge}). Every
     packet crosses Dom0 twice on the split-driver primitives —
     netfront tx ring → netback grant-map → switch, then switch →
     destination netback → grant flip → netfront rx ring — with an
     event channel and upcall at each crossing.
   - L4-style: the net server is only a connection broker
     ({!Net_server} [~vnet:true]). A guest kernel resolves a peer once
     ({!Proto.vnet_lookup}, flow-cache → MAC-table), opens it once
     (map/grant item), and the data path is then a direct gk → gk IPC
     call per packet — no intermediary.

   The comparison is the paper's §4 relay-tax argument at fabric
   granularity: cycles per delivered packet charged to the privileged
   intermediary (bridge + hypervisor vs broker + kernel), privileged
   transitions per packet, and how often the middleman touches a
   packet at all (every packet on Xen, once per connection on L4).

   Satellites measured here too: the switch flow cache's hit-ratio /
   cycles-per-decision sweep, per-sender weighted fair-share admission
   under an aggressor ({!Overload.Weighted_buckets} at the bridge
   gate), ECN-style early marks pacing senders before drops on both
   stacks, the E14 8-core storm composition, and the replay digests of
   the full fabric. *)

module Table = Vmk_stats.Table
module Machine = Vmk_hw.Machine
module Counter = Vmk_trace.Counter
module Accounts = Vmk_trace.Accounts
module Overload = Vmk_overload.Overload
module Vnet = Vmk_vnet.Vnet
module Net_server = Vmk_ukernel.Net_server
module Cluster = Vmk_ukernel.Smp_cluster
module Bridge = Vmk_vmm.Bridge
module Svmm = Vmk_vmm.Smp_vmm
module Sys = Vmk_guest.Sys

type stack = Vmm | Uk

let stack_label = function Vmm -> "vmm" | Uk -> "uk"
let guest_counts = [ 2; 4; 8 ]
let sender_pace = 8_000

type run = {
  sent : int;
  received : int;
  fab_cycles : int64;  (** Intermediary + privileged-kernel cycles. *)
  cyc_pkt : float;
  trans_pkt : float;  (** Privileged transitions per delivered packet. *)
  touches_pkt : float;  (** Middleman involvements per delivered packet. *)
  decisions : int;  (** Switch/broker forwarding decisions (hit + miss). *)
  marks : int;
  backoffs : int;
  vnet_drops : int;
  fair_sheds : int;
  per_src : (int * int) list;  (** Delivered packets grouped by source. *)
  digest : string;
      (** Replay digest: the machine plus the sent count and every
          arrival. *)
}

let per_src_of arrivals =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (tag, _) ->
      let src = Sys.vnet_src tag in
      Hashtbl.replace tbl src
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl src)))
    arrivals;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let summarize stack (f : Scenario.fabric) =
  let mach = f.fab_mach and sent = f.fab_tx.completed in
  let arrivals = f.fab_arrivals in
  let c = mach.Machine.counters and a = mach.Machine.accounts in
  let received = List.length arrivals in
  (* The fabric's bill: what the packet's *intermediaries* cost — the
     relay component plus the privileged kernel carrying its
     transitions. Guest-side endpoint work (netfront vs the guest
     kernel's vnet code) is charged to the guests on both stacks and
     excluded symmetrically. *)
  let fab_cycles =
    match stack with
    | Vmm ->
        Int64.add (Accounts.balance a Bridge.name) (Accounts.balance a "vmm")
    | Uk ->
        Int64.add
          (Accounts.balance a Net_server.account)
          (Accounts.balance a "ukernel")
  in
  let transitions =
    match stack with
    | Vmm -> Counter.get c "vmm.hypercall" + Counter.get c "vmm.upcall"
    | Uk -> Counter.get c "uk.syscall"
  in
  let decisions =
    Counter.get c "vnet.flow_hit" + Counter.get c "vnet.flow_miss"
  in
  (* How often the middleman handles a packet: on Xen the bridge takes
     every packet in (netback tx) and out (rx delivery); on L4 the
     broker is touched only for lookups and attaches. *)
  let touches =
    match stack with
    | Vmm -> Counter.get c "netback.tx_packets" + received
    | Uk -> decisions + Counter.get c "drv.net.vnet_attach"
  in
  let per_pkt n =
    if received = 0 then 0.0 else float_of_int n /. float_of_int received
  in
  {
    sent;
    received;
    fab_cycles;
    cyc_pkt =
      (if received = 0 then 0.0
       else Int64.to_float fab_cycles /. float_of_int received);
    trans_pkt = per_pkt transitions;
    touches_pkt = per_pkt touches;
    decisions;
    marks = Counter.get c Overload.ecn_mark_counter;
    backoffs = Counter.get c Overload.ecn_backoff_counter;
    vnet_drops = Counter.get c "vnet.drop";
    fair_sheds = Counter.get c Overload.fair_shed_counter;
    per_src = per_src_of arrivals;
    digest =
      Machine.digest mach
        (Printf.sprintf "sent %d" sent :: Scenario.arrival_lines arrivals);
  }

(* All-to-all: [rounds] rounds, one packet sent and one received per
   guest per round. The destination rotates through the odd cyclic
   shifts, so every round's send pattern is a permutation (each guest
   receives exactly one packet) that always crosses parity classes —
   even ports send first, odd ports receive first, so on the L4 stack a
   call-blocked sender always finds a receptive peer down the chain. *)
let all_to_all (f : Scenario.fabric) ~port ~guests ~rounds ~pace () =
  let shifts =
    List.filter (fun s -> s mod 2 = 1) (List.init (guests - 1) (fun i -> i + 1))
  in
  let nshifts = List.length shifts in
  let tx = f.fab_tx in
  let recv = Scenario.fabric_receiver f ~packets:1 ~work:0 in
  Sys.burn Scenario.fabric_settle;
  for r = 0 to rounds - 1 do
    let s = List.nth shifts (r mod nshifts) in
    let dst = (((port - 1) + s) mod guests) + 1 in
    let send () =
      try
        Sys.net_send ~len:Scenario.fabric_packet_len
          ~tag:(Sys.vnet_tag ~src:port ~dst ~seq:r);
        tx.completed <- tx.completed + 1
      with Sys.Sys_error _ -> ()
    in
    if port mod 2 = 0 then begin
      send ();
      recv ()
    end
    else begin
      recv ();
      send ()
    end;
    if pace > 0 then Sys.burn pace
  done;
  try Sys.net_drain () with Sys.Sys_error _ -> ()

let fabric ~stack ~guests ?mark_at apps =
  match stack with
  | Vmm -> summarize Vmm (Scenario.fabric_xen ~guests ?mark_at ~apps ())
  | Uk ->
      summarize Uk
        (Scenario.fabric_l4 ~guests ?mark_at ~apps:(fun f _ -> apps f) ())

(* --- traffic plans --- *)

let pairwise ~stack ~guests ~count =
  fabric ~stack ~guests (fun f ->
      List.init guests (fun i ->
          let port = i + 1 in
          if port mod 2 = 1 then
            Scenario.fabric_sender f ~src:port ~dst:(port + 1) ~count
              ~pace:sender_pace
          else Scenario.fabric_receiver f ~packets:count ~work:0))

let all2all ~stack ~guests ~rounds =
  fabric ~stack ~guests (fun f ->
      List.init guests (fun i ->
          all_to_all f ~port:(i + 1) ~guests ~rounds ~pace:sender_pace))

(* --- satellite scenarios --- *)

(* Fair share at the bridge gate: an aggressor and a paced victim both
   transmit to one slow receiver behind a short port queue. Without the
   weighted gate the aggressor keeps the queue full, so the victim's
   paced packets land on a full queue and are rejected; with the gate
   (victim weighted 8:1, refill slower than the drain rate) the
   aggressor is shed before the queue and the victim's share is
   restored (E15's policy argument applied at the fabric shed point). *)
let fairness ~count ~fair =
  let aggressor_count = 4 * count in
  let recv_work = 1_000_000 in
  let mk_fair mach =
    let f =
      Overload.Weighted_buckets.create ~counters:mach.Machine.counters
        ~period:400_000L ~burst:8 ()
    in
    Overload.Weighted_buckets.set_weight f ~key:2 8;
    f
  in
  let apps f =
    [
      Scenario.fabric_sender f ~src:1 ~dst:3 ~count:aggressor_count ~pace:1_500;
      Scenario.fabric_sender f ~src:2 ~dst:3 ~count ~pace:50_000;
      Scenario.fabric_receiver f ~packets:(aggressor_count + count)
        ~work:recv_work;
    ]
  in
  summarize Vmm
    (Scenario.fabric_xen ~guests:3 ~port_capacity:16
       ?mk_fair:(if fair then Some mk_fair else None)
       ~apps ())

let delivered_from r src =
  Option.value ~default:0 (List.assoc_opt src r.per_src)

let digest r = r.digest
let received r = r.received

(* ECN: one fast sender into one slow receiver, with and without the
   high-watermark mark bit. Marks ride back on the tx completion (Xen)
   or the IPC reply (L4) and pace the sender before the queue
   overflows, so rejections fall. The flood must outrun both the
   receiver's 32 posted buffers and the watermark, so the packet count
   is scaled up from the base [count]; the port queue is widened so
   the unmarked control run backs up without rejections. *)
let ecn ~stack ~count ~on =
  let count = 4 * count in
  let mark_at = if on then Some 8 else None in
  (* On the Xen side the burst between two receiver pump points must
     exceed the ring's 32 posted buffers before the switch queue backs
     up, so the sender is unpaced and the receiver much slower; the L4
     endpoint queue sits directly behind the receiving guest kernel and
     congests at gentler settings. *)
  let pace, work =
    match stack with Vmm -> (0, 1_000_000) | Uk -> (500, 20_000)
  in
  let apps f =
    [
      Scenario.fabric_sender f ~src:1 ~dst:2 ~count ~pace;
      Scenario.fabric_receiver f ~packets:count ~work;
    ]
  in
  match stack with
  | Vmm ->
      summarize Vmm
        (Scenario.fabric_xen ~guests:2 ?mark_at ~port_capacity:128 ~apps ())
  | Uk -> fabric ~stack ~guests:2 ?mark_at apps

(* Flow-cache sweep on the raw switch: 8 stations, a hot partner ring
   (3 of 4 packets) plus rotating cold destinations, under FIFO
   eviction. Capacity below the hot set thrashes; capacity above the
   whole active set converges to hits. *)
let flow_sweep ~caps ~rounds =
  List.map
    (fun cap ->
      let burned = ref 0 in
      let sw =
        Vnet.Switch.create
          ~burn:(fun n -> burned := !burned + n)
          ~flow_capacity:cap ~port_capacity:256 ()
      in
      for p = 1 to 8 do
        ignore (Vnet.Switch.add_port sw ~id:p)
      done;
      let mt = Vnet.Switch.mac_table sw in
      for p = 1 to 8 do
        Vnet.Mac_table.learn mt ~now:0L ~mac:p ~port:p
      done;
      let decisions = ref 0 in
      let tick = ref 0 in
      for _r = 1 to rounds do
        for p = 1 to 8 do
          for j = 0 to 3 do
            let hot = (p mod 8) + 1 in
            let dst =
              if j < 3 then hot else (((p + 1) + (!tick mod 6)) mod 8) + 1
            in
            let dst = if dst = p then (dst mod 8) + 1 else dst in
            incr tick;
            ignore
              (Vnet.Switch.forward sw
                 ~now:(Int64.of_int (!tick * 50))
                 ~in_port:p
                 { Vnet.src = p; dst; len = 64; tag = 0 });
            incr decisions;
            ignore (Vnet.Switch.pop sw ~port:dst)
          done
        done
      done;
      let fc = Vnet.Switch.flow_cache sw in
      ( cap,
        Vnet.Flow_cache.hit_ratio fc,
        float_of_int !burned /. float_of_int !decisions ))
    caps

(* E14 composition: the 8-core storm (colocated microkernel cluster,
   driver-domain VMM) with E16's coalescing factor — the fabric rides
   on the same placement substrate, which must keep composing. *)
let storm_layout = function
  | Uk -> Scenario.Smp_uk Cluster.Colocated
  | Vmm -> Scenario.Smp_vmm Svmm.Driver_domains

let irq_cycles (s : Scenario.smp_storm) =
  Accounts.balance s.mach.Machine.accounts "smp.irq"

(* --- the experiment --- *)

let experiment =
  {
    Experiment.id = "e17";
    title = "Inter-guest fabric: Dom0 bridge vs direct IPC channels";
    paper_claim =
      "Inter-VM communication through a Dom0 software bridge pays the relay \
       tax on every packet — two privileged crossings, grant map/flip work, \
       event channels — where a microkernel needs the net server only to \
       broker connection setup, after which data moves by direct \
       guest-to-guest IPC; the structural gap should show in cycles and \
       privileged transitions per packet and grow with the number of \
       communicating guests.";
    run =
      (fun ~quick ->
        let count = if quick then 24 else 60 in
        let rounds = if quick then 16 else 40 in
        let sweep =
          List.map
            (fun n ->
              ( n,
                List.map
                  (fun s -> (s, pairwise ~stack:s ~guests:n ~count))
                  [ Vmm; Uk ] ))
            guest_counts
        in
        let pw n s = List.assoc s (List.assoc n sweep) in
        let a2a =
          List.map (fun s -> (s, all2all ~stack:s ~guests:8 ~rounds)) [ Vmm; Uk ]
        in
        let fair_off = fairness ~count ~fair:false in
        let fair_on = fairness ~count ~fair:true in
        let ecns =
          List.map
            (fun s ->
              (s, (ecn ~stack:s ~count ~on:false, ecn ~stack:s ~count ~on:true)))
            [ Vmm; Uk ]
        in
        let flows =
          flow_sweep ~caps:[ 4; 16; 64 ] ~rounds:(if quick then 4 else 8)
        in
        let storm_packets = if quick then 240 else 640 in
        let storms =
          List.map
            (fun kind ->
              ( kind,
                List.map
                  (fun c ->
                    ( c,
                      Scenario.run_smp ~seed:17L ~coalesce:c (storm_layout kind)
                        ~cores:8 ~packets:storm_packets ))
                  [ 1; 8 ] ))
            [ Uk; Vmm ]
        in
        (* --- tables --- *)
        let sweep_table =
          let t =
            Table.create
              ~header:
                [
                  "guests";
                  "stack";
                  "sent";
                  "rcvd";
                  "fabric kcyc";
                  "cyc/pkt";
                  "trans/pkt";
                  "touches/pkt";
                  "decisions";
                ]
          in
          List.iter
            (fun n ->
              List.iter
                (fun s ->
                  let r = pw n s in
                  Table.add_row t
                    [
                      string_of_int n;
                      stack_label s;
                      string_of_int r.sent;
                      string_of_int r.received;
                      Table.cellf "%.0f" (Int64.to_float r.fab_cycles /. 1e3);
                      Table.cellf "%.0f" r.cyc_pkt;
                      Table.cellf "%.1f" r.trans_pkt;
                      Table.cellf "%.2f" r.touches_pkt;
                      string_of_int r.decisions;
                    ])
                [ Vmm; Uk ])
            guest_counts;
          t
        in
        let a2a_table =
          let t =
            Table.create
              ~header:
                [
                  "stack";
                  "sent";
                  "rcvd";
                  "cyc/pkt";
                  "trans/pkt";
                  "touches/pkt";
                  "decisions";
                ]
          in
          List.iter
            (fun (s, r) ->
              Table.add_row t
                [
                  stack_label s;
                  string_of_int r.sent;
                  string_of_int r.received;
                  Table.cellf "%.0f" r.cyc_pkt;
                  Table.cellf "%.1f" r.trans_pkt;
                  Table.cellf "%.2f" r.touches_pkt;
                  string_of_int r.decisions;
                ])
            a2a;
          t
        in
        let flow_table =
          let t =
            Table.create
              ~header:[ "flow-cache cap"; "hit ratio"; "cyc/decision" ]
          in
          List.iter
            (fun (cap, ratio, cyc) ->
              Table.add_row t
                [
                  string_of_int cap;
                  Table.cellf "%.2f" ratio;
                  Table.cellf "%.0f" cyc;
                ])
            flows;
          t
        in
        let fair_table =
          let t =
            Table.create
              ~header:
                [
                  "gate";
                  "aggr rcvd";
                  "victim rcvd";
                  "victim share";
                  "fair sheds";
                  "vnet drops";
                ]
          in
          List.iter
            (fun (label, r) ->
              Table.add_row t
                [
                  label;
                  string_of_int (delivered_from r 1);
                  string_of_int (delivered_from r 2);
                  Table.cellf "%.2f"
                    (float_of_int (delivered_from r 2)
                    /. float_of_int (max 1 count));
                  string_of_int r.fair_sheds;
                  string_of_int r.vnet_drops;
                ])
            [ ("fifo", fair_off); ("weighted", fair_on) ];
          t
        in
        let ecn_table =
          let t =
            Table.create
              ~header:
                [ "stack"; "ecn"; "rcvd"; "marks"; "backoffs"; "vnet drops" ]
          in
          List.iter
            (fun (s, (off, on)) ->
              List.iter
                (fun (label, r) ->
                  Table.add_row t
                    [
                      stack_label s;
                      label;
                      string_of_int r.received;
                      string_of_int r.marks;
                      string_of_int r.backoffs;
                      string_of_int r.vnet_drops;
                    ])
                [ ("off", off); ("on", on) ])
            ecns;
          t
        in
        let storm_table =
          let t =
            Table.create
              ~header:
                [ "config"; "coalesce"; "completed"; "wall kcyc"; "irq kcyc" ]
          in
          List.iter
            (fun (kind, runs) ->
              List.iter
                (fun (c, s) ->
                  Table.add_row t
                    [
                      Scenario.smp_label (storm_layout kind);
                      string_of_int c;
                      string_of_int s.Scenario.delivered;
                      Table.cellf "%.0f" (Int64.to_float s.wall /. 1e3);
                      Table.cellf "%.0f" (Int64.to_float (irq_cycles s) /. 1e3);
                    ])
                runs)
            storms;
          t
        in
        (* --- verdicts --- *)
        let relay_tax_everywhere =
          List.for_all (fun n -> (pw n Vmm).cyc_pkt > (pw n Uk).cyc_pkt)
            guest_counts
        in
        let gap n = Int64.sub (pw n Vmm).fab_cycles (pw n Uk).fab_cycles in
        let gap_widens =
          Int64.compare (gap 4) (gap 2) > 0 && Int64.compare (gap 8) (gap 4) > 0
        in
        let a2a_vmm = List.assoc Vmm a2a and a2a_uk = List.assoc Uk a2a in
        (* Judged on the request-response pattern: one-way streaming
           lets the bridge amortize notifications over deep tx batches
           (an honest win for the relay, reported in the table), but
           once guests both send and receive each round the per-packet
           upcall/hypercall pair comes back. *)
        let transitions_gap = a2a_vmm.trans_pkt > a2a_uk.trans_pkt in
        let broker_amortized =
          (pw 8 Vmm).touches_pkt >= 1.5
          && (pw 8 Uk).touches_pkt < 0.5
          && a2a_uk.touches_pkt < 0.5
        in
        let flow_monotone =
          match flows with
          | [ (_, r1, c1); (_, r2, c2); (_, r3, c3) ] ->
              r1 < r2 && r2 < r3 && c1 > c2 && c2 > c3
          | _ -> false
        in
        let fair_restores =
          delivered_from fair_on 2 > delivered_from fair_off 2
          && fair_on.fair_sheds > 0
        in
        let ecn_paces =
          List.for_all
            (fun (_, (off, on)) ->
              on.marks > 0 && on.backoffs > 0 && on.vnet_drops <= off.vnet_drops)
            ecns
        in
        let storm_get kind c = List.assoc c (List.assoc kind storms) in
        let composes kind =
          let c1 = storm_get kind 1 and c8 = storm_get kind 8 in
          c8.Scenario.delivered = c1.Scenario.delivered
          && Int64.compare (irq_cycles c8) (irq_cycles c1) < 0
          && Int64.compare c8.wall c1.wall <= 0
        in
        let verdicts =
          [
            Experiment.verdict
              ~claim:"The Dom0 bridge pays the relay tax on every packet"
              ~expected:
                "inter-guest fabric cycles/packet higher on the Xen bridge \
                 than on L4 direct IPC at every guest count (pairwise, flows \
                 established)"
              ~measured:
                (String.concat "; "
                   (List.map
                      (fun n ->
                        Printf.sprintf "%d guests: vmm %.0f vs uk %.0f" n
                          (pw n Vmm).cyc_pkt (pw n Uk).cyc_pkt)
                      guest_counts))
              relay_tax_everywhere;
            Experiment.verdict
              ~claim:"The structural cost gap grows with communicating guests"
              ~expected:
                "aggregate fabric-cycle gap (vmm - uk) strictly increasing \
                 from 2 to 4 to 8 guests"
              ~measured:
                (Printf.sprintf "gap kcyc: %.0f -> %.0f -> %.0f"
                   (Int64.to_float (gap 2) /. 1e3)
                   (Int64.to_float (gap 4) /. 1e3)
                   (Int64.to_float (gap 8) /. 1e3))
              gap_widens;
            Experiment.verdict
              ~claim:"Direct channels need fewer privileged transitions"
              ~expected:
                "privileged transitions per delivered packet lower on L4 than \
                 on the Xen bridge for all-to-all request-response traffic \
                 (one-way streaming lets the bridge batch notifications)"
              ~measured:
                (Printf.sprintf
                   "pairwise: vmm %.1f vs uk %.1f; all-to-all: vmm %.1f vs uk \
                    %.1f"
                   (pw 8 Vmm).trans_pkt (pw 8 Uk).trans_pkt a2a_vmm.trans_pkt
                   a2a_uk.trans_pkt)
              transitions_gap;
            Experiment.verdict
              ~claim:"The L4 broker is amortized over connections, not packets"
              ~expected:
                "middleman touches/packet ~2 on the bridge vs < 0.5 on L4 \
                 (lookups + attaches only)"
              ~measured:
                (Printf.sprintf
                   "pairwise-8: vmm %.2f vs uk %.2f; all-to-all: uk %.2f"
                   (pw 8 Vmm).touches_pkt (pw 8 Uk).touches_pkt
                   a2a_uk.touches_pkt)
              broker_amortized;
            Experiment.verdict
              ~claim:"The flow cache converts forwarding state into cycles"
              ~expected:
                "hit ratio strictly rising and cycles/decision strictly \
                 falling with flow-cache capacity 4 -> 16 -> 64"
              ~measured:
                (String.concat "; "
                   (List.map
                      (fun (cap, r, c) ->
                        Printf.sprintf "cap %d: %.2f @ %.0f cyc" cap r c)
                      flows))
              flow_monotone;
            Experiment.verdict
              ~claim:
                "Weighted fair-share admission protects a victim flow (E15)"
              ~expected:
                "victim packets delivered strictly higher with the weighted \
                 gate; aggressor sheds counted under overload.fair.shed"
              ~measured:
                (Printf.sprintf
                   "victim %d/%d -> %d/%d delivered; fair sheds %d"
                   (delivered_from fair_off 2) count (delivered_from fair_on 2)
                   count
                   fair_on.fair_sheds)
              fair_restores;
            Experiment.verdict
              ~claim:"ECN marks pace senders before drops (both stacks)"
              ~expected:
                "with the watermark armed: marks > 0, sender backoffs > 0, \
                 and vnet rejections no worse than unmarked"
              ~measured:
                (String.concat "; "
                   (List.map
                      (fun (s, (off, on)) ->
                        Printf.sprintf "%s: %d marks, %d backoffs, drops %d->%d"
                          (stack_label s) on.marks on.backoffs off.vnet_drops
                          on.vnet_drops)
                      ecns))
              ecn_paces;
            Experiment.verdict
              ~claim:"The fabric composes with E14 placement and E16 mitigation"
              ~expected:
                "8-core storm at coalesce 8: same packets completed, fewer \
                 IRQ-entry cycles, wall no worse, on both structures"
              ~measured:
                (Printf.sprintf
                   "uk wall %.0fk -> %.0fk; vmm wall %.0fk -> %.0fk"
                   (Int64.to_float (storm_get Uk 1).wall /. 1e3)
                   (Int64.to_float (storm_get Uk 8).wall /. 1e3)
                   (Int64.to_float (storm_get Vmm 1).wall /. 1e3)
                   (Int64.to_float (storm_get Vmm 8).wall /. 1e3))
              (composes Uk && composes Vmm);
          ]
        in
        {
          Experiment.tables =
            [
              ("Pairwise sweep: fabric cost per delivered packet", sweep_table);
              ("All-to-all at 8 guests", a2a_table);
              ("Flow-cache capacity sweep (raw switch, 8 stations)", flow_table);
              ("Fair share under an aggressor (bridge gate)", fair_table);
              ("ECN watermark pacing", ecn_table);
              ("E14 composition: 8-core storm with coalescing", storm_table);
              Experiment.digests
                (List.map
                   (fun s ->
                     ( Printf.sprintf "%s pairwise, 8 guests" (stack_label s),
                       (pw 8 s).digest ))
                   [ Vmm; Uk ]);
            ];
          verdicts;
        });
  }
