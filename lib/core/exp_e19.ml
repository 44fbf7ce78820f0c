(* E19: the capability layer under revocation storms. Both stacks now
   route their delegation machinery through {!Vmk_cap.Cap} — the
   microkernel's map-item delegations and the VMM's grant/map entries
   are nodes in one explicit derivation tree per object — so recursive
   revocation is a single mechanism with a measurable price:

   - Depth sweep: a delegation chain of d hops (uk: map items relayed
     thread-to-thread; vmm: grant -> map -> transitive re-grant ->
     map -> ...) is torn down by one revoke at the root. Teardown
     cycles, capabilities removed and forced unmaps as a function of
     derivation depth — the paper's §2/§4 resource-control story
     extended to the cost of taking rights *back*.

   - Revocation storm: the E17 fabric serves pairwise vnet traffic
     while a misbehaving party has its delegated rights recursively
     revoked mid-run — the broker severs a guest's session-cap chain
     (uk), a frame owner cuts down a live 3-deep transitive grant chain
     (vmm). Measured: the victim is really cut off, the innocent
     guests' p99 inter-arrival latency moves (or does not), privileged
     transitions added, and the replay digests of both storms. *)

module Table = Vmk_stats.Table
module Machine = Vmk_hw.Machine
module Addr = Vmk_hw.Addr
module Counter = Vmk_trace.Counter
module Kernel = Vmk_ukernel.Kernel
module Sysif = Vmk_ukernel.Sysif
module Proto = Vmk_ukernel.Proto
module Hypervisor = Vmk_vmm.Hypervisor
module Hcall = Vmk_vmm.Hcall
module Port_l4 = Vmk_guest.Port_l4
module Sys = Vmk_guest.Sys
module Apps = Vmk_workloads.Apps

let depths = [ 1; 2; 3; 4; 5; 6 ]
let sender_pace = 8_000
let storm_guests = 6
let storm_chain_depth = 3

(* --- depth sweep result --- *)

type chain = {
  ch_depth : int;
  ch_removed : int;  (** Capabilities torn down by the root revoke. *)
  ch_forced : int;  (** Grant mappings force-unmapped (vmm only). *)
  ch_transitive : int;  (** Transitive re-grants in the chain (vmm only). *)
  ch_teardown : int64;  (** Cycles of the revoke call itself. *)
  ch_severed : int;  (** Delegates that observed their rights gone. *)
  ch_counters : (string * int) list;
}

let cyc_per_cap c =
  if c.ch_removed = 0 then 0.0
  else Int64.to_float c.ch_teardown /. float_of_int c.ch_removed

(* --- microkernel chain: map items relayed thread to thread --- *)

(* thread 0 allocs a page (minting its root cap) and delegates it to
   thread 1 as a map item; each link touches the window and relays the
   same map item to the next link, deriving one child capability per
   hop. One [Sysif.unmap] at the root then revokes the whole chain
   through the derivation tree; every link's subsequent touch must
   page-fault. *)
let uk_chain ~depth =
  let mach = Machine.create ~seed:71L () in
  let k = Kernel.create mach in
  let counters = mach.Machine.counters in
  let teardown = ref 0L and removed = ref 0 and severed = ref 0 in
  let chain_tids = Array.make (depth + 1) 0 in
  (* Spawn links last-to-first so each closure knows its successor. *)
  for i = depth downto 1 do
    let next = if i < depth then Some chain_tids.(i + 1) else None in
    chain_tids.(i) <-
      Kernel.spawn k
        ~name:(Printf.sprintf "link%d" i)
        ~priority:3 ~account:"link"
        (fun () ->
          let _src, m = Sysif.recv Sysif.Any in
          let root = (Sysif.words m).(0) in
          let fpage, _ = List.hd (Sysif.map_items m) in
          let addr = Addr.of_vpn fpage.Sysif.base_vpn in
          Sysif.touch ~addr ~len:8 ~write:true;
          (match next with
          | Some nxt ->
              Sysif.send nxt
                (Sysif.msg 1
                   ~items:
                     [
                       Sysif.Words [| root |];
                       Sysif.Map { fpage; grant = false };
                     ])
          | None -> Sysif.send root (Sysif.msg 2));
          (* Wait for the root's post-revoke probe signal. *)
          let _ = Sysif.recv Sysif.Any in
          try Sysif.touch ~addr ~len:8 ~write:false
          with Sysif.Ipc_error (Sysif.Page_fault_unhandled _) -> incr severed)
  done;
  let _root =
    Kernel.spawn k ~name:"root" ~priority:2 ~account:"root" (fun () ->
        let fp = Sysif.alloc_pages 1 in
        let me = Sysif.my_tid () in
        Sysif.send chain_tids.(1)
          (Sysif.msg 1
             ~items:
               [ Sysif.Words [| me |]; Sysif.Map { fpage = fp; grant = false } ]);
        (* The last link reports the chain complete. *)
        let _ = Sysif.recv Sysif.Any in
        let before = Machine.now mach in
        let r0 = Counter.get counters "cap.revoked" in
        Sysif.unmap fp;
        teardown := Int64.sub (Machine.now mach) before;
        removed := Counter.get counters "cap.revoked" - r0;
        for i = 1 to depth do
          Sysif.send chain_tids.(i) (Sysif.msg 3)
        done)
  in
  ignore (Kernel.run k);
  {
    ch_depth = depth;
    ch_removed = !removed;
    ch_forced = 0;
    ch_transitive = 0;
    ch_teardown = !teardown;
    ch_severed = !severed;
    ch_counters = Counter.to_list counters;
  }

(* --- VMM chain: grant -> map -> transitive re-grant, d deep --- *)

(* The owner grants a frame to link 1; each link maps it and re-grants
   the *mapped* frame onward (an E19 transitive grant, whose capability
   derives from the map cap). One [grant_revoke] at the owner then
   force-unmaps the entire chain — every downstream mapping and every
   grant made from one — and every link's retry must see [Bad_gref]. *)
let vmm_chain ~depth =
  let mach = Machine.create ~seed:72L () in
  let h = Hypervisor.create mach in
  let counters = mach.Machine.counters in
  let domids = Array.make (depth + 1) 0 in
  let grefs = Array.make (depth + 1) None in
  let built = ref false and revoked = ref false in
  let teardown = ref 0L and removed = ref 0 in
  let forced = ref 0 and severed = ref 0 in
  let checked = ref 0 in
  let wait cond =
    while not (cond ()) do
      ignore (Hcall.block ~timeout:20_000L ())
    done
  in
  for i = depth downto 1 do
    domids.(i) <-
      Hypervisor.create_domain h
        ~name:(Printf.sprintf "link%d" i)
        (fun () ->
          wait (fun () -> grefs.(i) <> None);
          let gref = Option.get grefs.(i) in
          let frame = Hcall.grant_map ~dom:domids.(i - 1) ~gref in
          if i < depth then
            grefs.(i + 1) <-
              Some (Hcall.grant ~to_dom:domids.(i + 1) ~frame ~readonly:false)
          else built := true;
          wait (fun () -> !revoked);
          (match Hcall.grant_map ~dom:domids.(i - 1) ~gref with
          | _ -> ()
          | exception Hcall.Hcall_error Hcall.Bad_gref -> incr severed);
          incr checked;
          (* Nobody exits before every link has probed its (dead) gref —
             a granter exiting early would turn Bad_gref into a
             dead-domain error. *)
          wait (fun () -> !checked = depth))
  done;
  domids.(0) <-
    Hypervisor.create_domain h ~name:"owner" (fun () ->
        let frame = List.hd (Hcall.alloc_frames 1) in
        let g1 = Hcall.grant ~to_dom:domids.(1) ~frame ~readonly:false in
        grefs.(1) <- Some g1;
        wait (fun () -> !built);
        let before = Machine.now mach in
        let r0 = Counter.get counters "cap.revoked" in
        let f0 = Counter.get counters "gnt.revoke_forced" in
        Hcall.grant_revoke g1;
        teardown := Int64.sub (Machine.now mach) before;
        removed := Counter.get counters "cap.revoked" - r0;
        forced := Counter.get counters "gnt.revoke_forced" - f0;
        revoked := true;
        wait (fun () -> !checked = depth));
  ignore (Hypervisor.run h);
  {
    ch_depth = depth;
    ch_removed = !removed;
    ch_forced = !forced;
    ch_transitive = Counter.get counters "vmm.grant_transitive";
    ch_teardown = !teardown;
    ch_severed = !severed;
    ch_counters = Counter.to_list counters;
  }

(* --- the revocation storm --- *)

type storm = {
  st_innocent_rx : int;  (** Packets delivered between innocent guests. *)
  st_expected : int;  (** What the innocent pairs should deliver. *)
  st_p99_gap : int64;  (** p99 inter-arrival gap across innocent traffic. *)
  st_denied : int;  (** Broker lookups denied post-revocation (uk). *)
  st_victim_failed : int;  (** Victim operations that failed after revoke. *)
  st_removed : int;  (** Caps torn down by the storm's revoke. *)
  st_forced : int;  (** Forced unmaps from the storm's revoke (vmm). *)
  st_transitions : int;  (** Privileged transitions over the whole run. *)
  st_teardown : int64;  (** Revoke span (uk: call round trip; vmm: exact). *)
  st_digest : string;
}

let percentile_gap p times =
  let sorted = List.sort compare times in
  let gaps =
    match sorted with
    | [] -> []
    | first :: rest ->
        let _, acc =
          List.fold_left
            (fun (prev, acc) t -> (t, Int64.sub t prev :: acc))
            (first, []) rest
        in
        List.sort compare acc
  in
  match gaps with
  | [] -> 0L
  | _ ->
      let n = List.length gaps in
      List.nth gaps (min (n - 1) (p * (n - 1) / 100))

let innocent_times arrivals ~innocent =
  List.filter_map
    (fun (tag, at) -> if List.mem (Sys.vnet_src tag) innocent then Some at else None)
    arrivals

(* Pairwise traffic plan shared by both storm realizations: odd ports
   send [count] packets to port+1. Ports 1/2 are the misbehaving pair;
   3->4 and 5->6 are the innocent bystanders. *)
let storm_innocent = [ 3; 5 ]

(* [victim] wraps port 1's sender: the L4 storm follows it with a
   post-revoke burst. *)
let storm_apps f ~count ~victim =
  let send src =
    Scenario.fabric_sender f ~src ~dst:(src + 1) ~count ~pace:sender_pace
  in
  let recv = Scenario.fabric_receiver f ~packets:count ~work:0 in
  [ victim (send 1); recv; send 3; recv; send 5; recv ]

(* Replay digest: the machine, every arrival and the revoke's measured
   outcome. *)
let storm_result (f : Scenario.fabric) ~count ~denied ~victim_failed ~removed
    ~forced ~transitions ~teardown =
  let arrivals = List.sort compare f.fab_arrivals in
  let innocent = innocent_times arrivals ~innocent:storm_innocent in
  let p99_gap = percentile_gap 99 innocent in
  {
    st_innocent_rx = List.length innocent;
    st_expected = 2 * count;
    st_p99_gap = p99_gap;
    st_denied = denied;
    st_victim_failed = victim_failed;
    st_removed = removed;
    st_forced = forced;
    st_transitions = transitions;
    st_teardown = teardown;
    st_digest =
      Machine.digest f.fab_mach
        (Printf.sprintf
           "innocent %d gap %Ld denied %d failed %d removed %d forced %d \
            teardown %Ld"
           (List.length innocent) p99_gap denied victim_failed removed forced
           teardown
        :: Scenario.arrival_lines arrivals);
  }

(* L4 storm: the broker recursively revokes the misbehaving guest's
   session-cap chain mid-run. Phase 1 of the victim's traffic flows
   normally; once the chain is severed its fresh lookups are denied at
   the broker's rights gate, so its second burst (to a new destination)
   never leaves the guest kernel. *)
let uk_storm ~quick ~revoke =
  let count = if quick then 24 else 40 in
  let phase1_done = ref false in
  let revoke_done = ref (not revoke) in
  let victim_failed = ref 0 in
  let removed = ref 0 and teardown = ref 0L in
  (* Phase 2 after the revoke: a burst to a *new* destination, so the
     victim's guest kernel must go back to the broker — whose rights
     gate now denies it. A denied destination falls back to the raw
     driver path (the packet goes to the NIC, not the fabric), so the
     severance signal is how many phase-2 packets failed to go out as
     direct vnet IPC. *)
  let victim v1 phase1 () =
    phase1 ();
    phase1_done := true;
    if revoke then begin
      while not !revoke_done do
        Sysif.sleep 100_000L
      done;
      let direct0 = Port_l4.vnet_sent v1 in
      Apps.net_tx_stream ~settle:0 ~pace:0 ~src:1 ~dst:4 ~packets:count
        ~len:Scenario.fabric_packet_len () ();
      victim_failed := count - (Port_l4.vnet_sent v1 - direct0)
    end
  in
  let ctl (f : Scenario.fabric) k ~net =
    let counters = f.fab_mach.Machine.counters in
    ignore
      (Kernel.spawn k ~name:"ctl" ~priority:2 ~account:"ctl" (fun () ->
           while not !phase1_done do
             Sysif.sleep 50_000L
           done;
           let before = Machine.now f.fab_mach in
           let r0 = Counter.get counters "cap.revoked" in
           (match
              Sysif.call net
                (Sysif.msg Proto.vnet_revoke ~items:[ Sysif.Words [| 1 |] ])
            with
           | _, r when r.Sysif.label = Proto.ok -> ()
           | _ | (exception Sysif.Ipc_error _) -> ());
           teardown := Int64.sub (Machine.now f.fab_mach) before;
           removed := Counter.get counters "cap.revoked" - r0;
           revoke_done := true))
  in
  let f =
    Scenario.fabric_l4 ~guests:storm_guests
      ?side:(if revoke then Some ctl else None)
      ~apps:(fun f vnets ->
        storm_apps f ~count ~victim:(victim (List.hd vnets)))
      ()
  in
  let counters = f.fab_mach.Machine.counters in
  storm_result f ~count
    ~denied:(Counter.get counters "drv.net.vnet_denied")
    ~victim_failed:!victim_failed ~removed:!removed ~forced:0
    ~transitions:(Counter.get counters "uk.syscall")
    ~teardown:!teardown

(* Xen storm: pairwise traffic through the Dom0 bridge while a 3-deep
   transitive grant chain built by a side party is cut down at its root
   mid-run — every downstream mapping force-unmapped inside the
   hypervisor while innocent packets keep crossing it. *)
let xen_storm ~quick ~revoke =
  let count = if quick then 24 else 40 in
  let revoke_at = 1_500_000L in
  let depth = storm_chain_depth in
  let removed = ref 0 and forced = ref 0 and teardown = ref 0L in
  (* The delegation chain, off to the side of the traffic. *)
  let chain (f : Scenario.fabric) h =
    let mach = f.fab_mach in
    let counters = mach.Machine.counters in
    let domids = Array.make (depth + 1) 0 in
    let grefs = Array.make (depth + 1) None in
    let built = ref false and revoked = ref false in
    (* Coarse poll: the chain domains are bystanders to the traffic and
       their waiting must not itself look like a hypercall storm. *)
    let wait cond =
      while not (cond ()) do
        ignore (Hcall.block ~timeout:250_000L ())
      done
    in
    for i = depth downto 1 do
      domids.(i) <-
        Hypervisor.create_domain h
          ~name:(Printf.sprintf "mis%d" i)
          (fun () ->
            wait (fun () -> grefs.(i) <> None);
            let gref = Option.get grefs.(i) in
            let frame = Hcall.grant_map ~dom:domids.(i - 1) ~gref in
            if i < depth then
              grefs.(i + 1) <-
                Some (Hcall.grant ~to_dom:domids.(i + 1) ~frame ~readonly:false)
            else built := true;
            (* Stay alive holding the mapping: the revoke must cut down
               *live* state, not bookkeeping a clean exit already tore
               down. *)
            wait (fun () -> !revoked))
    done;
    domids.(0) <-
      Hypervisor.create_domain h ~name:"mis0" (fun () ->
          let frame = List.hd (Hcall.alloc_frames 1) in
          let g1 = Hcall.grant ~to_dom:domids.(1) ~frame ~readonly:false in
          grefs.(1) <- Some g1;
          wait (fun () -> !built);
          if revoke then begin
            wait (fun () -> Int64.compare (Machine.now mach) revoke_at >= 0);
            let before = Machine.now mach in
            let r0 = Counter.get counters "cap.revoked" in
            let f0 = Counter.get counters "gnt.revoke_forced" in
            Hcall.grant_revoke g1;
            teardown := Int64.sub (Machine.now mach) before;
            removed := Counter.get counters "cap.revoked" - r0;
            forced := Counter.get counters "gnt.revoke_forced" - f0
          end;
          revoked := true)
  in
  let f =
    Scenario.fabric_xen ~guests:storm_guests ~side:chain
      ~apps:(fun f -> storm_apps f ~count ~victim:Fun.id)
      ()
  in
  let counters = f.fab_mach.Machine.counters in
  storm_result f ~count ~denied:0 ~victim_failed:0 ~removed:!removed
    ~forced:!forced
    ~transitions:
      (Counter.get counters "vmm.hypercall" + Counter.get counters "vmm.upcall")
    ~teardown:!teardown

(* --- reporting --- *)

let counter_of counters name =
  Option.value ~default:0 (List.assoc_opt name counters)

let chain_table ~vmm rows =
  let t =
    Table.create
      ~header:
        ([ "depth"; "caps removed" ]
        @ (if vmm then [ "forced unmaps"; "transitive grants" ] else [])
        @ [ "teardown cyc"; "cyc/cap"; "delegates severed" ])
  in
  List.iter
    (fun c ->
      Table.add_row t
        ([ string_of_int c.ch_depth; string_of_int c.ch_removed ]
        @ (if vmm then
             [ string_of_int c.ch_forced; string_of_int c.ch_transitive ]
           else [])
        @ [
            Int64.to_string c.ch_teardown;
            Table.cellf "%.0f" (cyc_per_cap c);
            string_of_int c.ch_severed;
          ]))
    rows;
  t

let depth_histogram_table rows =
  let buckets = [ "le_1"; "le_2"; "le_4"; "le_8"; "gt_8" ] in
  let t = Table.create ~header:("stack" :: buckets) in
  List.iter
    (fun (label, counters) ->
      Table.add_row t
        (label
        :: List.map
             (fun b ->
               string_of_int (counter_of counters ("cap.revoke_depth." ^ b)))
             buckets))
    rows;
  t

let storm_table rows =
  let t =
    Table.create
      ~header:
        [
          "stack";
          "run";
          "innocent rcvd";
          "p99 gap";
          "denied";
          "victim failed";
          "caps removed";
          "forced";
          "transitions";
          "teardown cyc";
        ]
  in
  List.iter
    (fun (stack, label, r) ->
      Table.add_row t
        [
          stack;
          label;
          Printf.sprintf "%d/%d" r.st_innocent_rx r.st_expected;
          Int64.to_string r.st_p99_gap;
          string_of_int r.st_denied;
          string_of_int r.st_victim_failed;
          string_of_int r.st_removed;
          string_of_int r.st_forced;
          string_of_int r.st_transitions;
          Int64.to_string r.st_teardown;
        ])
    rows;
  t

let monotone f rows =
  let rec go = function
    | a :: (b :: _ as rest) -> f a < f b && go rest
    | _ -> true
  in
  go rows

let run ~quick =
  let uk_sweep = List.map (fun d -> uk_chain ~depth:d) depths in
  let vmm_sweep = List.map (fun d -> vmm_chain ~depth:d) depths in
  let uk_base = uk_storm ~quick ~revoke:false in
  let uk_rev = uk_storm ~quick ~revoke:true in
  let xen_base = xen_storm ~quick ~revoke:false in
  let xen_rev = xen_storm ~quick ~revoke:true in
  let uk_d6 = List.nth uk_sweep 5 and vmm_d6 = List.nth vmm_sweep 5 in
  let count = if quick then 24 else 40 in
  (* Verdict shapes. *)
  let uk_exact =
    List.for_all
      (fun c -> c.ch_removed = c.ch_depth && c.ch_severed = c.ch_depth)
      uk_sweep
  in
  let vmm_exact =
    List.for_all
      (fun c ->
        c.ch_removed = (2 * c.ch_depth)
        && c.ch_forced = (2 * c.ch_depth) - 1
        && c.ch_transitive = c.ch_depth - 1
        && c.ch_severed = c.ch_depth)
      vmm_sweep
  in
  let uk_monotone = monotone (fun c -> c.ch_teardown) uk_sweep in
  let vmm_monotone = monotone (fun c -> c.ch_teardown) vmm_sweep in
  let band rows =
    let per_hop =
      List.map
        (fun c -> Int64.to_float c.ch_teardown /. float_of_int c.ch_depth)
        rows
    in
    let mn = List.fold_left min (List.hd per_hop) per_hop in
    let mx = List.fold_left max (List.hd per_hop) per_hop in
    (mn, mx)
  in
  let uk_mn, uk_mx = band uk_sweep and vmm_mn, vmm_mx = band vmm_sweep in
  let linear = uk_mx <= 3.0 *. uk_mn && vmm_mx <= 3.0 *. vmm_mn in
  let uk_severed =
    uk_rev.st_denied > uk_base.st_denied
    && uk_rev.st_victim_failed = count
    && uk_rev.st_removed >= 2
  in
  let xen_severed =
    xen_rev.st_removed = 2 * storm_chain_depth
    && xen_rev.st_forced = (2 * storm_chain_depth) - 1
  in
  let collateral =
    uk_rev.st_innocent_rx = uk_rev.st_expected
    && xen_rev.st_innocent_rx = xen_rev.st_expected
    && Int64.compare uk_rev.st_p99_gap (Int64.mul 2L (max 1L uk_base.st_p99_gap))
       <= 0
    && Int64.compare xen_rev.st_p99_gap
         (Int64.mul 2L (max 1L xen_base.st_p99_gap))
       <= 0
  in
  let trans_delta_uk = uk_rev.st_transitions - uk_base.st_transitions in
  let trans_delta_xen = xen_rev.st_transitions - xen_base.st_transitions in
  let bounded_transitions =
    trans_delta_uk <= max 1 (uk_base.st_transitions / 2)
    && trans_delta_xen <= max 1 (xen_base.st_transitions / 2)
  in
  let verdicts =
    [
      Experiment.verdict
        ~claim:
          "Revocation is recursive and exact on the microkernel: one unmap \
           tears down the whole map-item delegation chain"
        ~expected:
          "depth d chain: exactly d capabilities removed, every delegate's \
           subsequent touch page-faults, teardown cycles strictly increasing \
           in d"
        ~measured:
          (String.concat "; "
             (List.map
                (fun c ->
                  Printf.sprintf "d%d: %d caps, %Ld cyc" c.ch_depth
                    c.ch_removed c.ch_teardown)
                uk_sweep))
        (uk_exact && uk_monotone);
      Experiment.verdict
        ~claim:
          "One grant_revoke cascades through transitive grants on the VMM: \
           mappings and re-grants made from them die with the root"
        ~expected:
          "depth d chain: 2d caps removed, 2d-1 forced unmaps, d-1 \
           transitive grants, every link's remap fails Bad_gref, cycles \
           strictly increasing in d"
        ~measured:
          (String.concat "; "
             (List.map
                (fun c ->
                  Printf.sprintf "d%d: %d caps, %d forced, %Ld cyc" c.ch_depth
                    c.ch_removed c.ch_forced c.ch_teardown)
                vmm_sweep))
        (vmm_exact && vmm_monotone);
      Experiment.verdict
        ~claim:"Teardown cost is linear in derivation depth, not worse"
        ~expected:
          "cycles per hop within a 3x band across depths 1..6 on both stacks"
        ~measured:
          (Printf.sprintf "uk %.0f..%.0f cyc/hop; vmm %.0f..%.0f cyc/hop"
             uk_mn uk_mx vmm_mn vmm_mx)
        linear;
      Experiment.verdict
        ~claim:
          "The storm really severs the misbehaving party on both stacks"
        ~expected:
          "uk: session chain removed, every post-revoke send denied at the \
           broker's rights gate; vmm: the live transitive chain force-unmapped \
           mid-traffic"
        ~measured:
          (Printf.sprintf
             "uk: %d caps removed, %d denied sends, denied counter %d; vmm: \
              %d caps removed, %d forced unmaps"
             uk_rev.st_removed uk_rev.st_victim_failed uk_rev.st_denied
             xen_rev.st_removed xen_rev.st_forced)
        (uk_severed && xen_severed);
      Experiment.verdict
        ~claim:
          "Innocent guests ride out the revocation storm (bounded collateral)"
        ~expected:
          "innocent pairs deliver everything; their p99 inter-arrival gap \
           stays within 2x of the storm-free baseline on both stacks"
        ~measured:
          (Printf.sprintf
             "uk: %d/%d, p99 %Ld vs base %Ld; vmm: %d/%d, p99 %Ld vs base %Ld"
             uk_rev.st_innocent_rx uk_rev.st_expected uk_rev.st_p99_gap
             uk_base.st_p99_gap xen_rev.st_innocent_rx xen_rev.st_expected
             xen_rev.st_p99_gap xen_base.st_p99_gap)
        collateral;
      Experiment.verdict
        ~claim:"A revocation storm adds only bounded privileged work"
        ~expected:
          "the revoke plus every post-revoke denial, retry and fallback adds \
           fewer than half the baseline's privileged transitions on both \
           stacks — severing a party costs less than its traffic did"
        ~measured:
          (Printf.sprintf "uk +%d on %d; vmm +%d on %d" trans_delta_uk
             uk_base.st_transitions trans_delta_xen xen_base.st_transitions)
        bounded_transitions;
    ]
  in
  {
    Experiment.tables =
      [
        ("Microkernel chain: one unmap vs delegation depth", chain_table ~vmm:false uk_sweep);
        ("VMM chain: one grant_revoke vs transitive grant depth", chain_table ~vmm:true vmm_sweep);
        ( "Revocation-depth histogram (depth-6 chains)",
          depth_histogram_table
            [ ("uk", uk_d6.ch_counters); ("vmm", vmm_d6.ch_counters) ] );
        ( "Revocation storm over E17 pairwise traffic",
          storm_table
            [
              ("uk", "baseline", uk_base);
              ("uk", "storm", uk_rev);
              ("vmm", "baseline", xen_base);
              ("vmm", "storm", xen_rev);
            ] );
        Experiment.digests
          [ ("uk storm", uk_rev.st_digest); ("vmm storm", xen_rev.st_digest) ];
      ];
    verdicts;
  }

let experiment =
  {
    Experiment.id = "e19";
    title = "Capability layer: rights derivation and revocation storms";
    paper_claim =
      "§2 claims VMMs got microkernel-style resource control right; a \
       first-class test of that is taking delegated resources *back*. E19 \
       gives both stacks one capability layer — per-domain handle tables, \
       rights masks, an explicit derivation tree — so the microkernel's \
       map-item delegations and the VMM's grant mappings (including grants \
       made transitively from mapped grants) revoke recursively through one \
       mechanism, with teardown cost linear in derivation depth and bounded \
       collateral on bystanders.";
    run;
  }
