(* Tests for the machine simulator: arch profiles, frames, page tables,
   TLB, cache, segments, IRQ controller, NIC, disk, machine, MMU. *)

open Vmk_hw

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

(* --- Arch --- *)

let test_arch_nine_platforms () =
  check_int "nine platforms" 9 (List.length Arch.all);
  let names = List.map (fun p -> p.Arch.name) Arch.all in
  check_int "distinct names" 9 (List.length (List.sort_uniq compare names))

let test_arch_only_x86_32_has_trap_gates () =
  let gates = List.filter (fun p -> p.Arch.has_trap_gates) Arch.all in
  check_int "one platform" 1 (List.length gates);
  check_bool "it is x86-32" true
    (match gates with [ p ] -> p.Arch.id = Arch.X86_32 | _ -> false)

let test_arch_copy_cost_monotonic () =
  let p = Arch.default in
  check_int "zero bytes free" 0 (Arch.copy_cost p ~bytes:0);
  check_bool "monotone" true
    (Arch.copy_cost p ~bytes:4096 > Arch.copy_cost p ~bytes:64)

let test_arch_copy_cost_negative_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Arch.copy_cost: negative size")
    (fun () -> ignore (Arch.copy_cost Arch.default ~bytes:(-1)))

let test_arch_by_name () =
  check_bool "lookup by spelling" true
    (match Arch.by_name "arm64" with
    | Some p -> p.Arch.id = Arch.Arm64
    | None -> false);
  check_bool "unknown" true (Arch.by_name "vax" = None)

let test_arch_tagged_tlb_cheap_switch () =
  let tagged = Arch.profile Arch.Arm64 and untagged = Arch.profile Arch.X86_32 in
  check_bool "tagged switch much cheaper" true
    (tagged.Arch.addr_space_switch_cost * 4 < untagged.Arch.addr_space_switch_cost)

(* --- Addr --- *)

let test_addr_arithmetic () =
  check_int "vpn" 2 (Addr.vpn 8300);
  check_int "base" 8192 (Addr.base 8300);
  check_int "offset" 108 (Addr.offset 8300);
  check_int "of_vpn" 8192 (Addr.of_vpn 2);
  check_bool "aligned" true (Addr.is_page_aligned 8192);
  check_bool "unaligned" false (Addr.is_page_aligned 8193)

let test_addr_pages_for () =
  check_int "zero" 0 (Addr.pages_for 0);
  check_int "one byte" 1 (Addr.pages_for 1);
  check_int "exact page" 1 (Addr.pages_for 4096);
  check_int "page+1" 2 (Addr.pages_for 4097)

let test_addr_range_overlap () =
  let a = Addr.range ~start:0 ~len:100 and b = Addr.range ~start:50 ~len:100 in
  let c = Addr.range ~start:100 ~len:10 in
  check_bool "overlap" true (Addr.ranges_overlap a b);
  check_bool "adjacent ranges do not overlap" false (Addr.ranges_overlap a c);
  check_bool "empty never overlaps" false
    (Addr.ranges_overlap a (Addr.range ~start:10 ~len:0))

(* --- Frame --- *)

let test_frame_alloc_release () =
  let t = Frame.create ~frames:4 in
  check_int "all free" 4 (Frame.free_count t);
  let f = Frame.alloc t ~owner:"guest" () in
  check_int "one used" 3 (Frame.free_count t);
  Alcotest.(check string) "owner" "guest" f.Frame.owner;
  Frame.release t f;
  check_int "released" 4 (Frame.free_count t)

let test_frame_exhaustion () =
  let t = Frame.create ~frames:2 in
  ignore (Frame.alloc t ~owner:"a" ());
  ignore (Frame.alloc t ~owner:"a" ());
  Alcotest.check_raises "out of frames" Frame.Out_of_frames (fun () ->
      ignore (Frame.alloc t ~owner:"a" ()))

let test_frame_transfer_bumps_generation () =
  let t = Frame.create ~frames:2 in
  let f = Frame.alloc t ~owner:"dom0" () in
  Frame.set_tag f 42;
  let g0 = f.Frame.generation in
  Frame.transfer t f ~to_:"guest";
  Alcotest.(check string) "new owner" "guest" f.Frame.owner;
  check_int "tag travels" 42 f.Frame.tag;
  check_int "generation bumped" (g0 + 1) f.Frame.generation

let test_frame_double_release_rejected () =
  let t = Frame.create ~frames:1 in
  let f = Frame.alloc t ~owner:"a" () in
  Frame.release t f;
  Alcotest.check_raises "double free"
    (Invalid_argument "Frame.release: frame already free") (fun () ->
      Frame.release t f)

let test_frame_reclaim_owner () =
  let t = Frame.create ~frames:8 in
  ignore (Frame.alloc_many t ~owner:"victim" 3);
  ignore (Frame.alloc_many t ~owner:"other" 2);
  check_int "reclaimed" 3 (Frame.reclaim_owner t "victim");
  check_int "other untouched" 2 (Frame.count_owned_by t "other");
  check_int "free again" 6 (Frame.free_count t)

(* --- Page table + TLB + MMU --- *)

let test_page_table_map_lookup_unmap () =
  let ft = Frame.create ~frames:2 in
  let f = Frame.alloc ft ~owner:"g" () in
  let pt = Page_table.create ~asid:1 in
  Page_table.map pt ~vpn:5 f ~writable:true ~user:true;
  check_bool "mapped" true (Page_table.lookup pt ~vpn:5 <> None);
  check_int "count" 1 (Page_table.mapped_count pt);
  check_bool "unmap returns pte" true (Page_table.unmap pt ~vpn:5 <> None);
  check_bool "gone" true (Page_table.lookup pt ~vpn:5 = None)

let test_page_table_stale_after_flip () =
  let ft = Frame.create ~frames:2 in
  let f = Frame.alloc ft ~owner:"dom0" () in
  let pt = Page_table.create ~asid:1 in
  Page_table.map pt ~vpn:7 f ~writable:true ~user:true;
  let pte = Option.get (Page_table.lookup pt ~vpn:7) in
  check_bool "fresh" false (Page_table.stale pte);
  Frame.transfer ft f ~to_:"guest";
  check_bool "stale after transfer" true (Page_table.stale pte)

let make_pte ft =
  let f = Frame.alloc ft ~owner:"g" () in
  Page_table.
    { frame = f; writable = true; user = true; frame_generation = f.Frame.generation }

let test_tlb_hit_miss_lru () =
  let ft = Frame.create ~frames:8 in
  let tlb = Tlb.create ~entries:2 ~tagged:true in
  let p1 = make_pte ft and p2 = make_pte ft and p3 = make_pte ft in
  check_bool "miss" true (Tlb.lookup tlb ~asid:1 ~vpn:1 = None);
  Tlb.insert tlb ~asid:1 ~vpn:1 p1;
  Tlb.insert tlb ~asid:1 ~vpn:2 p2;
  check_bool "hit 1" true (Tlb.lookup tlb ~asid:1 ~vpn:1 <> None);
  (* vpn 2 is now LRU; inserting vpn 3 evicts it *)
  Tlb.insert tlb ~asid:1 ~vpn:3 p3;
  check_bool "vpn2 evicted" true (Tlb.lookup tlb ~asid:1 ~vpn:2 = None);
  check_bool "vpn1 retained" true (Tlb.lookup tlb ~asid:1 ~vpn:1 <> None);
  check_int "hits" 2 (Tlb.hits tlb);
  check_int "misses" 2 (Tlb.misses tlb)

let test_tlb_untagged_flushes_on_switch () =
  let ft = Frame.create ~frames:4 in
  let tlb = Tlb.create ~entries:8 ~tagged:false in
  Tlb.set_context tlb ~asid:1;
  let flushes0 = Tlb.flushes tlb in
  Tlb.insert tlb ~asid:1 ~vpn:1 (make_pte ft);
  Tlb.set_context tlb ~asid:2;
  check_int "flush on switch" (flushes0 + 1) (Tlb.flushes tlb);
  check_int "empty" 0 (Tlb.live_entries tlb);
  Tlb.set_context tlb ~asid:2;
  check_int "same-asid switch free" (flushes0 + 1) (Tlb.flushes tlb)

let test_tlb_tagged_survives_switch () =
  let ft = Frame.create ~frames:4 in
  let tlb = Tlb.create ~entries:8 ~tagged:true in
  Tlb.set_context tlb ~asid:1;
  Tlb.insert tlb ~asid:1 ~vpn:1 (make_pte ft);
  Tlb.set_context tlb ~asid:2;
  Tlb.set_context tlb ~asid:1;
  check_bool "entry survived" true (Tlb.lookup tlb ~asid:1 ~vpn:1 <> None)

let test_tlb_untagged_wrong_context_never_hits () =
  let ft = Frame.create ~frames:4 in
  let tlb = Tlb.create ~entries:8 ~tagged:false in
  Tlb.set_context tlb ~asid:1;
  Tlb.insert tlb ~asid:1 ~vpn:9 (make_pte ft);
  (* asid 2 lookup while context is 1 must not hit asid-1 entries *)
  check_bool "cross-asid miss" true (Tlb.lookup tlb ~asid:2 ~vpn:9 = None)

(* --- Cache --- *)

let test_cache_touch_costs_then_free () =
  let c = Cache.create ~lines:64 ~line_bytes:64 ~refill_cost:10 in
  let ipc = Cache.region ~lines:8 in
  let cost1 = Cache.touch c ipc in
  check_int "cold misses" 80 cost1;
  let cost2 = Cache.touch c ipc in
  check_int "warm hits free" 0 cost2;
  check_int "footprint" (8 * 64) (Cache.footprint_bytes c ipc)

let test_cache_eviction_under_pressure () =
  let c = Cache.create ~lines:4 ~line_bytes:64 ~refill_cost:10 in
  let a = Cache.region ~lines:4 and b = Cache.region ~lines:4 in
  ignore (Cache.touch c a);
  ignore (Cache.touch c b);
  check_int "a was evicted, refills all 4 lines" 40 (Cache.touch c a)

let test_cache_of_profile_flush () =
  let c = Cache.of_profile Arch.default in
  ignore (Cache.touch c (Cache.region ~lines:2));
  Cache.flush c;
  check_int "flushed" 0 (Cache.resident_lines c)

(* Hypercall and IPC paths touch their region on every call; once it is
   resident that must cost no allocation. *)
let test_cache_warm_touch_allocates_nothing () =
  let c = Cache.of_profile Arch.default in
  let pt = Vmk_vmm.Costs.pt_region in
  ignore (Cache.touch c pt);
  let cost = ref 0 in
  let words =
    Alloc.minor_words (fun () ->
        for _ = 1 to 1_000 do
          cost := !cost + Cache.touch c pt
        done)
  in
  Alcotest.(check (float 0.0)) "warm touch words" 0.0 words;
  check_int "warm touches hit" 0 !cost

(* The list model [Cache] used to be, kept as the reference for its LRU:
   lines most recently used first; a hit moves its line to the front, a
   miss pushes it and drops whatever falls past the capacity. *)
module Cache_model = struct
  type line = { region : int; index : int }

  type t = {
    capacity : int;
    line_bytes : int;
    refill_cost : int;
    mutable lines : line list;
    mutable misses : int;
    mutable miss_cycles : int;
  }

  let create ~lines ~line_bytes ~refill_cost =
    { capacity = lines; line_bytes; refill_cost; lines = []; misses = 0; miss_cycles = 0 }

  let touch_line t line =
    if List.mem line t.lines then begin
      t.lines <- line :: List.filter (fun l -> l <> line) t.lines;
      0
    end
    else begin
      t.misses <- t.misses + 1;
      t.miss_cycles <- t.miss_cycles + t.refill_cost;
      t.lines <- List.filteri (fun i _ -> i < t.capacity) (line :: t.lines);
      t.refill_cost
    end

  let touch t ~region ~lines =
    List.fold_left ( + ) 0 (List.init lines (fun index -> touch_line t { region; index }))

  let footprint_bytes t ~region =
    t.line_bytes * List.length (List.filter (fun l -> l.region = region) t.lines)
end

(* Ops: [-1] flushes, [i >= 0] touches region [i mod nregions]. *)
let prop_cache_matches_list_model =
  QCheck.Test.make ~name:"cache: LRU matches the list model" ~count:300
    QCheck.(
      triple (int_range 1 16)
        (list_of_size Gen.(1 -- 4) (int_range 1 8))
        (list_of_size Gen.(0 -- 60) (int_range (-1) 7)))
    (fun (capacity, sizes, ops) ->
      (* Shrinking ignores the ranges; keep the shrunk inputs valid. *)
      QCheck.assume
        (capacity >= 1 && sizes <> [] && List.for_all (fun n -> n >= 1) sizes);
      let regions = List.map (fun lines -> Cache.region ~lines) sizes in
      let c = Cache.create ~lines:capacity ~line_bytes:64 ~refill_cost:10 in
      let m = Cache_model.create ~lines:capacity ~line_bytes:64 ~refill_cost:10 in
      let agree cost model_cost =
        cost = model_cost
        && Cache.misses c = m.Cache_model.misses
        && Cache.miss_cycles c = m.Cache_model.miss_cycles
        && Cache.resident_lines c = List.length m.Cache_model.lines
        && List.for_all2
             (fun i r -> Cache.footprint_bytes c r = Cache_model.footprint_bytes m ~region:i)
             (List.init (List.length regions) Fun.id)
             regions
      in
      List.for_all
        (fun op ->
          if op < 0 then begin
            Cache.flush c;
            m.Cache_model.lines <- [];
            agree 0 0
          end
          else begin
            let i = op mod List.length regions in
            let r = List.nth regions i in
            let cost = Cache.touch c r in
            agree cost (Cache_model.touch m ~region:i ~lines:(Cache.region_lines r))
          end)
        ops)

(* --- Segments --- *)

let vmm_hole = Addr.range ~start:0xF000_0000 ~len:0x1000_0000

let test_segments_default_excludes_hole () =
  let s = Segments.create ~user_limit:0xF000_0000 in
  check_bool "shortcut-safe layout" true (Segments.live_segments_exclude s vmm_hole)

let test_segments_glibc_tls_breaks_exclusion () =
  let s = Segments.create ~user_limit:0xF000_0000 in
  (* glibc TLS: GS gets a descriptor spanning the full 4 GiB *)
  Segments.load s Segments.Gs { base = 0; limit = 0xFFFF_FFFF };
  check_bool "gs now reaches the hole" false
    (Segments.live_segments_exclude s vmm_hole);
  check_int "reload counted" 1 (Segments.reload_count s)

let test_segments_cs_reload_is_irrelevant () =
  let s = Segments.create ~user_limit:0xF000_0000 in
  (* CS/SS are reloaded by the trap gate, so a wide CS does not matter. *)
  Segments.load s Segments.Cs { base = 0; limit = 0xFFFF_FFFF };
  check_bool "still safe" true (Segments.live_segments_exclude s vmm_hole)

(* --- Irq --- *)

let test_irq_priority_and_ack () =
  let c = Irq.create ~lines:4 in
  Irq.raise_line c 3;
  Irq.raise_line c 1;
  check_bool "lowest line wins" true (Irq.next_pending c = Some 1);
  Irq.ack c 1;
  check_bool "next" true (Irq.next_pending c = Some 3);
  Irq.ack c 3;
  check_bool "drained" false (Irq.any_pending c)

let test_irq_masking () =
  let c = Irq.create ~lines:4 in
  Irq.mask c 0;
  Irq.raise_line c 0;
  check_bool "masked hidden" true (Irq.next_pending c = None);
  Irq.unmask c 0;
  check_bool "visible after unmask" true (Irq.next_pending c = Some 0)

let test_irq_coalescing_counts () =
  let c = Irq.create ~lines:2 in
  Irq.raise_line c 0;
  Irq.raise_line c 0;
  Irq.raise_line c 0;
  check_int "raised 3" 3 (Irq.raised_total c 0);
  Irq.ack c 0;
  check_int "serviced once" 1 (Irq.serviced_total c 0);
  check_bool "coalesced" false (Irq.any_pending c)

let test_irq_out_of_range () =
  let c = Irq.create ~lines:2 in
  Alcotest.check_raises "range" (Invalid_argument "Irq: line out of range")
    (fun () -> Irq.raise_line c 2)

(* --- Nic --- *)

let test_nic_rx_requires_buffer () =
  let m = Machine.create () in
  Nic.inject_rx m.Machine.nic ~tag:1 ~len:100;
  check_int "dropped without buffer" 1 (Nic.rx_dropped m.Machine.nic);
  let f = Frame.alloc m.Machine.frames ~owner:"drv" () in
  Nic.post_rx_buffer m.Machine.nic f;
  Nic.inject_rx m.Machine.nic ~tag:2 ~len:100;
  check_int "delivered" 1 (Nic.rx_delivered m.Machine.nic);
  match Nic.rx_ready m.Machine.nic with
  | Some ev ->
      check_int "tag in frame" 2 ev.Nic.frame.Frame.tag;
      check_int "len" 100 ev.Nic.len
  | None -> Alcotest.fail "expected rx event"

let test_nic_rx_raises_irq () =
  let m = Machine.create () in
  let f = Frame.alloc m.Machine.frames ~owner:"drv" () in
  Nic.post_rx_buffer m.Machine.nic f;
  Nic.inject_rx m.Machine.nic ~tag:7 ~len:64;
  check_bool "nic irq pending" true
    (Irq.next_pending m.Machine.irq = Some Machine.nic_irq)

let test_nic_tx_completes_after_wire_delay () =
  let m = Machine.create () in
  let f = Frame.alloc m.Machine.frames ~owner:"drv" () in
  Nic.submit_tx m.Machine.nic f ~len:256;
  check_bool "not yet" true (Nic.tx_done m.Machine.nic = None);
  Machine.burn m 3000;
  check_bool "done after delay" true (Nic.tx_done m.Machine.nic <> None);
  check_int "tx bytes" 256 (Nic.tx_bytes m.Machine.nic)

let test_nic_oversized_packet_rejected () =
  let m = Machine.create () in
  Alcotest.check_raises "too big"
    (Invalid_argument "Nic.inject_rx: packet length out of range") (fun () ->
      Nic.inject_rx m.Machine.nic ~tag:1 ~len:(Addr.page_size + 1))

let test_nic_rx_buffers_fifo () =
  let m = Machine.create () in
  let f1 = Frame.alloc m.Machine.frames ~owner:"drv" () in
  let f2 = Frame.alloc m.Machine.frames ~owner:"drv" () in
  Nic.post_rx_buffer m.Machine.nic f1;
  Nic.post_rx_buffer m.Machine.nic f2;
  Nic.inject_rx m.Machine.nic ~tag:10 ~len:10;
  Nic.inject_rx m.Machine.nic ~tag:20 ~len:10;
  let e1 = Option.get (Nic.rx_ready m.Machine.nic) in
  let e2 = Option.get (Nic.rx_ready m.Machine.nic) in
  check_int "first buffer used first" f1.Frame.index e1.Nic.frame.Frame.index;
  check_int "tags in order" 10 e1.Nic.tag;
  check_int "second" 20 e2.Nic.tag

(* --- Disk --- *)

let test_disk_write_then_read_roundtrip () =
  let m = Machine.create () in
  let f = Frame.alloc m.Machine.frames ~owner:"drv" () in
  Frame.set_tag f 99;
  ignore (Disk.submit m.Machine.disk Disk.Write ~sector:5 ~frame:f ~bytes:512);
  Machine.burn m 100_000;
  check_int "persisted" 99 (Disk.sector_tag m.Machine.disk 5);
  let g = Frame.alloc m.Machine.frames ~owner:"drv" () in
  ignore (Disk.submit m.Machine.disk Disk.Read ~sector:5 ~frame:g ~bytes:512);
  Machine.burn m 100_000;
  check_int "read back" 99 g.Frame.tag;
  check_int "two completions" 0 (Disk.in_flight m.Machine.disk)

let test_disk_completion_raises_irq () =
  let m = Machine.create () in
  let f = Frame.alloc m.Machine.frames ~owner:"drv" () in
  ignore (Disk.submit m.Machine.disk Disk.Read ~sector:0 ~frame:f ~bytes:512);
  check_bool "in flight" true (Disk.in_flight m.Machine.disk = 1);
  Machine.burn m 100_000;
  check_bool "disk irq" true
    (Irq.next_pending m.Machine.irq = Some Machine.disk_irq);
  check_bool "completion queued" true (Disk.completed m.Machine.disk <> None)

let test_disk_unwritten_sector_reads_zero () =
  let m = Machine.create () in
  let f = Frame.alloc m.Machine.frames ~owner:"drv" () in
  Frame.set_tag f 1234;
  ignore (Disk.submit m.Machine.disk Disk.Read ~sector:77 ~frame:f ~bytes:512);
  Machine.burn m 100_000;
  check_int "zeroed" 0 f.Frame.tag

let test_disk_latency_scales_with_size () =
  let m = Machine.create () in
  let f = Frame.alloc m.Machine.frames ~owner:"drv" () in
  ignore (Disk.submit m.Machine.disk Disk.Read ~sector:0 ~frame:f ~bytes:4096);
  Machine.burn m 40_001;
  check_bool "big transfer not done at base latency" true
    (Disk.completed m.Machine.disk = None);
  Machine.burn m 40_000;
  check_bool "done later" true (Disk.completed m.Machine.disk <> None)

(* --- Machine + Mmu --- *)

let test_machine_burn_charges_account () =
  let m = Machine.create () in
  Vmk_trace.Accounts.switch_to m.Machine.accounts "guest";
  Machine.burn m 500;
  check_i64 "charged" 500L (Vmk_trace.Accounts.balance m.Machine.accounts "guest");
  check_i64 "clock moved" 500L (Machine.now m)

(* The replay digest must see every counter, every account and every
   per-CPU bucket. E22's old fingerprint was [Hashtbl.hash] over a
   14-element list, which reads only the first ten elements: changing
   element 10 left it unchanged. *)
let test_machine_digest_covers_state () =
  let module Counter = Vmk_trace.Counter in
  let module Accounts = Vmk_trace.Accounts in
  let run ?(last = 0) ?(account = 0) ?(cpu = 0) ?(state = []) () =
    let m = Machine.create ~cpus:2 ~seed:3L () in
    Counter.add m.Machine.counters "a.first" 5;
    Counter.add m.Machine.counters "zz.last" (1 + last);
    Accounts.charge_on m.Machine.accounts ~cpu "dom0" 700L;
    Accounts.charge m.Machine.accounts "guest" (Int64.of_int (100 + account));
    Machine.burn m 1_000;
    Machine.digest m state
  in
  let base = run () in
  check_bool "same run, same digest" true (base = run ());
  check_bool "last-sorting counter" false (base = run ~last:1 ());
  check_bool "one account" false (base = run ~account:1 ());
  check_bool "one per-CPU bucket, same totals" false (base = run ~cpu:1 ());
  let old = List.init 14 (fun i -> 1_000 + i) in
  let bumped = List.mapi (fun i v -> if i = 10 then v + 1 else v) old in
  check_bool "Hashtbl.hash misses element 10" true
    (Hashtbl.hash old = Hashtbl.hash bumped);
  let lines l = List.map string_of_int l in
  check_bool "digest sees element 10" false
    (run ~state:(lines old) () = run ~state:(lines bumped) ())

let test_machine_timer_ticks () =
  let m = Machine.create () in
  Machine.start_timer m ~period:1000L;
  Machine.burn m 3500;
  check_int "ticks raised" 3 (Irq.raised_total m.Machine.irq Machine.timer_irq);
  Machine.stop_timer m;
  let raised = Irq.raised_total m.Machine.irq Machine.timer_irq in
  Machine.burn m 5000;
  check_int "no more ticks" raised (Irq.raised_total m.Machine.irq Machine.timer_irq)

let test_mmu_translate_hit_is_free_miss_charges () =
  let m = Machine.create () in
  Vmk_trace.Accounts.switch_to m.Machine.accounts "k";
  let pt = Page_table.create ~asid:1 in
  let f = Frame.alloc m.Machine.frames ~owner:"k" () in
  Page_table.map pt ~vpn:3 f ~writable:true ~user:true;
  Vmk_hw.Tlb.set_context m.Machine.tlb ~asid:1;
  let t0 = Machine.now m in
  check_bool "miss ok" true
    (Mmu.translate m pt ~vpn:3 ~write:false ~user:true = Ok (Option.get (Page_table.lookup pt ~vpn:3)));
  let walk = Int64.to_int (Int64.sub (Machine.now m) t0) in
  check_int "walk cost charged" (Arch.walk_cost m.Machine.arch) walk;
  let t1 = Machine.now m in
  ignore (Mmu.translate m pt ~vpn:3 ~write:false ~user:true);
  check_i64 "hit free" t1 (Machine.now m)

let test_mmu_faults () =
  let m = Machine.create () in
  let pt = Page_table.create ~asid:1 in
  let f = Frame.alloc m.Machine.frames ~owner:"k" () in
  Page_table.map pt ~vpn:1 f ~writable:false ~user:false;
  check_bool "not mapped" true
    (Mmu.translate m pt ~vpn:9 ~write:false ~user:false = Error Mmu.Not_mapped);
  check_bool "readonly" true
    (Mmu.translate m pt ~vpn:1 ~write:true ~user:false
    = Error Mmu.Write_to_readonly);
  check_bool "kernel only" true
    (Mmu.translate m pt ~vpn:1 ~write:false ~user:true = Error Mmu.Kernel_only)

let test_mmu_stale_detected_through_tlb () =
  let m = Machine.create () in
  let pt = Page_table.create ~asid:1 in
  let f = Frame.alloc m.Machine.frames ~owner:"dom0" () in
  Page_table.map pt ~vpn:4 f ~writable:true ~user:true;
  Vmk_hw.Tlb.set_context m.Machine.tlb ~asid:1;
  check_bool "initial ok" true
    (Result.is_ok (Mmu.translate m pt ~vpn:4 ~write:true ~user:true));
  (* flip the frame away; the cached TLB entry is now stale *)
  Frame.transfer m.Machine.frames f ~to_:"guest";
  check_bool "stale fault" true
    (Mmu.translate m pt ~vpn:4 ~write:true ~user:true = Error Mmu.Stale_mapping)

let test_mmu_touch_range_counts_pages () =
  let m = Machine.create () in
  let pt = Page_table.create ~asid:2 in
  Vmk_hw.Tlb.set_context m.Machine.tlb ~asid:2;
  for vpn = 0 to 3 do
    let f = Frame.alloc m.Machine.frames ~owner:"k" () in
    Page_table.map pt ~vpn f ~writable:true ~user:true
  done;
  check_bool "4 pages" true
    (Mmu.touch_range m pt ~start:0 ~len:(4 * Addr.page_size) ~write:false
       ~user:true
    = Ok 4);
  check_bool "fault reported with vpn" true
    (Mmu.touch_range m pt ~start:0 ~len:(5 * Addr.page_size) ~write:false
       ~user:true
    = Error (4, Mmu.Not_mapped))

let test_mmu_switch_space_costs () =
  let m = Machine.create () in
  let pt1 = Page_table.create ~asid:1 and pt2 = Page_table.create ~asid:2 in
  Mmu.switch_space m pt1;
  let t0 = Machine.now m in
  Mmu.switch_space m pt2;
  let cost = Int64.to_int (Int64.sub (Machine.now m) t0) in
  check_int "profile cost" m.Machine.arch.Arch.addr_space_switch_cost cost

let prop_frame_alloc_release_conserves =
  QCheck.Test.make ~name:"frame alloc/release conserves total" ~count:100
    QCheck.(list (int_range 0 1))
    (fun ops ->
      let t = Frame.create ~frames:16 in
      let held = ref [] in
      List.iter
        (fun op ->
          if op = 0 then begin
            match Frame.alloc t ~owner:"p" () with
            | f -> held := f :: !held
            | exception Frame.Out_of_frames -> ()
          end
          else
            match !held with
            | [] -> ()
            | f :: rest ->
                Frame.release t f;
                held := rest)
        ops;
      Frame.free_count t + List.length !held = 16)

let suite =
  [
    Alcotest.test_case "arch: nine platforms" `Quick test_arch_nine_platforms;
    Alcotest.test_case "arch: trap gates only on x86-32" `Quick
      test_arch_only_x86_32_has_trap_gates;
    Alcotest.test_case "arch: copy cost monotonic" `Quick
      test_arch_copy_cost_monotonic;
    Alcotest.test_case "arch: negative copy rejected" `Quick
      test_arch_copy_cost_negative_rejected;
    Alcotest.test_case "arch: by_name" `Quick test_arch_by_name;
    Alcotest.test_case "arch: tagged TLB cheap switch" `Quick
      test_arch_tagged_tlb_cheap_switch;
    Alcotest.test_case "addr: arithmetic" `Quick test_addr_arithmetic;
    Alcotest.test_case "addr: pages_for" `Quick test_addr_pages_for;
    Alcotest.test_case "addr: range overlap" `Quick test_addr_range_overlap;
    Alcotest.test_case "frame: alloc/release" `Quick test_frame_alloc_release;
    Alcotest.test_case "frame: exhaustion" `Quick test_frame_exhaustion;
    Alcotest.test_case "frame: transfer bumps generation" `Quick
      test_frame_transfer_bumps_generation;
    Alcotest.test_case "frame: double release rejected" `Quick
      test_frame_double_release_rejected;
    Alcotest.test_case "frame: reclaim owner" `Quick test_frame_reclaim_owner;
    QCheck_alcotest.to_alcotest prop_frame_alloc_release_conserves;
    Alcotest.test_case "pt: map/lookup/unmap" `Quick
      test_page_table_map_lookup_unmap;
    Alcotest.test_case "pt: stale after flip" `Quick
      test_page_table_stale_after_flip;
    Alcotest.test_case "tlb: hit/miss/LRU" `Quick test_tlb_hit_miss_lru;
    Alcotest.test_case "tlb: untagged flush on switch" `Quick
      test_tlb_untagged_flushes_on_switch;
    Alcotest.test_case "tlb: tagged survives switch" `Quick
      test_tlb_tagged_survives_switch;
    Alcotest.test_case "tlb: cross-asid isolation" `Quick
      test_tlb_untagged_wrong_context_never_hits;
    Alcotest.test_case "cache: cold/warm costs" `Quick
      test_cache_touch_costs_then_free;
    Alcotest.test_case "cache: eviction" `Quick test_cache_eviction_under_pressure;
    Alcotest.test_case "cache: flush" `Quick test_cache_of_profile_flush;
    Alcotest.test_case "cache: warm touch allocates nothing" `Quick
      test_cache_warm_touch_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_cache_matches_list_model;
    Alcotest.test_case "segments: default excludes hole" `Quick
      test_segments_default_excludes_hole;
    Alcotest.test_case "segments: glibc TLS breaks exclusion" `Quick
      test_segments_glibc_tls_breaks_exclusion;
    Alcotest.test_case "segments: CS reload irrelevant" `Quick
      test_segments_cs_reload_is_irrelevant;
    Alcotest.test_case "irq: priority and ack" `Quick test_irq_priority_and_ack;
    Alcotest.test_case "irq: masking" `Quick test_irq_masking;
    Alcotest.test_case "irq: coalescing" `Quick test_irq_coalescing_counts;
    Alcotest.test_case "irq: out of range" `Quick test_irq_out_of_range;
    Alcotest.test_case "nic: rx requires buffer" `Quick test_nic_rx_requires_buffer;
    Alcotest.test_case "nic: rx raises irq" `Quick test_nic_rx_raises_irq;
    Alcotest.test_case "nic: tx wire delay" `Quick
      test_nic_tx_completes_after_wire_delay;
    Alcotest.test_case "nic: oversized rejected" `Quick
      test_nic_oversized_packet_rejected;
    Alcotest.test_case "nic: rx buffers FIFO" `Quick test_nic_rx_buffers_fifo;
    Alcotest.test_case "disk: write/read roundtrip" `Quick
      test_disk_write_then_read_roundtrip;
    Alcotest.test_case "disk: completion irq" `Quick
      test_disk_completion_raises_irq;
    Alcotest.test_case "disk: unwritten reads zero" `Quick
      test_disk_unwritten_sector_reads_zero;
    Alcotest.test_case "disk: latency scales" `Quick
      test_disk_latency_scales_with_size;
    Alcotest.test_case "machine: burn charges account" `Quick
      test_machine_burn_charges_account;
    Alcotest.test_case "machine: timer" `Quick test_machine_timer_ticks;
    Alcotest.test_case "machine: replay digest covers all state" `Quick
      test_machine_digest_covers_state;
    Alcotest.test_case "mmu: hit free, miss charges" `Quick
      test_mmu_translate_hit_is_free_miss_charges;
    Alcotest.test_case "mmu: permission faults" `Quick test_mmu_faults;
    Alcotest.test_case "mmu: stale via TLB" `Quick
      test_mmu_stale_detected_through_tlb;
    Alcotest.test_case "mmu: touch_range" `Quick test_mmu_touch_range_counts_pages;
    Alcotest.test_case "mmu: switch cost" `Quick test_mmu_switch_space_costs;
  ]
