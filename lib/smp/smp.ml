module Machine = Vmk_hw.Machine
module Cpu = Vmk_hw.Cpu
module Arch = Vmk_hw.Arch
module Tlb = Vmk_hw.Tlb
module Accounts = Vmk_trace.Accounts
module Counter = Vmk_trace.Counter
module Engine = Vmk_sim.Engine

type tid = int

type lock = {
  mutable free_at : int64;
      (** Global virtual time at which the previous critical section ends;
          an acquirer arriving earlier spins for the difference. *)
  mutable acquisitions : int;
  mutable contended : int;
  mutable spin_cycles : int64;
}

(* Cross-core hardware costs that are not per-architecture: these model
   the shared-fabric side (cache-line transfer, spinlock probe, shootdown
   bookkeeping); the per-arch side (IPI delivery, shootdown ack handler)
   comes from Arch.profile. *)
let yield_cost = 20
let lock_base_cost = 40
let cacheline_delay = 60
let ipi_post_cost = 80
let shootdown_base_cost = 150
let shootdown_per_core_cost = 80
let far = Int64.max_int

type reply = R_unit | R_msg of int

type call =
  | Burn of int
  | Yield
  | Recv
  | Send of { dst : tid; tag : int; cycles : int }
  | Locked of { lk : lock; cycles : int }
  | Shootdown of { pages : int }

type _ Effect.t += Invoke : call -> reply Effect.t

module Fiber = Vmk_hw.Exec.Fiber (struct
  type nonrec call = call
  type nonrec reply = reply
  type _ Effect.t += Invoke = Invoke
end)

type state = Ready | Running | Blocked | Done

type mail = { visible_at : int64; mseq : int; mtag : int }

type thread = {
  tid : tid;
  name : string;
  account : string;
  cpu : int;
  weight : int;
  mutable credit : int;
  mutable st : state;
  fiber : Fiber.t;
  mutable burn_left : int;
  mutable ready_at : int64;
      (** Earliest global time this thread may next run: message
          visibility for receivers, [far] while parked with an empty
          mailbox. *)
  mutable waiting_recv : bool;
  mutable mailbox : mail list;  (** Sorted by (visible_at, send seq). *)
}

type core = {
  hw : Cpu.t;
  mutable threads : thread list;  (** Pinned here, in spawn order. *)
  mutable pending_ipi : int;
      (** Deferred interrupt-handler cycles this core owes before its
          next dispatch, one bucket per cause. *)
  mutable pending_irq : int;
  mutable pending_shootdown : int;
}

(* Pre-resolved counter ids for the cross-core hot path (E21): IPC
   posts, IPIs, lock spins and shootdowns fire per message or per
   acquisition. Spawn and crash counters stay string-keyed (cold). *)
type hot_ids = {
  id_irq : int;
  id_ipi : int;
  id_spin_cycles : int;
  id_shootdown : int;
  id_shootdown_pages : int;
  id_shootdown_acks : int;
}

type t = {
  mach : Machine.t;
  ids : hot_ids;
  cores : core array;
  tbl : (tid, thread) Hashtbl.t;
  mutable next_tid : int;
  mutable next_seq : int;
  mutable round_end : int64;
}

type stop_reason = Idle | Condition | Rounds

(* Interleaving granularity: each scheduling round runs every core, in
   core-id order, for this much global virtual time. *)
let quantum = 1000

let create mach =
  let cores =
    Array.init (Machine.ncpus mach) (fun i ->
        {
          hw = Machine.cpu mach i;
          threads = [];
          pending_ipi = 0;
          pending_irq = 0;
          pending_shootdown = 0;
        })
  in
  let c = mach.Machine.counters in
  {
    mach;
    ids =
      {
        id_irq = Counter.id c "smp.irq";
        id_ipi = Counter.id c "smp.ipi";
        id_spin_cycles = Counter.id c "smp.spin.cycles";
        id_shootdown = Counter.id c "smp.shootdown";
        id_shootdown_pages = Counter.id c "smp.shootdown.pages";
        id_shootdown_acks = Counter.id c "smp.shootdown.acks";
      };
    cores;
    tbl = Hashtbl.create 32;
    next_tid = 1;
    next_seq = 0;
    round_end = 0L;
  }

let credit_cap weight = 8 * weight

let spawn t ~name ?account ~cpu ?(weight = 1) body =
  if cpu < 0 || cpu >= Array.length t.cores then
    invalid_arg "Smp.spawn: bad cpu index";
  if weight < 1 then invalid_arg "Smp.spawn: weight must be positive";
  let tid = t.next_tid in
  t.next_tid <- t.next_tid + 1;
  let th =
    {
      tid;
      name;
      account = Option.value account ~default:name;
      cpu;
      weight;
      credit = weight;
      st = Ready;
      fiber = Fiber.create ~reply:R_unit body;
      burn_left = 0;
      ready_at = 0L;
      waiting_recv = false;
      mailbox = [];
    }
  in
  Hashtbl.add t.tbl tid th;
  let core = t.cores.(cpu) in
  core.threads <- core.threads @ [ th ];
  Counter.incr t.mach.Machine.counters "smp.spawn";
  tid

(* --- mailboxes --- *)

let insert_mail th m =
  let earlier x = (x.visible_at, x.mseq) <= (m.visible_at, m.mseq) in
  let rec go = function
    | x :: rest when earlier x -> x :: go rest
    | l -> m :: l
  in
  th.mailbox <- go th.mailbox

let pop_visible th now =
  match th.mailbox with
  | m :: rest when Int64.compare m.visible_at now <= 0 ->
      th.mailbox <- rest;
      Some m.mtag
  | _ -> None

let park_recv th now =
  th.waiting_recv <- true;
  match th.mailbox with
  | m :: _ ->
      th.st <- Ready;
      th.ready_at <- (if Int64.compare m.visible_at now > 0 then m.visible_at else now)
  | [] ->
      th.st <- Blocked;
      th.ready_at <- far

let deliver t dst ~visible ~tag =
  let m = { visible_at = visible; mseq = t.next_seq; mtag = tag } in
  t.next_seq <- t.next_seq + 1;
  insert_mail dst m;
  if dst.waiting_recv then begin
    if dst.st = Blocked then dst.st <- Ready;
    if Int64.compare visible dst.ready_at < 0 then dst.ready_at <- visible
  end

let post t ?irq_cost ~dst tag =
  match Hashtbl.find_opt t.tbl dst with
  | None -> ()
  | Some d when d.st = Done -> ()
  | Some d ->
      let cost =
        Option.value irq_cost ~default:t.mach.Machine.arch.Arch.irq_entry_cost
      in
      let core = t.cores.(d.cpu) in
      core.pending_irq <- core.pending_irq + cost;
      Counter.incr_id t.mach.Machine.counters t.ids.id_irq;
      deliver t d ~visible:(Engine.now t.mach.Machine.engine) ~tag

(* --- syscall-style handling --- *)

let make_ready th ~at reply =
  Fiber.set_reply th.fiber reply;
  th.st <- Ready;
  th.ready_at <- at

let handle t th call =
  let arch = t.mach.Machine.arch in
  let counters = t.mach.Machine.counters in
  let hw = t.cores.(th.cpu).hw in
  match call with
  | Burn n ->
      (* Pure computation: consumed one quantum-slice per dispatch so the
         per-core scheduler can preempt long stretches. *)
      th.burn_left <- max 0 n;
      make_ready th ~at:hw.Cpu.now R_unit
  | Yield ->
      Machine.burn_on t.mach ~cpu:hw yield_cost;
      make_ready th ~at:t.round_end R_unit
  | Recv -> park_recv th hw.Cpu.now
  | Send { dst; tag; cycles } -> begin
      Machine.burn_on t.mach ~cpu:hw cycles;
      match Hashtbl.find_opt t.tbl dst with
      | None | Some { st = Done; _ } ->
          (* Dead-letter: the sender is not blocked on a corpse. *)
          make_ready th ~at:hw.Cpu.now R_unit
      | Some d ->
          let visible =
            if d.cpu = th.cpu then hw.Cpu.now
            else if d.st = Blocked && d.waiting_recv then begin
              (* Target core sleeps in recv: wake it with an IPI. The
                 sender pays the post; the target core owes the delivery
                 cost before its next dispatch. *)
              Machine.burn_on t.mach ~cpu:hw ipi_post_cost;
              let tcore = t.cores.(d.cpu) in
              tcore.pending_ipi <- tcore.pending_ipi + arch.Arch.ipi_cost;
              Counter.incr_id counters t.ids.id_ipi;
              Int64.add hw.Cpu.now (Int64.of_int arch.Arch.ipi_cost)
            end
            else
              (* Busy remote core polls its mailbox: the message is
                 visible after one cache-line transfer. *)
              Int64.add hw.Cpu.now (Int64.of_int cacheline_delay)
          in
          deliver t d ~visible ~tag;
          make_ready th ~at:hw.Cpu.now R_unit
    end
  | Locked { lk; cycles } ->
      Machine.burn_on t.mach ~cpu:hw lock_base_cost;
      lk.acquisitions <- lk.acquisitions + 1;
      let now0 = hw.Cpu.now in
      if Int64.compare lk.free_at now0 > 0 then begin
        let spin = Int64.sub lk.free_at now0 in
        lk.contended <- lk.contended + 1;
        lk.spin_cycles <- Int64.add lk.spin_cycles spin;
        Accounts.charge_on t.mach.Machine.accounts ~cpu:th.cpu "smp.spin" spin;
        Counter.add_id counters t.ids.id_spin_cycles (Int64.to_int spin);
        Cpu.advance hw (Int64.to_int spin)
      end;
      Machine.burn_on t.mach ~cpu:hw cycles;
      lk.free_at <- hw.Cpu.now;
      make_ready th ~at:hw.Cpu.now R_unit
  | Shootdown { pages } ->
      let n = Array.length t.cores in
      Counter.incr_id counters t.ids.id_shootdown;
      Counter.add_id counters t.ids.id_shootdown_pages (max 0 pages);
      let cost =
        if n > 1 then
          shootdown_base_cost
          + ((n - 1) * shootdown_per_core_cost)
          (* send the IPI round and wait for the last ack *)
          + arch.Arch.ipi_cost + arch.Arch.shootdown_ack_cost
        else shootdown_base_cost
      in
      Machine.burn_on t.mach ~cpu:hw cost;
      Array.iter
        (fun c ->
          if c.hw.Cpu.id <> th.cpu then begin
            c.pending_shootdown <-
              c.pending_shootdown + arch.Arch.shootdown_ack_cost;
            Tlb.flush_all c.hw.Cpu.tlb;
            Counter.incr_id counters t.ids.id_shootdown_acks
          end)
        t.cores;
      make_ready th ~at:hw.Cpu.now R_unit

let finish t th = function
  | None -> th.st <- Done
  | Some _ ->
      Counter.incr t.mach.Machine.counters "smp.thread.crashed";
      th.st <- Done

let dispatch t core th =
  th.st <- Running;
  Accounts.switch_to t.mach.Machine.accounts th.account;
  if th.waiting_recv then begin
    match pop_visible th core.hw.Cpu.now with
    | Some tag ->
        th.waiting_recv <- false;
        Fiber.set_reply th.fiber (R_msg tag);
        Fiber.resume th.fiber ~call:handle ~finish t th
    | None -> park_recv th core.hw.Cpu.now
  end
  else if th.burn_left > 0 then begin
    let step = min th.burn_left quantum in
    Machine.burn_on t.mach ~cpu:core.hw step;
    th.burn_left <- th.burn_left - step;
    if th.st = Running then begin
      th.st <- Ready;
      th.ready_at <- core.hw.Cpu.now
    end
  end
  else Fiber.resume th.fiber ~call:handle ~finish t th

(* --- per-core scheduling --- *)

let pick core now =
  List.fold_left
    (fun best th ->
      if th.st = Ready && Int64.compare th.ready_at now <= 0 then
        match best with
        | Some b when b.credit >= th.credit -> best
        | Some _ | None -> Some th
      else best)
    None core.threads

let earliest_ready core =
  List.fold_left
    (fun acc th ->
      if th.st = Ready then
        match acc with
        | Some a when Int64.compare a th.ready_at <= 0 -> acc
        | Some _ | None -> Some th.ready_at
      else acc)
    None core.threads

let run_core t core ~round_start =
  let hw = core.hw in
  if Int64.compare hw.Cpu.now round_start < 0 then hw.Cpu.now <- round_start;
  (* Settle deferred cross-core interrupt work before dispatching. *)
  let did = ref false in
  let pay amount account =
    if amount > 0 then begin
      Accounts.charge_on t.mach.Machine.accounts ~cpu:hw.Cpu.id account
        (Int64.of_int amount);
      Cpu.advance hw amount;
      (* Absorbing deferred interrupt work is progress: it can push this
         core past the round end, and the global loop must keep burning
         quanta until the core re-enters a round window. *)
      did := true
    end
  in
  pay core.pending_ipi "smp.ipi";
  core.pending_ipi <- 0;
  pay core.pending_irq "smp.irq";
  core.pending_irq <- 0;
  pay core.pending_shootdown "smp.shootdown";
  core.pending_shootdown <- 0;
  let rec loop () =
    if Int64.compare hw.Cpu.now t.round_end < 0 then begin
      match pick core hw.Cpu.now with
      | Some th ->
          let before = hw.Cpu.now in
          dispatch t core th;
          let used = Int64.to_int (Int64.sub hw.Cpu.now before) in
          th.credit <- th.credit - used;
          did := true;
          loop ()
      | None -> (
          (* Nobody runnable right now; skip forward within the quantum
             if someone becomes runnable before it ends. *)
          match earliest_ready core with
          | Some at
            when Int64.compare at t.round_end < 0
                 && Int64.compare at hw.Cpu.now > 0 ->
              hw.Cpu.now <- at;
              loop ()
          | Some _ | None -> ())
    end
  in
  loop ();
  !did

(* [rounds] per-round credit refills at once: [min cap (credit + w)]
   applied [rounds] times is [min cap (credit + rounds * w)]. *)
let rec refill_threads rounds = function
  | [] -> ()
  | th :: rest ->
      if th.st <> Done then
        th.credit <-
          min (credit_cap th.weight) (th.credit + (rounds * th.weight));
      refill_threads rounds rest

let refill t rounds =
  for c = 0 to Array.length t.cores - 1 do
    refill_threads rounds t.cores.(c).threads
  done

let run ?until ?(max_rounds = 2_000_000) ?(tickless = true) t =
  let eng = t.mach.Machine.engine in
  let stop () = match until with Some f -> f () | None -> false in
  (* Earliest finite wake-up among parked-but-scheduled threads, for
     skipping dead quanta. A thread cannot run before its own core's
     local clock either — a core that overshot the round (long atomic
     op, deferred IPI work) drags its threads' effective wake-up with
     it, so the engine must catch up to the core, not the reverse. *)
  let next_wakeup () =
    Array.fold_left
      (fun acc core ->
        List.fold_left
          (fun acc th ->
            if th.st = Ready && Int64.compare th.ready_at far < 0 then
              let cand =
                if Int64.compare core.hw.Cpu.now th.ready_at > 0 then
                  core.hw.Cpu.now
                else th.ready_at
              in
              match acc with
              | Some a when Int64.compare a cand <= 0 -> acc
              | Some _ | None -> Some cand
            else acc)
          acc core.threads)
      None t.cores
  in
  let rec loop rounds =
    if stop () then Condition
    else if rounds >= max_rounds then Rounds
    else begin
      let round_start = Engine.now eng in
      t.round_end <- Int64.add round_start (Int64.of_int quantum);
      refill t 1;
      let did = ref false in
      Array.iter
        (fun core -> if run_core t core ~round_start then did := true)
        t.cores;
      if !did then begin
        Engine.burn eng (Int64.of_int quantum);
        loop (rounds + 1)
      end
      else
        let target =
          match (Engine.next_due eng, next_wakeup ()) with
          | None, None -> None
          | (Some _ as a), None -> a
          | None, (Some _ as b) -> b
          | Some a, Some b -> Some (if Int64.compare a b <= 0 then a else b)
        in
        match target with
        | None -> Idle
        | Some tgt ->
            let delta = Int64.sub tgt (Engine.now eng) in
            (* Always at least one cycle so the loop can never stall on a
               stale target. With [tickless] off the gap is crossed in
               quantum-sized hops that stop exactly at the target, each
               starting a round that refills every credit. The jump
               skips the [(delta - 1) / quantum] hops before the last,
               so it pays their refills in one go. The test suite's
               equivalence property leans on this. *)
            let delta = if Int64.compare delta 1L > 0 then delta else 1L in
            let q = Int64.of_int quantum in
            let step =
              if tickless then begin
                if Int64.compare delta q > 0 then begin
                  Engine.note_idle eng;
                  refill t (Int64.to_int (Int64.div (Int64.sub delta 1L) q))
                end;
                delta
              end
              else if Int64.compare delta q > 0 then q
              else delta
            in
            Engine.burn eng step;
            loop (rounds + 1)
    end
  in
  let reason = loop 0 in
  Accounts.switch_to t.mach.Machine.accounts "idle";
  reason

(* --- thread operations (inside fibers) --- *)

let invoke call = Effect.perform (Invoke call)
let burn n = ignore (invoke (Burn n))
let yield () = ignore (invoke Yield)

let recv () =
  match invoke Recv with R_msg tag -> tag | R_unit -> -1

let send ~dst ~tag ~cycles = ignore (invoke (Send { dst; tag; cycles }))
let locked lk ~cycles = ignore (invoke (Locked { lk; cycles }))
let shootdown ~pages = ignore (invoke (Shootdown { pages }))

(* --- locks --- *)

let lock_create _t =
  { free_at = 0L; acquisitions = 0; contended = 0; spin_cycles = 0L }

let lock_acquisitions lk = lk.acquisitions
let lock_contended lk = lk.contended
let lock_spin_cycles lk = lk.spin_cycles

let is_done t tid =
  match Hashtbl.find_opt t.tbl tid with
  | Some th -> th.st = Done
  | None -> true
