open Sysif
module Machine = Vmk_hw.Machine
module Arch = Vmk_hw.Arch
module Page_table = Vmk_hw.Page_table
module Mmu = Vmk_hw.Mmu
module Frame = Vmk_hw.Frame
module Irq = Vmk_hw.Irq
module Tlb = Vmk_hw.Tlb
module Cache = Vmk_hw.Cache
module Accounts = Vmk_trace.Accounts
module Counter = Vmk_trace.Counter
module Engine = Vmk_sim.Engine
module Exec = Vmk_hw.Exec
module Cap = Vmk_cap.Cap
module Fiber = Exec.Fiber (Sysif)

let priorities = 8
let default_priority = 4
let kernel_account = "ukernel"

type thread_state =
  | Ready
  | Running
  | Blocked_send of tid
  | Blocked_recv of recv_filter
  | Blocked_call of tid
  | Sleeping
  | Dead

type pending_touch = {
  t_addr : int;
  t_len : int;
  t_write : bool;
  mutable fault_vpn : int;
}

type tcb = {
  tid : tid;
  name : string;
  account : string;
  priority : int;
  asid : int;
  pager : tid option;
  mutable state : thread_state;
  fiber : Fiber.t;
  mutable out_msg : msg option;
  mutable wants_reply : bool;
  mutable faulting : pending_touch option;
  mutable burn_left : int;
      (** Remaining user computation, consumed one timeslice per dispatch
          (timer preemption). *)
  mutable block_token : int;
      (** Invalidates stale IPC-timeout events: bumped whenever the
          thread blocks or becomes ready. *)
  mutable paused : bool;
      (** Excluded from scheduling; IPC and replies park (E20 quiesce). *)
  senders : tid Queue.t;
}

(* Pre-resolved counter ids for the IPC/dispatch hot path (E21): interned
   once at [create], bumped with [Counter.incr_id] (an array store) instead
   of a per-call string hash. Cold paths (spawn, faults, kills, timeouts)
   stay string-keyed. Interning eagerly is bit-for-bit safe: a counter that
   never fires stays at zero and zero-valued counters are invisible in
   dumps. *)
type hot_ids = {
  id_ipc_rendezvous : int;
  id_ipc_words : int;
  id_ipc_bytes : int;
  id_map_denied : int;
  id_map_pages : int;
  id_map_skipped : int;
  id_syscall : int;
  id_space_switch : int;
  id_irq_delivered : int;
  id_batch_send : int;
}

type t = {
  mach : Machine.t;
  ids : hot_ids;
  tcbs : (tid, tcb) Hashtbl.t;
  spaces : (int, Page_table.t) Hashtbl.t;
  alloc_ptr : (int, int ref) Hashtbl.t;
  mapdb : Mapdb.t;
  caps : Cap.t;
  queues : tcb Queue.t array;
  irq_handlers : (int, tid) Hashtbl.t;
  log_dirty : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (** asid -> dirty-vpn set while log-dirty mode is armed (E20). *)
  mutable next_tid : int;
  mutable next_asid : int;
  mutable current_asid : int;
}

type stop_reason = Exec.stop_reason = Idle | Condition | Dispatch_limit

(* Capability object namespaces (E19). Page objects encode the mapping
   identity so revoking a page cap can find its Mapdb node; user objects
   (service sessions minted via Cap_mint) are tagged apart so the two can
   never collide. *)
let page_obj_tag = 1 lsl 60
let user_obj_tag = 1 lsl 56
let page_obj ~asid ~vpn = page_obj_tag lor (asid lsl 24) lor vpn
let user_obj obj = user_obj_tag lor (obj land 0xFFFF_FFFF)

let decode_page_obj obj =
  if obj land page_obj_tag = 0 then None
  else
    let v = obj land lnot page_obj_tag in
    Some (v lsr 24, v land 0xFF_FFFF)

(* The first user page handed out by Alloc_pages; low pages are "text". *)
let alloc_base_vpn = 0x100

let create mach =
  let spaces = Hashtbl.create 16 in
  let install ~asid ~vpn frame ~writable =
    match Hashtbl.find_opt spaces asid with
    | None -> ()
    | Some space ->
        Page_table.map space ~vpn frame ~writable ~user:true;
        Machine.burn mach
          (mach.Machine.arch.Arch.pt_update_cost
          + mach.Machine.arch.Arch.page_map_cost)
  in
  let remove ~asid ~vpn =
    match Hashtbl.find_opt spaces asid with
    | None -> ()
    | Some space ->
        ignore (Page_table.unmap space ~vpn);
        Tlb.invalidate mach.Machine.tlb ~asid ~vpn;
        Machine.burn mach mach.Machine.arch.Arch.pt_update_cost
  in
  let c = mach.Machine.counters in
  {
    mach;
    ids =
      {
        id_ipc_rendezvous = Counter.id c "uk.ipc.rendezvous";
        id_ipc_words = Counter.id c "uk.ipc.words";
        id_ipc_bytes = Counter.id c "uk.ipc.bytes";
        id_map_denied = Counter.id c "uk.ipc.map_denied";
        id_map_pages = Counter.id c "uk.ipc.map_pages";
        id_map_skipped = Counter.id c "uk.ipc.map_skipped";
        id_syscall = Counter.id c "uk.syscall";
        id_space_switch = Counter.id c "uk.space_switch";
        id_irq_delivered = Counter.id c "uk.irq.delivered";
        id_batch_send = Counter.id c "uk.ipc.batch_send";
      };
    tcbs = Hashtbl.create 32;
    spaces;
    alloc_ptr = Hashtbl.create 16;
    mapdb = Mapdb.create ~install ~remove;
    caps =
      Cap.create ~counters:mach.Machine.counters
        ~burn:(fun c -> Machine.burn mach c)
        ();
    queues = Array.init priorities (fun _ -> Queue.create ());
    irq_handlers = Hashtbl.create 8;
    log_dirty = Hashtbl.create 4;
    next_tid = 1;
    next_asid = 1;
    current_asid = 0;
  }

let find k tid = Hashtbl.find_opt k.tcbs tid

let find_alive k tid =
  match find k tid with
  | Some tcb when tcb.state <> Dead -> Some tcb
  | Some _ | None -> None

let space_exn k asid =
  match Hashtbl.find_opt k.spaces asid with
  | Some s -> s
  | None -> invalid_arg "Kernel: unknown address space"

let enqueue k tcb = Queue.add tcb k.queues.(tcb.priority)

let ready k tcb reply =
  match tcb.state with
  | Dead -> ()
  | Ready -> Fiber.set_reply tcb.fiber reply
  | Running | Blocked_send _ | Blocked_recv _ | Blocked_call _ | Sleeping ->
      tcb.block_token <- tcb.block_token + 1;
      Fiber.set_reply tcb.fiber reply;
      tcb.state <- Ready;
      enqueue k tcb

let kcharged k f =
  Accounts.with_account k.mach.Machine.accounts kernel_account f

let kburn k cycles = Machine.burn k.mach cycles

(* Revocation hook: as each page capability dies, remove exactly its
   Mapdb node (the cap layer drives the recursion in postorder, so a
   node's derived mappings are already gone when its own cap fires).
   Non-page caps (service sessions) need no mechanism teardown. *)
let cap_teardown k (info : Cap.info) ~depth:_ =
  match decode_page_obj info.Cap.i_obj with
  | None -> ()
  | Some (asid, vpn) -> ignore (Mapdb.remove_single k.mapdb ~asid ~vpn)

let fresh_space k =
  let asid = k.next_asid in
  k.next_asid <- k.next_asid + 1;
  Hashtbl.add k.spaces asid (Page_table.create ~asid);
  Hashtbl.add k.alloc_ptr asid (ref alloc_base_vpn);
  asid

let make_tcb k ~name ~priority ~pager ~account ~asid ~body =
  if priority < 0 || priority >= priorities then
    invalid_arg "Kernel: priority out of range";
  let tid = k.next_tid in
  k.next_tid <- k.next_tid + 1;
  let tcb =
    {
      tid;
      name;
      account;
      priority;
      asid;
      pager;
      state = Ready;
      fiber = Fiber.create ~reply:R_unit body;
      out_msg = None;
      wants_reply = false;
      paused = false;
      faulting = None;
      burn_left = 0;
      block_token = 0;
      senders = Queue.create ();
    }
  in
  Hashtbl.add k.tcbs tid tcb;
  enqueue k tcb;
  Counter.incr k.mach.Machine.counters "uk.spawn";
  tcb

let spawn k ~name ?(priority = default_priority) ?pager ?account body =
  let account = Option.value account ~default:name in
  let asid = fresh_space k in
  (make_tcb k ~name ~priority ~pager ~account ~asid ~body).tid

(* --- IPC transfer --- *)

let filter_matches filter tid =
  match filter with Any -> true | From x -> x = tid

let transfer_cost k msg =
  let arch = k.mach.Machine.arch in
  let counters = k.mach.Machine.counters in
  Counter.incr_id counters k.ids.id_ipc_rendezvous;
  let nwords = Array.length (words msg) in
  Counter.add_id counters k.ids.id_ipc_words nwords;
  let extra = max 0 (nwords - Costs.free_words) in
  let bytes = str_total msg in
  Counter.add_id counters k.ids.id_ipc_bytes bytes;
  let icache_miss = Cache.touch k.mach.Machine.icache Costs.ipc_region in
  kburn k
    (Costs.ipc_path
    + (extra * Costs.per_extra_word)
    + Arch.copy_cost arch ~bytes
    + icache_miss)

(* Apply the map/grant items of [msg], mapping each page either to the
   identity vpn in the receiver's space or to an explicit window base
   (pager replies map at the fault address). *)
let apply_map_items k ~(src : tcb) ~(dst : tcb) ~window msg =
  let counters = k.mach.Machine.counters in
  List.iter
    (fun (fpage, grant) ->
      for i = 0 to fpage.pages - 1 do
        let src_vpn = fpage.base_vpn + i in
        let dst_vpn =
          match window with `Identity -> src_vpn | `At base -> base + i
        in
        (* Rights gate (E19): delegating a page requires holding its
           capability with the map right. *)
        let src_cap =
          match
            Cap.find_obj k.caps ~obj:(page_obj ~asid:src.asid ~vpn:src_vpn)
          with
          | Some info when info.Cap.i_dom = src.asid -> Some info
          | Some _ | None -> None
        in
        let denied =
          match src_cap with
          | Some info ->
              not
                (Cap.check k.caps ~dom:src.asid ~handle:info.Cap.i_handle
                   ~need:Cap.r_map)
          | None -> false
        in
        if denied then Counter.incr_id counters k.ids.id_map_denied
        else
          match
            Mapdb.map k.mapdb ~src_asid:src.asid ~src_vpn ~dst_asid:dst.asid
              ~dst_vpn ~writable:fpage.writable ~grant
          with
          | Ok () ->
              Counter.incr_id counters k.ids.id_map_pages;
              (* Mirror the delegation in the cap layer: the receiver's
                 page cap is a tree child of the sender's (grant moves
                 the sender's cap instead, as in the Mapdb). *)
              (match src_cap with
              | None -> ()
              | Some info ->
                  let dst_obj = page_obj ~asid:dst.asid ~vpn:dst_vpn in
                  if grant then
                    ignore
                      (Cap.grant k.caps ~dom:src.asid
                         ~handle:info.Cap.i_handle ~to_dom:dst.asid
                         ~obj:dst_obj)
                  else
                    let rights =
                      if fpage.writable then Cap.r_full
                      else Cap.r_full land lnot Cap.r_write
                    in
                    ignore
                      (Cap.derive k.caps ~dom:src.asid
                         ~handle:info.Cap.i_handle ~to_dom:dst.asid
                         ~obj:dst_obj ~rights))
          | Error (`Source_not_mapped | `Dest_occupied | `Self_map) ->
              Counter.incr_id counters k.ids.id_map_skipped
      done)
    (map_items msg)

let do_transfer k ~src ~dst ~window msg =
  transfer_cost k msg;
  apply_map_items k ~src ~dst ~window msg

(* A sender that gave up must leave the destination's queue at once —
   a lazy stale-entry sweep would let an overloaded server keep paying
   to skip corpses (E15's send-timeout path). *)
let drop_sender k ~dst_tid ~src_tid =
  match find k dst_tid with
  | None -> ()
  | Some dst ->
      let kept =
        List.filter (fun t -> t <> src_tid) (List.of_seq (Queue.to_seq dst.senders))
      in
      Queue.clear dst.senders;
      List.iter (fun t -> Queue.add t dst.senders) kept

(* Arm an IPC timeout for a thread that just blocked: if it is still in
   the same blocking episode when the deadline fires, the operation fails
   with Timeout. Remaining stale queue entries are dropped lazily by the
   receive-side checks. *)
let arm_ipc_timeout k (tcb : tcb) timeout =
  match timeout with
  | None -> ()
  | Some cycles ->
      tcb.block_token <- tcb.block_token + 1;
      let token = tcb.block_token in
      Engine.after k.mach.Machine.engine cycles (fun () ->
          if tcb.block_token = token then
            match tcb.state with
            | Blocked_send dst_tid ->
                Counter.incr k.mach.Machine.counters "uk.ipc.timeout";
                Counter.incr k.mach.Machine.counters "uk.ipc.send_timeout";
                drop_sender k ~dst_tid ~src_tid:tcb.tid;
                tcb.out_msg <- None;
                tcb.faulting <- None;
                ready k tcb (R_error Timeout)
            | Blocked_recv _ | Blocked_call _ ->
                Counter.incr k.mach.Machine.counters "uk.ipc.timeout";
                tcb.out_msg <- None;
                tcb.faulting <- None;
                ready k tcb (R_error Timeout)
            | Ready | Running | Sleeping | Dead -> ())

(* --- Touch / page-fault protocol --- *)

let fault_msg touch =
  msg Proto.pagefault
    ~items:[ Words [| touch.fault_vpn; (if touch.t_write then 1 else 0) |] ]

(* Deliver [m] as the reply to [dst], which is blocked in a Call on [src].
   A pager reply is intercepted: its map items are applied at the fault
   window and the faulting Touch is retried instead of delivering R_msg. *)
let rec deliver_reply k ~(src : tcb) ~(dst : tcb) m =
  match dst.faulting with
  | Some touch ->
      transfer_cost k m;
      apply_map_items k ~src ~dst ~window:(`At touch.fault_vpn) m;
      let resolved =
        Page_table.lookup (space_exn k dst.asid) ~vpn:touch.fault_vpn <> None
      in
      if resolved then run_touch k dst touch
      else begin
        (* The pager declined to map: fail the access rather than loop. *)
        dst.faulting <- None;
        ready k dst (R_error (Page_fault_unhandled touch.fault_vpn))
      end
  | None ->
      do_transfer k ~src ~dst ~window:`Identity m;
      ready k dst (R_msg (src.tid, m))

and begin_send ?timeout k ~(src : tcb) ~dst_tid ~m ~wants_reply =
  match find_alive k dst_tid with
  | None ->
      src.faulting <- None;
      ready k src (R_error Dead_partner)
  | Some dst -> begin
      match dst.state with
      | Blocked_call waiting_on when waiting_on = src.tid ->
          (* Send-to-caller is the reply half of a Call (L4 style). *)
          deliver_reply k ~src ~dst m;
          if wants_reply then begin
            src.state <- Blocked_call dst.tid;
            arm_ipc_timeout k src timeout
          end
          else ready k src R_unit
      | Blocked_recv filter when filter_matches filter src.tid ->
          do_transfer k ~src ~dst ~window:`Identity m;
          ready k dst (R_msg (src.tid, m));
          if wants_reply then begin
            src.state <- Blocked_call dst.tid;
            arm_ipc_timeout k src timeout
          end
          else ready k src R_unit
      | Ready | Running | Blocked_send _ | Blocked_recv _ | Blocked_call _
      | Sleeping ->
          src.state <- Blocked_send dst.tid;
          src.out_msg <- Some m;
          src.wants_reply <- wants_reply;
          Queue.add src.tid dst.senders;
          arm_ipc_timeout k src timeout
      | Dead ->
          src.faulting <- None;
          ready k src (R_error Dead_partner)
    end

and run_touch k (tcb : tcb) touch =
  let space = space_exn k tcb.asid in
  let result =
    (* Memory access time belongs to the thread, not the kernel. *)
    Accounts.with_account k.mach.Machine.accounts tcb.account (fun () ->
        Mmu.touch_range k.mach space ~start:touch.t_addr ~len:touch.t_len
          ~write:touch.t_write ~user:true)
  in
  match result with
  | Ok _ ->
      (if touch.t_write then
         match Hashtbl.find_opt k.log_dirty tcb.asid with
         | None -> ()
         | Some dirty ->
             let first = touch.t_addr / Vmk_hw.Addr.page_size in
             let last =
               (touch.t_addr + max 0 (touch.t_len - 1))
               / Vmk_hw.Addr.page_size
             in
             for vpn = first to last do
               (* First write to a clean tracked page: one
                  protection-fault trap to set the dirty bit. *)
               if not (Hashtbl.mem dirty vpn) then begin
                 Hashtbl.replace dirty vpn ();
                 Counter.incr k.mach.Machine.counters "uk.logdirty_fault";
                 kcharged k (fun () ->
                     kburn k
                       (k.mach.Machine.arch.Arch.trap_cost
                      + k.mach.Machine.arch.Arch.pt_update_cost))
               end
             done);
      tcb.faulting <- None;
      ready k tcb R_unit
  | Error (vpn, _fault) -> begin
      match tcb.pager with
      | None ->
          tcb.faulting <- None;
          ready k tcb (R_error (Page_fault_unhandled vpn))
      | Some pager_tid ->
          touch.fault_vpn <- vpn;
          tcb.faulting <- Some touch;
          Counter.incr k.mach.Machine.counters "uk.fault.ipc";
          begin_send k ~src:tcb ~dst_tid:pager_tid ~m:(fault_msg touch)
            ~wants_reply:true
    end

(* --- Receive --- *)

let take_matching_sender k (tcb : tcb) filter =
  let queued = List.of_seq (Queue.to_seq tcb.senders) in
  Queue.clear tcb.senders;
  let rec go kept = function
    | [] ->
        List.iter (fun x -> Queue.add x tcb.senders) (List.rev kept);
        None
    | stid :: rest -> begin
        match find k stid with
        | Some s
          when (match s.state with
               | Blocked_send d -> d = tcb.tid
               | Ready | Running | Blocked_recv _ | Blocked_call _ | Sleeping
               | Dead ->
                   false)
               && filter_matches filter stid ->
            List.iter (fun x -> Queue.add x tcb.senders) (List.rev kept);
            List.iter (fun x -> Queue.add x tcb.senders) rest;
            Some s
        | Some s
          when match s.state with Blocked_send d -> d = tcb.tid | _ -> false ->
            (* Valid sender, wrong filter: keep it queued. *)
            go (stid :: kept) rest
        | Some _ | None -> go kept rest (* stale entry: drop *)
      end
  in
  go [] queued

let handle_recv ?timeout k (tcb : tcb) filter =
  match take_matching_sender k tcb filter with
  | Some sender ->
      let m = Option.value sender.out_msg ~default:(msg 0) in
      sender.out_msg <- None;
      do_transfer k ~src:sender ~dst:tcb ~window:`Identity m;
      if sender.wants_reply then sender.state <- Blocked_call tcb.tid
      else ready k sender R_unit;
      ready k tcb (R_msg (sender.tid, m))
  | None ->
      tcb.state <- Blocked_recv filter;
      arm_ipc_timeout k tcb timeout

(* --- Reply --- *)

let handle_reply_then_wait k (tcb : tcb) dst_tid m =
  match find_alive k dst_tid with
  | None -> ready k tcb (R_error Dead_partner)
  | Some dst -> begin
      match dst.state with
      | Blocked_call waiting_on when waiting_on = tcb.tid ->
          deliver_reply k ~src:tcb ~dst m;
          handle_recv k tcb Any
      | Ready | Running | Blocked_send _ | Blocked_recv _ | Blocked_call _
      | Sleeping | Dead ->
          ready k tcb (R_error (Bad_argument "reply-to-non-caller"))
    end

(* --- Thread termination --- *)

let wake_partners k (dead : tcb) =
  Hashtbl.iter
    (fun _ (other : tcb) ->
      if other != dead then
        match other.state with
        | Blocked_send d when d = dead.tid ->
            other.faulting <- None;
            other.out_msg <- None;
            ready k other (R_error Dead_partner)
        | Blocked_call d when d = dead.tid ->
            other.faulting <- None;
            ready k other (R_error Dead_partner)
        | Blocked_recv (From x) when x = dead.tid ->
            ready k other (R_error Dead_partner)
        | Ready | Running | Blocked_send _ | Blocked_recv _ | Blocked_call _
        | Sleeping | Dead ->
            ())
    k.tcbs

let terminate k (tcb : tcb) =
  if tcb.state <> Dead then begin
    tcb.state <- Dead;
    Fiber.stop tcb.fiber;
    tcb.out_msg <- None;
    tcb.faulting <- None;
    let lines =
      Hashtbl.fold
        (fun line handler acc -> if handler = tcb.tid then line :: acc else acc)
        k.irq_handlers []
    in
    List.iter (Hashtbl.remove k.irq_handlers) lines;
    wake_partners k tcb;
    let space_alive =
      Hashtbl.fold
        (fun _ (o : tcb) acc ->
          acc || (o != tcb && o.state <> Dead && o.asid = tcb.asid))
        k.tcbs false
    in
    if not space_alive then begin
      (* Space death revokes every capability the space holds — and,
         through the derivation trees, everything delegated onward from
         them (mappings in other spaces die via the teardown hook). Any
         cap-less leftovers fall to the raw space sweep. *)
      ignore (Cap.revoke_dom k.caps ~dom:tcb.asid ~on_revoke:(cap_teardown k));
      ignore (Mapdb.unmap_space k.mapdb ~asid:tcb.asid)
    end
  end

let kill k tid =
  match find k tid with
  | Some tcb ->
      Counter.incr k.mach.Machine.counters "uk.thread.killed";
      terminate k tcb
  | None -> ()

(* Unwind-kill: instead of vaporising the TCB on the spot, deliver
   [R_error Killed] as the outcome of whatever the victim is doing. The
   wrapper raises [Ipc_error Killed], the exception unwinds the fiber and
   its crash path ([finish]) terminates it — so [Sysif.Killed] is genuinely
   observable and any [Fun.protect]-style cleanup in the victim runs. A
   thread that has not started yet has no operation to fail; it is
   terminated directly. *)
let inject_kill k tid =
  match find_alive k tid with
  | None -> ()
  | Some tcb ->
      Counter.incr k.mach.Machine.counters "uk.thread.killed";
      tcb.faulting <- None;
      tcb.out_msg <- None;
      if (not (Fiber.started tcb.fiber)) || tcb.state = Running then
        terminate k tcb
      else ready k tcb (R_error Killed)

let is_alive k tid = find_alive k tid <> None

let state_name k tid =
  match find k tid with
  | None -> "missing"
  | Some tcb -> (
      match tcb.state with
      | Ready -> "ready"
      | Running -> "running"
      | Blocked_send _ -> "blocked-send"
      | Blocked_recv _ -> "blocked-recv"
      | Blocked_call _ -> "blocked-call"
      | Sleeping -> "sleeping"
      | Dead -> "dead")

let thread_count k =
  Hashtbl.fold
    (fun _ (tcb : tcb) acc -> if tcb.state <> Dead then acc + 1 else acc)
    k.tcbs 0

(* --- System-call dispatch --- *)

let syscall_overhead k =
  let arch = k.mach.Machine.arch in
  kburn k
    (arch.Arch.fast_syscall_cost + arch.Arch.kernel_exit_cost
   + Costs.syscall_fixed)

let handle_alloc_pages k (tcb : tcb) n =
  if n <= 0 then ready k tcb (R_error (Bad_argument "alloc-pages"))
  else begin
    match Hashtbl.find_opt k.alloc_ptr tcb.asid with
    | None -> ready k tcb (R_error (Bad_argument "no-space"))
    | Some ptr -> (
        (* Received identity mappings (IPC map/grant items — e.g. the
           vnet channel setup) may occupy vpns ahead of the allocation
           pointer; slide the window past any collision instead of
           double-mapping. *)
        let rec free_base base =
          let rec check i =
            if i >= n then None
            else if Mapdb.lookup k.mapdb ~asid:tcb.asid ~vpn:(base + i) <> None
            then Some (base + i + 1)
            else check (i + 1)
          in
          match check 0 with None -> base | Some next -> free_base next
        in
        let base_vpn = free_base !ptr in
        match Frame.alloc_many k.mach.Machine.frames ~owner:tcb.account n with
        | frames ->
            ptr := base_vpn + n;
            List.iteri
              (fun i frame ->
                let vpn = base_vpn + i in
                Mapdb.insert_root k.mapdb ~asid:tcb.asid ~vpn frame
                  ~writable:true;
                (* Fresh memory carries a full-rights root capability;
                   every later delegation derives from it. *)
                ignore
                  (Cap.mint k.caps ~dom:tcb.asid
                     ~obj:(page_obj ~asid:tcb.asid ~vpn)
                     ~rights:Cap.r_full))
              frames;
            ready k tcb (R_fpage { base_vpn; pages = n; writable = true })
        | exception Frame.Out_of_frames ->
            ready k tcb (R_error (Bad_argument "out-of-memory")))
  end

let handle_syscall k (tcb : tcb) call =
  match call with
  | _ when tcb.state = Dead ->
      (* Killed mid-burn by fault injection: the fiber is abandoned at its
         next kernel entry. *)
      ()
  | Burn n ->
      (* Pure user computation: no kernel entry, charged to the thread,
         consumed in timeslices across dispatches. *)
      tcb.burn_left <- max 0 n;
      ready k tcb R_unit
  | Yield ->
      Counter.incr_id k.mach.Machine.counters k.ids.id_syscall;
      (* Flattened [kcharged] (E21): [syscall_overhead] is a plain burn
         and cannot raise, so swap/restore replaces the per-call
         closure. *)
      let acc = k.mach.Machine.accounts in
      let prev = Accounts.swap acc kernel_account in
      syscall_overhead k;
      Accounts.restore acc prev;
      ready k tcb R_unit
  | _ ->
      Counter.incr_id k.mach.Machine.counters k.ids.id_syscall;
      (* Flattened [kcharged] (E21): the per-syscall closure was the one
         steady-state allocation on the IPC path. The handler body never
         continues a fiber (replies wait in [tcb.fiber] until the next
         dispatch), so the explicit try/restore below is the only
         exception edge. *)
      let acc = k.mach.Machine.accounts in
      let prev = Accounts.swap acc kernel_account in
      (try
         syscall_overhead k;
         match call with
          | Burn _ | Yield -> assert false
          | Send (dst, m, timeout) ->
              begin_send ?timeout k ~src:tcb ~dst_tid:dst ~m ~wants_reply:false
          | Call (dst, m, timeout) ->
              begin_send ?timeout k ~src:tcb ~dst_tid:dst ~m ~wants_reply:true
          | Recv (filter, timeout) -> handle_recv ?timeout k tcb filter
          | Reply_wait (dst, m) -> handle_reply_then_wait k tcb dst m
          | Sleep cycles ->
              tcb.state <- Sleeping;
              Engine.after k.mach.Machine.engine cycles (fun () ->
                  if tcb.state = Sleeping then ready k tcb R_unit)
          | Exit -> terminate k tcb
          | My_tid -> ready k tcb (R_tid tcb.tid)
          | Spawn spec ->
              let asid = if spec.same_space then tcb.asid else fresh_space k in
              let child =
                make_tcb k ~name:spec.name ~priority:spec.priority
                  ~pager:spec.pager ~account:tcb.account ~asid ~body:spec.body
              in
              ready k tcb (R_tid child.tid)
          | Alloc_pages n -> handle_alloc_pages k tcb n
          | Touch { addr; len; write } ->
              run_touch k tcb { t_addr = addr; t_len = len; t_write = write; fault_vpn = -1 }
          | Unmap fpage ->
              (* Revocation is cap-driven (E19): the page's capability
                 subtree is torn down and each dying cap removes its own
                 mapping. Pages without a cap (none in practice — every
                 root comes from Alloc_pages) fall back to the raw walk. *)
              let removed = ref 0 in
              for i = 0 to fpage.pages - 1 do
                let vpn = fpage.base_vpn + i in
                match Cap.find_obj k.caps ~obj:(page_obj ~asid:tcb.asid ~vpn) with
                | Some info when info.Cap.i_dom = tcb.asid -> (
                    match
                      Cap.revoke k.caps ~dom:tcb.asid
                        ~handle:info.Cap.i_handle ~self:false
                        ~on_revoke:(cap_teardown k)
                    with
                    | Ok stats -> removed := !removed + stats.Cap.r_removed
                    | Error (`No_cap | `Denied) -> ())
                | Some _ | None ->
                    removed :=
                      !removed + Mapdb.unmap k.mapdb ~asid:tcb.asid ~vpn ~self:false
              done;
              Counter.add k.mach.Machine.counters "uk.unmap.pages" !removed;
              ready k tcb R_unit
          | Irq_attach line ->
              if line < 0 || line >= Irq.lines k.mach.Machine.irq then
                ready k tcb (R_error (Bad_argument "irq-line"))
              else begin
                Hashtbl.replace k.irq_handlers line tcb.tid;
                ready k tcb R_unit
              end
          | Irq_mask line ->
              if line < 0 || line >= Irq.lines k.mach.Machine.irq then
                ready k tcb (R_error (Bad_argument "irq-line"))
              else if Hashtbl.find_opt k.irq_handlers line <> Some tcb.tid then
                ready k tcb (R_error Not_permitted)
              else begin
                Irq.mask k.mach.Machine.irq line;
                ready k tcb R_unit
              end
          | Irq_unmask line ->
              if line < 0 || line >= Irq.lines k.mach.Machine.irq then
                ready k tcb (R_error (Bad_argument "irq-line"))
              else if Hashtbl.find_opt k.irq_handlers line <> Some tcb.tid then
                ready k tcb (R_error Not_permitted)
              else begin
                (* Batched acknowledgement: one ack covers every edge that
                   coalesced onto the latch while the handler polled. *)
                Irq.ack k.mach.Machine.irq line;
                Irq.unmask k.mach.Machine.irq line;
                ready k tcb R_unit
              end
          | Send_batch msgs ->
              (* Deferred-notify: one kernel entry, no blocking. Each
                 message lands iff its destination is already receptive;
                 the rest are the caller's problem (it retries on the next
                 flush). Transfer cost is still paid per delivery — the
                 saving is the per-message syscall overhead. *)
              let delivered = ref 0 in
              List.iter
                (fun (dst_tid, m) ->
                  match find_alive k dst_tid with
                  | None -> ()
                  | Some dst -> (
                      match dst.state with
                      | Blocked_call waiting_on when waiting_on = tcb.tid ->
                          deliver_reply k ~src:tcb ~dst m;
                          incr delivered
                      | Blocked_recv filter when filter_matches filter tcb.tid
                        ->
                          do_transfer k ~src:tcb ~dst ~window:`Identity m;
                          ready k dst (R_msg (tcb.tid, m));
                          incr delivered
                      | Ready | Running | Blocked_send _ | Blocked_recv _
                      | Blocked_call _ | Sleeping | Dead ->
                          ()))
                msgs;
              Counter.add_id k.mach.Machine.counters k.ids.id_batch_send
                !delivered;
              ready k tcb (R_tid !delivered)
          | Kill_thread victim ->
              if victim = tcb.tid then terminate k tcb
              else begin
                inject_kill k victim;
                ready k tcb R_unit
              end
          | Cap_mint { obj; rights } ->
              let handle =
                Cap.mint k.caps ~dom:tcb.asid ~obj:(user_obj obj)
                  ~rights:(rights land Cap.r_full)
              in
              ready k tcb (R_tid handle)
          | Cap_derive { handle; to_; rights } -> (
              match find_alive k to_ with
              | None -> ready k tcb (R_error Dead_partner)
              | Some dst -> (
                  match Cap.lookup k.caps ~dom:tcb.asid ~handle with
                  | None -> ready k tcb (R_error Not_permitted)
                  | Some parent -> (
                      match
                        Cap.derive k.caps ~dom:tcb.asid ~handle
                          ~to_dom:dst.asid ~obj:parent.Cap.i_obj ~rights
                      with
                      | Ok h -> ready k tcb (R_tid h)
                      | Error (`No_cap | `Denied) ->
                          ready k tcb (R_error Not_permitted))))
          | Cap_revoke { handle; self } -> (
              match
                Cap.revoke k.caps ~dom:tcb.asid ~handle ~self
                  ~on_revoke:(cap_teardown k)
              with
              | Ok stats -> ready k tcb (R_tid stats.Cap.r_removed)
              | Error (`No_cap | `Denied) ->
                  ready k tcb (R_error Not_permitted))
          | Cap_check { subject; handle; need } -> (
              match find_alive k subject with
              | None -> ready k tcb (R_error Not_permitted)
              | Some s ->
                  if Cap.check k.caps ~dom:s.asid ~handle ~need then
                    ready k tcb R_unit
                  else ready k tcb (R_error Not_permitted))
          | Cap_lookup { vpn } -> (
              match
                Cap.find_obj k.caps ~obj:(page_obj ~asid:tcb.asid ~vpn)
              with
              | Some info when info.Cap.i_dom = tcb.asid ->
                  ready k tcb (R_tid info.Cap.i_handle)
              | Some _ | None -> ready k tcb (R_error Not_permitted))
          | Thread_pause target -> (
              match find_alive k target with
              | None -> ready k tcb (R_error Dead_partner)
              | Some victim ->
                  victim.paused <- true;
                  Counter.incr k.mach.Machine.counters "uk.thread_pause";
                  ready k tcb R_unit)
          | Thread_resume target -> (
              match find_alive k target with
              | None -> ready k tcb (R_error Dead_partner)
              | Some victim ->
                  victim.paused <- false;
                  (* It may have gone Ready while paused (parked reply or
                     rendezvous) and been dropped from the run queue. *)
                  if victim.state = Ready then enqueue k victim;
                  ready k tcb R_unit)
          | Log_dirty { target; enable } -> (
              match find_alive k target with
              | None -> ready k tcb (R_error Dead_partner)
              | Some victim ->
                  (* Arming write-protects the space so first writes show
                     up; one PT sweep either way. *)
                  kburn k k.mach.Machine.arch.Arch.pt_update_cost;
                  if enable then
                    Hashtbl.replace k.log_dirty victim.asid
                      (Hashtbl.create 32)
                  else Hashtbl.remove k.log_dirty victim.asid;
                  ready k tcb R_unit)
          | Dirty_read target -> (
              match find_alive k target with
              | None -> ready k tcb (R_error Dead_partner)
              | Some victim -> (
                  match Hashtbl.find_opt k.log_dirty victim.asid with
                  | None -> ready k tcb (R_error (Bad_argument "not-tracked"))
                  | Some dirty ->
                      let vpns =
                        List.sort compare
                          (Hashtbl.fold (fun v () acc -> v :: acc) dirty [])
                      in
                      Hashtbl.reset dirty;
                      (* Harvest re-protects each page for the next
                         round. *)
                      kburn k
                        (List.length vpns
                        * k.mach.Machine.arch.Arch.pt_update_cost);
                      ready k tcb (R_vpns vpns)))
       with e ->
         Accounts.restore acc prev;
         raise e);
      Accounts.restore acc prev

(* --- Fibers --- *)

(* A thread that returns, or has nothing left to run, exits; one that
   raises crashes. *)
let finish k (tcb : tcb) = function
  | None -> terminate k tcb
  | Some exn ->
      Counter.incr k.mach.Machine.counters "uk.thread.crashed";
      Logs.debug (fun m ->
          m "ukernel: thread %s crashed: %s" tcb.name (Printexc.to_string exn));
      terminate k tcb

(* --- Interrupt delivery --- *)

(* The second word rides free (within Costs.free_words) and carries the
   number of device events behind this single wake — the deferred-notify
   count a polling handler can trust without re-reading the device. *)
let irq_message ?(burst = 1) line =
  msg Proto.interrupt ~items:[ Words [| line; burst |] ]

let deliver_irqs k =
  let irq = k.mach.Machine.irq in
  for line = 0 to Irq.lines irq - 1 do
    match Hashtbl.find_opt k.irq_handlers line with
    | Some handler_tid
      when Irq.is_pending irq line && not (Irq.is_masked irq line) -> begin
        (* Deliverability: line pending and the handler is receptive. *)
        match find_alive k handler_tid with
        | Some handler -> begin
            match handler.state with
            | Blocked_recv filter when filter_matches filter (irq_tid line) ->
                let burst = max 1 (Irq.burst irq line) in
                Irq.ack irq line;
                let arch = k.mach.Machine.arch in
                (* Flattened [kcharged] (E21): a plain burn cannot
                   raise. *)
                let acc = k.mach.Machine.accounts in
                let prev = Accounts.swap acc kernel_account in
                kburn k
                  (arch.Arch.irq_entry_cost + Costs.irq_to_ipc
                 + arch.Arch.irq_eoi_cost);
                Accounts.restore acc prev;
                Counter.incr_id k.mach.Machine.counters k.ids.id_irq_delivered;
                ready k handler (R_msg (irq_tid line, irq_message ~burst line))
            | Ready | Running | Blocked_send _ | Blocked_recv _
            | Blocked_call _ | Sleeping | Dead ->
                ()
          end
        | None -> ()
      end
    | Some _ | None -> ()
  done

(* --- Scheduling --- *)

let rec pick_from_queue q =
  match Queue.take_opt q with
  | None -> None
  | Some tcb when tcb.state = Ready && not tcb.paused -> Some tcb
  (* A paused Ready thread leaves the queue here; Thread_resume
     re-enqueues it. *)
  | Some _ -> pick_from_queue q

let pick k =
  let rec scan prio =
    if prio >= priorities then None
    else
      match pick_from_queue k.queues.(prio) with
      | Some tcb -> Some tcb
      | None -> scan (prio + 1)
  in
  scan 0

(* For the tickless burst rule ([Exec.slice]): could any other thread
   take the core mid-burst? *)
let sole_runnable k (tcb : tcb) =
  let sole = ref true in
  Hashtbl.iter
    (fun _ (o : tcb) ->
      if o != tcb && o.state = Ready && not o.paused then sole := false)
    k.tcbs;
  !sole

let dispatch k (tcb : tcb) =
  if tcb.asid <> k.current_asid then begin
    (* Flattened [kcharged] (E21): resolve the space before swapping so
       the only bracketed work is [Mmu.switch_space], which cannot
       raise. *)
    let space = space_exn k tcb.asid in
    let acc = k.mach.Machine.accounts in
    let prev = Accounts.swap acc kernel_account in
    Mmu.switch_space k.mach space;
    Accounts.restore acc prev;
    k.current_asid <- tcb.asid;
    Counter.incr_id k.mach.Machine.counters k.ids.id_space_switch
  end;
  tcb.state <- Running;
  Accounts.switch_to k.mach.Machine.accounts tcb.account;
  if tcb.burn_left > 0 then begin
    let step = Exec.slice k.mach ~sole:sole_runnable k tcb tcb.burn_left in
    tcb.burn_left <- tcb.burn_left - step;
    if tcb.state = Running then begin
      tcb.state <- Ready;
      enqueue k tcb
    end
  end
  else Fiber.resume tcb.fiber ~call:handle_syscall ~finish k tcb

let run ?until ?max_dispatches k =
  Exec.run k.mach ~irqs:deliver_irqs ~pick ~dispatch ?until ?max_dispatches k
