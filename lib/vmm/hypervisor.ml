open Hcall
module Machine = Vmk_hw.Machine
module Arch = Vmk_hw.Arch
module Addr = Vmk_hw.Addr
module Frame = Vmk_hw.Frame
module Page_table = Vmk_hw.Page_table
module Mmu = Vmk_hw.Mmu
module Irq = Vmk_hw.Irq
module Tlb = Vmk_hw.Tlb
module Cache = Vmk_hw.Cache
module Segments = Vmk_hw.Segments
module Accounts = Vmk_trace.Accounts
module Counter = Vmk_trace.Counter
module Engine = Vmk_sim.Engine
module Exec = Vmk_hw.Exec
module Cap = Vmk_cap.Cap

module Fiber = Exec.Fiber (struct
  type call = hcall
  type reply = hreply
  type _ Effect.t += Invoke = Hcall.Invoke
end)

let vmm_account = "vmm"
let vmm_hole = Addr.range ~start:0xF000_0000 ~len:0x1000_0000

type chan_state =
  | Unbound of { allowed : domid }
  | Bound of { remote_dom : domid; remote_port : port }
  | Virq of int  (** Physical IRQ line routed to this port. *)
  | Xs_watch of string  (** XenStore watch on a path prefix. *)

type grant_entry = {
  g_frame : Frame.frame;
  g_to : domid;
  g_readonly : bool;
  mutable g_mapped_by : domid list;
}

type dom_state = Ready | Running | Blocked | Dead

type pt_mode =
  | Paravirt  (** Validated hypercalls update the real page table (Xen). *)
  | Shadow
      (** The guest writes its own table; the write traps and the VMM
          synchronises a shadow (full-virtualisation style). *)

type domain = {
  domid : domid;
  name : string;
  privileged : bool;
  weight : int;  (** Scheduler share (stride scheduling); default 256. *)
  pt_mode : pt_mode;
  mutable pass : int64;  (** Stride-scheduler virtual time. *)
  mutable state : dom_state;
  fiber : Fiber.t;
  ports : (port, chan_state) Hashtbl.t;
  pending_events : (port, unit) Hashtbl.t;
  grants : (gref, grant_entry) Hashtbl.t;
  space : Page_table.t;
  segments : Segments.t;
  mutable int80_direct : bool;
  mutable next_port : int;
  mutable next_gref : int;
  mutable block_token : int;
  mutable burn_left : int;
      (** Remaining guest computation, consumed one timeslice per
          dispatch so compute-bound domains cannot starve I/O domains
          (models timer preemption). *)
  mutable paused : bool;
      (** Excluded from scheduling; events accumulate (E20 quiesce). *)
  mutable log_dirty_on : bool;
  dirty : (int, unit) Hashtbl.t;
      (** Dirty-vpn set while log-dirty mode is armed (E20 pre-copy). *)
}

(* What drove the current capability teardown — decides which counter a
   dying mapping lands on (voluntary unmap vs revocation cascade vs
   domain death), E19. *)
type cap_ctx = Ctx_none | Ctx_unmap | Ctx_revoke | Ctx_kill of domid

(* Hot-path counter ids, interned once at {!create} so the per-packet
   and per-hypercall paths bump a preallocated array cell instead of
   hashing a string (E21). Cold events (domain lifecycle, xenstore,
   faults) keep the string API. *)
type hot_ids = {
  id_hypercall : int;
  id_upcall : int;
  id_evtchn_send : int;
  id_grant_map : int;
  id_grant_unmap : int;
  id_grant_copy : int;
  id_grant_transitive : int;
  id_page_flip : int;
  id_syscall_fast : int;
  id_syscall_bounce : int;
  id_pt_update : int;
  id_shadow_sync : int;
  id_world_switch : int;
  id_irq : int;
}

type t = {
  mach : Machine.t;
  ids : hot_ids;
  domains : (domid, domain) Hashtbl.t;
  irq_routes : (int, domid * port) Hashtbl.t;
  xenstore : (string, string) Hashtbl.t;
  mutable xs_watches : (string * domid * port) list;
      (** (path prefix, watcher, port to pend on writes underneath). *)
  mutable next_domid : int;
  mutable next_asid : int;
  mutable last_domid : domid;
  caps : Cap.t;
      (** E19: every grant entry and every live grant mapping is backed
          by a capability; [grant_revoke] cascades through the
          derivation tree. *)
  grant_handles : (domid * gref, Cap.handle) Hashtbl.t;
      (** (granter, gref) -> grant capability. *)
  map_handles : (domid * domid * gref, Cap.handle) Hashtbl.t;
      (** (mapper, granter, gref) -> map capability; stacked
          [Hashtbl.add] bindings, one per live mapping instance. *)
  mapped_frame : (domid * int, Cap.handle) Hashtbl.t;
      (** (mapper, frame index) -> map capability — the transitive-grant
          lookup: a domain may re-grant a frame it holds mapped. *)
  mutable cap_ctx : cap_ctx;
}

type stop_reason = Exec.stop_reason = Idle | Condition | Dispatch_limit

let create mach =
  let c = mach.Machine.counters in
  {
    mach;
    ids =
      {
        id_hypercall = Counter.id c "vmm.hypercall";
        id_upcall = Counter.id c "vmm.upcall";
        id_evtchn_send = Counter.id c "vmm.evtchn_send";
        id_grant_map = Counter.id c "vmm.grant_map";
        id_grant_unmap = Counter.id c "vmm.grant_unmap";
        id_grant_copy = Counter.id c "vmm.grant_copy";
        id_grant_transitive = Counter.id c "vmm.grant_transitive";
        id_page_flip = Counter.id c "vmm.page_flip";
        id_syscall_fast = Counter.id c "vmm.syscall_fast";
        id_syscall_bounce = Counter.id c "vmm.syscall_bounce";
        id_pt_update = Counter.id c "vmm.pt_update";
        id_shadow_sync = Counter.id c "vmm.shadow_sync";
        id_world_switch = Counter.id c "vmm.world_switch";
        id_irq = Counter.id c "vmm.irq";
      };
    domains = Hashtbl.create 8;
    irq_routes = Hashtbl.create 8;
    xenstore = Hashtbl.create 32;
    xs_watches = [];
    next_domid = 0;
    next_asid = 1;
    last_domid = -1;
    caps =
      Cap.create ~counters:mach.Machine.counters
        ~burn:(fun c -> Machine.burn mach c)
        ();
    grant_handles = Hashtbl.create 64;
    map_handles = Hashtbl.create 64;
    mapped_frame = Hashtbl.create 64;
    cap_ctx = Ctx_none;
  }

let with_cap_ctx h ctx f =
  let saved = h.cap_ctx in
  h.cap_ctx <- ctx;
  Fun.protect ~finally:(fun () -> h.cap_ctx <- saved) f

let find h domid = Hashtbl.find_opt h.domains domid

let find_alive h domid =
  match find h domid with
  | Some d when d.state <> Dead -> Some d
  | Some _ | None -> None

let ready h d reply =
  ignore h;
  match d.state with
  | Dead -> ()
  | Ready -> Fiber.set_reply d.fiber reply
  | Running | Blocked ->
      Fiber.set_reply d.fiber reply;
      d.state <- Ready

let create_domain h ~name ?(privileged = false) ?(weight = 256)
    ?(pt_mode = Paravirt) body =
  if weight < 1 then invalid_arg "Hypervisor.create_domain: weight < 1";
  let domid = h.next_domid in
  h.next_domid <- h.next_domid + 1;
  let asid = h.next_asid in
  h.next_asid <- h.next_asid + 1;
  let d =
    {
      domid;
      name;
      privileged;
      weight;
      pt_mode;
      pass = 0L;
      state = Ready;
      fiber = Fiber.create ~reply:R_unit body;
      ports = Hashtbl.create 8;
      pending_events = Hashtbl.create 8;
      grants = Hashtbl.create 16;
      space = Page_table.create ~asid;
      segments = Segments.create ~user_limit:vmm_hole.Addr.start;
      int80_direct = false;
      next_port = 1;
      next_gref = 1;
      block_token = 0;
      burn_left = 0;
      paused = false;
      log_dirty_on = false;
      dirty = Hashtbl.create 32;
    }
  in
  Hashtbl.add h.domains domid d;
  Counter.incr h.mach.Machine.counters "vmm.domain_create";
  domid

let is_alive h domid = find_alive h domid <> None

(* --- driver-domain supervision --- *)

type supervisor = {
  mutable current : domid;
  mutable restarts : (int64 * domid) list;  (** Newest first. *)
  sup_stop : bool ref;
}

let supervised_domid s = s.current
let restarts s = List.rev s.restarts
let stop_supervisor s = s.sup_stop := true

let supervise h ~name ?(privileged = false) ~period ~make_body domid0 =
  let sup = { current = domid0; restarts = []; sup_stop = ref false } in
  let n = ref 0 in
  let engine = h.mach.Machine.engine in
  Engine.every engine period (fun () ->
      if !(sup.sup_stop) then false
      else begin
        if not (is_alive h sup.current) then begin
          incr n;
          let domid =
            create_domain h ~name ~privileged (make_body ~restart:!n)
          in
          sup.current <- domid;
          sup.restarts <- (Engine.now engine, domid) :: sup.restarts;
          Counter.incr h.mach.Machine.counters "vmm.supervisor_restart"
        end;
        true
      end);
  sup

let state_name h domid =
  match find h domid with
  | None -> "missing"
  | Some d -> (
      match d.state with
      | Ready -> "ready"
      | Running -> "running"
      | Blocked -> "blocked"
      | Dead -> "dead")

(* --- cost helpers --- *)

let vburn h cycles = Machine.burn h.mach cycles

let touch_region h region = vburn h (Cache.touch h.mach.Machine.icache region)

let hypercall_overhead h region =
  let arch = h.mach.Machine.arch in
  Counter.incr_id h.mach.Machine.counters h.ids.id_hypercall;
  vburn h (arch.Arch.trap_cost + Costs.hypercall_fixed + arch.Arch.kernel_exit_cost);
  touch_region h Costs.dispatch_region;
  touch_region h region

(* --- events --- *)

let collect_events d =
  let ports = Hashtbl.fold (fun p () acc -> p :: acc) d.pending_events [] in
  Hashtbl.reset d.pending_events;
  List.sort compare ports

let wake_with_events h d =
  let ports = collect_events d in
  Counter.incr_id h.mach.Machine.counters h.ids.id_upcall;
  (* Upcall delivery executes on the woken domain's vcpu. Flattened
     account swap: a plain burn cannot raise. *)
  let acc = h.mach.Machine.accounts in
  let prev = Accounts.swap acc d.name in
  vburn h Costs.upcall;
  Accounts.restore acc prev;
  ready h d (R_block (Events ports))

let set_pending h (target : domain) port =
  Hashtbl.replace target.pending_events port ();
  match target.state with
  | Blocked when not target.paused -> wake_with_events h target
  | Blocked | Ready | Running | Dead -> ()

(* --- XenStore (the XenBus handshake registry) --- *)

let xs_prefix_matches ~prefix ~path =
  String.length path >= String.length prefix
  && String.sub path 0 (String.length prefix) = prefix

let do_xs_write h (path : string) value =
  Hashtbl.replace h.xenstore path value;
  Counter.incr h.mach.Machine.counters "vmm.xs_write";
  List.iter
    (fun (prefix, domid, port) ->
      if xs_prefix_matches ~prefix ~path then
        match find_alive h domid with
        | Some watcher -> set_pending h watcher port
        | None -> ())
    h.xs_watches

let do_xs_watch h (d : domain) prefix =
  let port = d.next_port in
  d.next_port <- d.next_port + 1;
  Hashtbl.replace d.ports port (Xs_watch prefix);
  h.xs_watches <- (prefix, d.domid, port) :: h.xs_watches;
  port

let do_evtchn_send h (src : domain) port =
  match Hashtbl.find_opt src.ports port with
  | Some (Bound { remote_dom; remote_port }) -> begin
      match find_alive h remote_dom with
      | Some target ->
          Counter.incr_id h.mach.Machine.counters h.ids.id_evtchn_send;
          vburn h Costs.evtchn_send;
          set_pending h target remote_port;
          R_unit
      | None -> R_error Dead_domain
    end
  | Some (Virq _) | Some (Unbound _) | Some (Xs_watch _) | None ->
      R_error Bad_port

(* --- grants --- *)

(* Capability object namespaces (E19): grant entries and grant mappings
   live in disjoint tagged integer spaces so the teardown hook can route
   each dying cap back to its mechanism. *)
let gobj_tag = 1 lsl 59
let mobj_tag = 1 lsl 58
let gobj ~granter ~gref = gobj_tag lor (granter lsl 24) lor gref

let mobj ~mapper ~granter ~gref =
  mobj_tag lor (mapper lsl 40) lor (granter lsl 24) lor gref

let rec remove_one x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_one x rest

(* Remove the stacked binding [key -> v], preserving the order of the
   other instances. *)
let remove_binding tbl key v =
  let vs = Hashtbl.find_all tbl key in
  List.iter (fun _ -> Hashtbl.remove tbl key) vs;
  List.iter (fun x -> if x <> v then Hashtbl.add tbl key x) (List.rev vs)

(* Revocation hook: fires once per dying capability, children-first.
   A map cap undoes one mapping instance (force-unmap: PTE work plus the
   context-dependent counter); a grant cap deletes its table entry — so
   a grant made from a mapped grant dies with its parent grant. *)
let cap_teardown h (info : Cap.info) ~depth =
  let counters = h.mach.Machine.counters in
  let obj = info.Cap.i_obj in
  if obj land mobj_tag <> 0 then begin
    let mapper = (obj lsr 40) land 0x3_FFFF
    and granter = (obj lsr 24) land 0xFFFF
    and gref = obj land 0xFF_FFFF in
    (match find h granter with
    | Some g -> (
        match Hashtbl.find_opt g.grants gref with
        | Some entry ->
            entry.g_mapped_by <- remove_one mapper entry.g_mapped_by;
            remove_binding h.mapped_frame
              (mapper, entry.g_frame.Frame.index)
              info.Cap.i_handle
        | None -> ())
    | None -> ());
    remove_binding h.map_handles (mapper, granter, gref) info.Cap.i_handle;
    vburn h h.mach.Machine.arch.Arch.pt_update_cost;
    match h.cap_ctx with
    | Ctx_unmap when depth = 0 -> Counter.incr counters "vmm.grant_unmap"
    | Ctx_kill dying when dying = mapper ->
        (* The dying domain's own mappings of peers' grants: the E18
           orphan-unmap sweep, now cap-driven. *)
        Counter.incr counters "vmm.grant_orphan_unmap"
    | Ctx_unmap | Ctx_revoke | Ctx_kill _ | Ctx_none ->
        Counter.incr counters "gnt.revoke_forced"
  end
  else if obj land gobj_tag <> 0 then begin
    let v = obj land lnot gobj_tag in
    let granter = v lsr 24 and gref = v land 0xFF_FFFF in
    (match find h granter with
    | Some g -> Hashtbl.remove g.grants gref
    | None -> ());
    Hashtbl.remove h.grant_handles (granter, gref);
    match h.cap_ctx with
    | (Ctx_revoke | Ctx_unmap | Ctx_kill _) when depth > 0 ->
        (* Transitive grant cut down by an ancestor's revocation. *)
        Counter.incr counters "gnt.revoke_forced"
    | Ctx_revoke | Ctx_unmap | Ctx_kill _ | Ctx_none -> ()
  end

let do_grant h (d : domain) ~to_dom ~frame ~readonly =
  (* E19: besides frames it owns outright, a domain may re-grant a frame
     it currently holds mapped through someone else's grant — the new
     grant's capability derives from the map cap, so it dies with it. *)
  let authority =
    if frame.Frame.owner = d.name then `Owner
    else
      match Hashtbl.find_opt h.mapped_frame (d.domid, frame.Frame.index) with
      | Some mh -> `Mapped mh
      | None -> `None
  in
  match authority with
  | `None -> R_error Permission_denied
  | (`Owner | `Mapped _) as authority ->
      let gref = d.next_gref in
      d.next_gref <- d.next_gref + 1;
      Hashtbl.add d.grants gref
        {
          g_frame = frame;
          g_to = to_dom;
          g_readonly = readonly;
          g_mapped_by = [];
        };
      let obj = gobj ~granter:d.domid ~gref in
      let handle =
        match authority with
        | `Owner -> Cap.mint h.caps ~dom:d.domid ~obj ~rights:Cap.r_full
        | `Mapped mh -> (
            Counter.incr_id h.mach.Machine.counters h.ids.id_grant_transitive;
            match
              Cap.derive h.caps ~dom:d.domid ~handle:mh ~to_dom:d.domid
                ~obj ~rights:Cap.r_full
            with
            | Ok x -> x
            | Error (`No_cap | `Denied) ->
                Cap.mint h.caps ~dom:d.domid ~obj ~rights:Cap.r_full)
      in
      Hashtbl.replace h.grant_handles (d.domid, gref) handle;
      vburn h Costs.grant_check;
      R_gref gref

let do_grant_map h (mapper : domain) ~dom ~gref =
  match find_alive h dom with
  | None -> R_error Dead_domain
  | Some granter -> begin
      match Hashtbl.find_opt granter.grants gref with
      | Some entry when entry.g_to = mapper.domid ->
          entry.g_mapped_by <- mapper.domid :: entry.g_mapped_by;
          let arch = h.mach.Machine.arch in
          Counter.incr_id h.mach.Machine.counters h.ids.id_grant_map;
          vburn h
            (Costs.grant_check + arch.Arch.pt_update_cost
           + arch.Arch.page_map_cost);
          (* The mapping is a child capability of the grant: revoking the
             grant force-unmaps it. *)
          (match Hashtbl.find_opt h.grant_handles (granter.domid, gref) with
          | Some gh -> (
              let rights =
                Cap.r_read
                lor (if entry.g_readonly then 0 else Cap.r_write)
                lor Cap.r_derive lor Cap.r_revoke
              in
              match
                Cap.derive h.caps ~dom:granter.domid ~handle:gh
                  ~to_dom:mapper.domid
                  ~obj:
                    (mobj ~mapper:mapper.domid ~granter:granter.domid ~gref)
                  ~rights
              with
              | Ok mh ->
                  Hashtbl.add h.map_handles
                    (mapper.domid, granter.domid, gref)
                    mh;
                  Hashtbl.add h.mapped_frame
                    (mapper.domid, entry.g_frame.Frame.index)
                    mh
              | Error (`No_cap | `Denied) -> ())
          | None -> ());
          R_frames [ entry.g_frame ]
      | Some _ -> R_error Permission_denied
      | None -> R_error Bad_gref
    end

let do_grant_unmap h (mapper : domain) ~dom ~gref =
  match find_alive h dom with
  | None -> R_unit (* granter died; nothing to unmap against *)
  | Some granter -> begin
      match Hashtbl.find_opt granter.grants gref with
      | Some entry -> (
          match
            Hashtbl.find_all h.map_handles (mapper.domid, granter.domid, gref)
          with
          | [] ->
              (* Cap-less legacy entry: flat bookkeeping. *)
              entry.g_mapped_by <-
                List.filter (fun id -> id <> mapper.domid) entry.g_mapped_by;
              Counter.incr_id h.mach.Machine.counters h.ids.id_grant_unmap;
              vburn h h.mach.Machine.arch.Arch.pt_update_cost;
              R_unit
          | handles ->
              with_cap_ctx h Ctx_unmap (fun () ->
                  List.iter
                    (fun mh ->
                      match
                        Cap.revoke h.caps ~dom:mapper.domid ~handle:mh
                          ~self:true ~on_revoke:(cap_teardown h)
                      with
                      | Ok _ | Error (`No_cap | `Denied) -> ())
                    handles);
              R_unit)
      | None -> R_error Bad_gref
    end

(* E19: revocation always succeeds — outstanding mappings (and grants
   made from them, transitively) are force-unmapped through the
   capability derivation tree instead of failing with Permission_denied. *)
let do_grant_revoke h (d : domain) gref =
  match Hashtbl.find_opt d.grants gref with
  | Some entry -> (
      if entry.g_mapped_by <> [] then
        Counter.incr h.mach.Machine.counters "vmm.grant_revoke_cascade";
      vburn h Costs.grant_check;
      match Hashtbl.find_opt h.grant_handles (d.domid, gref) with
      | Some gh ->
          with_cap_ctx h Ctx_revoke (fun () ->
              match
                Cap.revoke h.caps ~dom:d.domid ~handle:gh ~self:true
                  ~on_revoke:(cap_teardown h)
              with
              | Ok _ | Error (`No_cap | `Denied) -> ());
          R_unit
      | None ->
          Hashtbl.remove d.grants gref;
          R_unit)
  | None -> R_error Bad_gref

let do_grant_transfer h (d : domain) ~to_dom ~frame =
  if frame.Frame.owner <> d.name then R_error Permission_denied
  else
    match find_alive h to_dom with
    | None -> R_error Dead_domain
    | Some target ->
        let arch = h.mach.Machine.arch in
        Frame.transfer h.mach.Machine.frames frame ~to_:target.name;
        Counter.incr_id h.mach.Machine.counters h.ids.id_page_flip;
        (* The flip costs fixed bookkeeping plus two PTE updates and a TLB
           shootdown — independent of how many payload bytes the page
           carries. [CG05]'s central observation. *)
        vburn h
          (Costs.page_flip_fixed
          + (2 * arch.Arch.pt_update_cost)
          + arch.Arch.tlb_refill_cost);
        Tlb.flush_asid h.mach.Machine.tlb ~asid:(Page_table.asid d.space);
        R_unit

(* The netback receive flip: swap a filled local page for a page the peer
   offered through a transfer grant. One hypercall, one page flip. *)
let do_grant_exchange h (d : domain) ~dom ~gref ~give =
  if give.Frame.owner <> d.name then R_error Permission_denied
  else
    match find_alive h dom with
    | None -> R_error Dead_domain
    | Some granter -> begin
        match Hashtbl.find_opt granter.grants gref with
        | Some entry when entry.g_to = d.domid && entry.g_mapped_by = [] ->
            Hashtbl.remove granter.grants gref;
            (* The transfer grant is consumed: retire its capability. *)
            (match Hashtbl.find_opt h.grant_handles (granter.domid, gref) with
            | Some gh -> (
                match
                  Cap.revoke h.caps ~dom:granter.domid ~handle:gh ~self:true
                    ~on_revoke:(cap_teardown h)
                with
                | Ok _ | Error (`No_cap | `Denied) -> ())
            | None -> ());
            Frame.transfer h.mach.Machine.frames entry.g_frame ~to_:d.name;
            Frame.transfer h.mach.Machine.frames give ~to_:granter.name;
            Counter.incr_id h.mach.Machine.counters h.ids.id_page_flip;
            let arch = h.mach.Machine.arch in
            vburn h
              (Costs.page_flip_fixed
              + (4 * arch.Arch.pt_update_cost)
              + arch.Arch.tlb_refill_cost);
            Tlb.flush_asid h.mach.Machine.tlb
              ~asid:(Page_table.asid granter.space);
            Tlb.flush_asid h.mach.Machine.tlb ~asid:(Page_table.asid d.space);
            R_frames [ entry.g_frame ]
        | Some _ -> R_error Permission_denied
        | None -> R_error Bad_gref
      end

(* GNTTABOP_copy: validated copy into a granted page; the tag models the
   payload. *)
let do_grant_copy h (d : domain) ~dom ~gref ~bytes ~tag =
  if bytes < 0 || bytes > Addr.page_size then R_error (Not_virtualisable "size")
  else
    match find_alive h dom with
    | None -> R_error Dead_domain
    | Some granter -> begin
        match Hashtbl.find_opt granter.grants gref with
        | Some entry when entry.g_to = d.domid && not entry.g_readonly ->
            Counter.incr_id h.mach.Machine.counters h.ids.id_grant_copy;
            vburn h (Costs.grant_check + Arch.copy_cost h.mach.Machine.arch ~bytes);
            Frame.set_tag entry.g_frame tag;
            R_unit
        | Some _ -> R_error Permission_denied
        | None -> R_error Bad_gref
      end

(* --- guest syscall path (§3.2) --- *)

let shortcut_valid h (d : domain) =
  let arch = h.mach.Machine.arch in
  d.int80_direct && arch.Arch.has_trap_gates && arch.Arch.has_segmentation
  && Segments.live_segments_exclude d.segments vmm_hole

let do_syscall_trap h (d : domain) =
  let arch = h.mach.Machine.arch in
  if shortcut_valid h d then begin
    (* Straight into the guest kernel: the VMM never runs. *)
    Counter.incr_id h.mach.Machine.counters h.ids.id_syscall_fast;
    let acc = h.mach.Machine.accounts in
    let prev = Accounts.swap acc d.name in
    vburn h (arch.Arch.trap_cost + arch.Arch.kernel_exit_cost);
    Accounts.restore acc prev;
    R_syscall Fast_trap_gate
  end
  else begin
    (* Trap to the hypervisor, bounce into the guest kernel, return via
       the hypervisor again — the IPC-equivalent operation. *)
    Counter.incr_id h.mach.Machine.counters h.ids.id_syscall_bounce;
    vburn h
      (arch.Arch.trap_cost + Costs.syscall_bounce + arch.Arch.kernel_exit_cost
     + arch.Arch.trap_cost + arch.Arch.kernel_exit_cost);
    touch_region h Costs.syscall_bounce_region;
    R_syscall Bounced
  end

(* --- domain death --- *)

let kill_domain_internal h (d : domain) =
  if d.state <> Dead then begin
    d.state <- Dead;
    Fiber.stop d.fiber;
    Hashtbl.reset d.pending_events;
    let lines =
      Hashtbl.fold
        (fun line (domid, _) acc -> if domid = d.domid then line :: acc else acc)
        h.irq_routes []
    in
    List.iter (Hashtbl.remove h.irq_routes) lines;
    h.xs_watches <-
      List.filter (fun (_, domid, _) -> domid <> d.domid) h.xs_watches;
    (* Grant-table ownership hygiene: a destroyed domain must not linger
       in the grant machinery. Mappings it still held of other domains'
       grants are force-unmapped so the granters can revoke and re-grant
       under the next backend generation (before E18 these entries leaked
       and the frontend's revoke failed forever with Permission_denied);
       its own table dies with it. E19 drives this through the capability
       layer first: tearing down every cap the domain owns force-unmaps
       its mappings (vmm.grant_orphan_unmap), cuts down peers' mappings
       of its grants and any grants derived from its mappings
       (gnt.revoke_forced). The flat sweep below remains as the fallback
       for cap-less legacy bookkeeping. *)
    with_cap_ctx h (Ctx_kill d.domid) (fun () ->
        ignore (Cap.revoke_dom h.caps ~dom:d.domid ~on_revoke:(cap_teardown h)));
    let orphans = ref 0 in
    Hashtbl.iter
      (fun _ peer ->
        if peer.domid <> d.domid then
          Hashtbl.iter
            (fun _ entry ->
              if List.mem d.domid entry.g_mapped_by then begin
                entry.g_mapped_by <-
                  List.filter (fun id -> id <> d.domid) entry.g_mapped_by;
                incr orphans
              end)
            peer.grants)
      h.domains;
    if !orphans > 0 then
      Counter.add h.mach.Machine.counters "vmm.grant_orphan_unmap" !orphans;
    Hashtbl.reset d.grants;
    Counter.incr h.mach.Machine.counters "vmm.domain_destroy"
  end

let kill_domain h domid =
  match find h domid with
  | Some d -> kill_domain_internal h d
  | None -> ()

(* --- hypercall dispatch --- *)

(* Hypervisor work performed on behalf of a hypercall runs on the calling
   domain's vcpu and is charged to it, as Xen's accounting does; only
   world switches and physical-IRQ routing land on the anonymous "vmm"
   account. (The old [caller_charged] wrapper was an identity whose only
   effect was allocating a closure per hypercall — E21 removed it.) *)

let handle_hypercall h (d : domain) call =
  match call with
  | _ when d.state = Dead ->
      (* Killed mid-burn by fault injection: abandoned at the next trap. *)
      ()
  | H_burn n ->
      (* Sliced across dispatches: see [Exec.slice]. *)
      d.burn_left <- max 0 n;
      ready h d R_unit
  | H_dom_id ->
      ( hypercall_overhead h Costs.dispatch_region);
      ready h d (R_domid d.domid)
  | H_yield ->
      ( hypercall_overhead h Costs.sched_region);
      ready h d R_unit
  | H_block { timeout } ->
      (
          hypercall_overhead h Costs.sched_region;
          if Hashtbl.length d.pending_events > 0 then
            ready h d (R_block (Events (collect_events d)))
          else begin
            d.state <- Blocked;
            d.block_token <- d.block_token + 1;
            let token = d.block_token in
            match timeout with
            | Some cycles ->
                Engine.after h.mach.Machine.engine cycles (fun () ->
                    if d.state = Blocked && d.block_token = token then
                      ready h d (R_block Timed_out))
            | None -> ()
          end)
  | H_alloc_frames n ->
      (
          hypercall_overhead h Costs.memory_region;
          if n <= 0 then ready h d (R_error Out_of_memory)
          else
            match Frame.alloc_many h.mach.Machine.frames ~owner:d.name n with
            | frames ->
                vburn h (n * h.mach.Machine.arch.Arch.page_map_cost);
                ready h d (R_frames frames)
            | exception Frame.Out_of_frames -> ready h d (R_error Out_of_memory))
  | H_evtchn_alloc_unbound allowed ->
      (
          hypercall_overhead h Costs.evtchn_region;
          let port = d.next_port in
          d.next_port <- d.next_port + 1;
          Hashtbl.add d.ports port (Unbound { allowed });
          ready h d (R_port port))
  | H_evtchn_bind { remote_dom; remote_port } ->
      (
          hypercall_overhead h Costs.evtchn_region;
          match find_alive h remote_dom with
          | None -> ready h d (R_error Dead_domain)
          | Some peer -> (
              match Hashtbl.find_opt peer.ports remote_port with
              | Some (Unbound { allowed }) when allowed = d.domid ->
                  let local = d.next_port in
                  d.next_port <- d.next_port + 1;
                  Hashtbl.replace d.ports local
                    (Bound { remote_dom; remote_port });
                  Hashtbl.replace peer.ports remote_port
                    (Bound { remote_dom = d.domid; remote_port = local });
                  ready h d (R_port local)
              | Some _ | None -> ready h d (R_error Bad_port)))
  | H_evtchn_send port ->
      (
          hypercall_overhead h Costs.evtchn_region;
          ready h d (do_evtchn_send h d port))
  | H_irq_bind line ->
      (
          hypercall_overhead h Costs.irq_region;
          if not d.privileged then ready h d (R_error Permission_denied)
          else if line < 0 || line >= Irq.lines h.mach.Machine.irq then
            ready h d (R_error Bad_port)
          else begin
            let port = d.next_port in
            d.next_port <- d.next_port + 1;
            Hashtbl.replace d.ports port (Virq line);
            Hashtbl.replace h.irq_routes line (d.domid, port);
            ready h d (R_port port)
          end)
  | H_gnttab_grant { to_dom; frame; readonly } ->
      (* Shared-memory grant-table write: no trap. *)
      ( ready h d (do_grant h d ~to_dom ~frame ~readonly))
  | H_gnttab_revoke gref ->
      ( ready h d (do_grant_revoke h d gref))
  | H_gnttab_map { dom; gref } ->
      (
          hypercall_overhead h Costs.grant_map_region;
          ready h d (do_grant_map h d ~dom ~gref))
  | H_gnttab_unmap { dom; gref } ->
      (
          hypercall_overhead h Costs.grant_map_region;
          ready h d (do_grant_unmap h d ~dom ~gref))
  | H_gnttab_transfer { to_dom; frame } ->
      (
          hypercall_overhead h Costs.grant_transfer_region;
          ready h d (do_grant_transfer h d ~to_dom ~frame))
  | H_gnttab_exchange { dom; gref; give } ->
      (
          hypercall_overhead h Costs.grant_transfer_region;
          ready h d (do_grant_exchange h d ~dom ~gref ~give))
  | H_gnttab_copy { dom; gref; bytes; tag } ->
      (
          hypercall_overhead h Costs.grant_map_region;
          ready h d (do_grant_copy h d ~dom ~gref ~bytes ~tag))
  | H_pt_map { frame; vpn; writable } ->
      (
          let arch = h.mach.Machine.arch in
          (match d.pt_mode with
          | Paravirt ->
              hypercall_overhead h Costs.pt_region;
              vburn h (Costs.pt_validate + arch.Arch.pt_update_cost)
          | Shadow ->
              (* The guest's native PTE write faults on the write-protected
                 page table; the VMM decodes it and updates both the guest
                 table and the shadow. *)
              Counter.incr_id h.mach.Machine.counters h.ids.id_shadow_sync;
              vburn h
                (arch.Arch.trap_cost + arch.Arch.kernel_exit_cost
               + Costs.shadow_sync
                + (2 * arch.Arch.pt_update_cost));
              touch_region h Costs.pt_region);
          if frame.Frame.owner <> d.name then
            ready h d (R_error Permission_denied)
          else begin
            Page_table.map d.space ~vpn frame ~writable ~user:true;
            Counter.incr_id h.mach.Machine.counters h.ids.id_pt_update;
            ready h d R_unit
          end)
  | H_pt_unmap vpn ->
      (
          let arch = h.mach.Machine.arch in
          (match d.pt_mode with
          | Paravirt ->
              hypercall_overhead h Costs.pt_region;
              vburn h (Costs.pt_validate + arch.Arch.pt_update_cost)
          | Shadow ->
              Counter.incr_id h.mach.Machine.counters h.ids.id_shadow_sync;
              vburn h
                (arch.Arch.trap_cost + arch.Arch.kernel_exit_cost
               + Costs.shadow_sync
                + (2 * arch.Arch.pt_update_cost));
              touch_region h Costs.pt_region);
          ignore (Page_table.unmap d.space ~vpn);
          Tlb.invalidate h.mach.Machine.tlb ~asid:(Page_table.asid d.space) ~vpn;
          Counter.incr_id h.mach.Machine.counters h.ids.id_pt_update;
          ready h d R_unit)
  | H_pt_batch ops ->
      (
          let arch = h.mach.Machine.arch in
          let apply op =
            match op with
            | Pt_map { bframe; bvpn; bwritable } ->
                if bframe.Frame.owner = d.name then begin
                  Page_table.map d.space ~vpn:bvpn bframe ~writable:bwritable
                    ~user:true;
                  Counter.incr_id h.mach.Machine.counters h.ids.id_pt_update
                end
            | Pt_unmap vpn ->
                ignore (Page_table.unmap d.space ~vpn);
                Tlb.invalidate h.mach.Machine.tlb
                  ~asid:(Page_table.asid d.space) ~vpn;
                Counter.incr_id h.mach.Machine.counters h.ids.id_pt_update
          in
          (match d.pt_mode with
          | Paravirt ->
              (* One trap amortised over the whole batch. *)
              hypercall_overhead h Costs.pt_region;
              List.iter
                (fun op ->
                  vburn h (Costs.pt_validate + arch.Arch.pt_update_cost);
                  apply op)
                ops
          | Shadow ->
              (* Native PTE writes cannot be batched: each one faults. *)
              List.iter
                (fun op ->
                  Counter.incr_id h.mach.Machine.counters h.ids.id_shadow_sync;
                  vburn h
                    (arch.Arch.trap_cost + arch.Arch.kernel_exit_cost
                   + Costs.shadow_sync
                    + (2 * arch.Arch.pt_update_cost));
                  touch_region h Costs.pt_region;
                  apply op)
                ops);
          ready h d R_unit)
  | H_set_trap_table { int80_direct } ->
      (
          hypercall_overhead h Costs.trap_region;
          d.int80_direct <- int80_direct;
          ready h d R_unit)
  | H_load_segment (sel, desc) ->
      (
          (* Paravirtualised descriptor update: a real hypercall. *)
          hypercall_overhead h Costs.trap_region;
          vburn h h.mach.Machine.arch.Arch.segment_reload_cost;
          Segments.load d.segments sel desc;
          ready h d R_unit)
  | H_syscall_trap -> ready h d (do_syscall_trap h d)
  | H_xs_write { path; value } ->
      (
          hypercall_overhead h Costs.dispatch_region;
          do_xs_write h path value;
          ready h d R_unit)
  | H_xs_read path ->
      (
          hypercall_overhead h Costs.dispatch_region;
          ready h d (R_xs (Hashtbl.find_opt h.xenstore path)))
  | H_xs_rm path ->
      (
          hypercall_overhead h Costs.dispatch_region;
          Hashtbl.remove h.xenstore path;
          ready h d R_unit)
  | H_xs_watch prefix ->
      (
          hypercall_overhead h Costs.evtchn_region;
          ready h d (R_port (do_xs_watch h d prefix)))
  | H_dom_create { cd_name; cd_privileged; cd_weight; cd_body } ->
      (
          hypercall_overhead h Costs.domctl_region;
          if not d.privileged then ready h d (R_error Permission_denied)
          else if cd_weight < 1 then
            ready h d (R_error (Not_virtualisable "weight"))
          else begin
            vburn h Costs.domain_build;
            let domid =
              create_domain h ~name:cd_name ~privileged:cd_privileged
                ~weight:cd_weight cd_body
            in
            ready h d (R_domid domid)
          end)
  | H_dom_alive domid ->
      (
          hypercall_overhead h Costs.domctl_region;
          ready h d (R_bool (is_alive h domid)))
  | H_dom_pause domid ->
      (
          hypercall_overhead h Costs.domctl_region;
          if not d.privileged then ready h d (R_error Permission_denied)
          else
            match find_alive h domid with
            | None -> ready h d (R_error Dead_domain)
            | Some target ->
                target.paused <- true;
                Counter.incr h.mach.Machine.counters "vmm.dom_pause";
                ready h d R_unit)
  | H_dom_unpause domid ->
      (
          hypercall_overhead h Costs.domctl_region;
          if not d.privileged then ready h d (R_error Permission_denied)
          else
            match find_alive h domid with
            | None -> ready h d (R_error Dead_domain)
            | Some target ->
                target.paused <- false;
                (* Events that arrived while paused were parked; deliver
                   the accumulated batch now. *)
                if target.state = Blocked
                   && Hashtbl.length target.pending_events > 0
                then wake_with_events h target;
                ready h d R_unit)
  | H_log_dirty { ld_dom; ld_enable } ->
      (
          hypercall_overhead h Costs.domctl_region;
          if not d.privileged then ready h d (R_error Permission_denied)
          else
            match find_alive h ld_dom with
            | None -> ready h d (R_error Dead_domain)
            | Some target ->
                (* Arming write-protects the domain's pages so first
                   writes trap; one PT sweep either way. *)
                vburn h h.mach.Machine.arch.Arch.pt_update_cost;
                target.log_dirty_on <- ld_enable;
                Hashtbl.reset target.dirty;
                ready h d R_unit)
  | H_dirty_read domid ->
      (
          hypercall_overhead h Costs.domctl_region;
          if not d.privileged then ready h d (R_error Permission_denied)
          else
            match find_alive h domid with
            | None -> ready h d (R_error Dead_domain)
            | Some target ->
                let vpns =
                  List.sort compare
                    (Hashtbl.fold (fun v () acc -> v :: acc) target.dirty [])
                in
                Hashtbl.reset target.dirty;
                (* Harvest test-and-clears the bitmap and re-protects
                   each page for the next round. *)
                vburn h
                  (List.length vpns * h.mach.Machine.arch.Arch.pt_update_cost);
                ready h d (R_vpns vpns))
  | H_touch_page { tp_vpn; tp_write } ->
      (* The model's stand-in for a guest load/store: free while
         untracked, one protection-fault trap on the first write to a
         clean page while log-dirty is armed. *)
      if d.log_dirty_on && tp_write && not (Hashtbl.mem d.dirty tp_vpn)
      then begin
        Hashtbl.replace d.dirty tp_vpn ();
        Counter.incr h.mach.Machine.counters "vmm.logdirty_fault";
        let arch = h.mach.Machine.arch in
        Accounts.with_account h.mach.Machine.accounts vmm_account (fun () ->
            vburn h (arch.Arch.trap_cost + arch.Arch.pt_update_cost))
      end;
      ready h d R_unit
  | H_exit -> kill_domain_internal h d

(* --- fibers --- *)

(* A domain whose body returns, or has nothing left to run, is
   destroyed; one that raises crashes. *)
let finish h (d : domain) = function
  | None -> kill_domain_internal h d
  | Some exn ->
      Counter.incr h.mach.Machine.counters "vmm.domain_crashed";
      Logs.debug (fun m ->
          m "vmm: domain %s crashed: %s" d.name (Printexc.to_string exn));
      kill_domain_internal h d

(* --- physical interrupt routing --- *)

let route_irqs h =
  let irq = h.mach.Machine.irq in
  for line = 0 to Irq.lines irq - 1 do
    if Irq.is_pending irq line && not (Irq.is_masked irq line) then
      match Hashtbl.find_opt h.irq_routes line with
      | Some (domid, port) -> begin
          match find_alive h domid with
          | Some d ->
              Irq.ack irq line;
              let arch = h.mach.Machine.arch in
              let acc = h.mach.Machine.accounts in
              let prev = Accounts.swap acc vmm_account in
              Counter.incr_id h.mach.Machine.counters h.ids.id_irq;
              vburn h
                (arch.Arch.irq_entry_cost + Costs.irq_route
               + arch.Arch.irq_eoi_cost);
              set_pending h d port;
              Accounts.restore acc prev
          | None -> Irq.ack irq line
        end
      | None -> ()
  done

(* --- scheduling --- *)

(* Stride scheduling (Waldspurger): among runnable domains pick the one
   with the smallest pass; advance its pass by stride x time consumed.
   Equal weights degrade to round-robin; a boosted driver domain (see
   ablation A5) gets a proportionally larger CPU share. *)
let stride_numerator = 1_000_000L

let pick h =
  let best = ref None in
  Hashtbl.iter
    (fun _ d ->
      if d.state = Ready && not d.paused then
        match !best with
        | Some b
          when Int64.compare b.pass d.pass < 0
               || (Int64.compare b.pass d.pass = 0 && b.domid <= d.domid) ->
            ()
        | Some _ | None -> best := Some d)
    h.domains;
  !best

let charge_pass h d ~cycles =
  ignore h;
  (* One pass unit per 1k cycles, scaled by 1/weight. *)
  let units = Int64.of_int (max 1 (Int64.to_int cycles / 1000)) in
  let stride = Int64.div stride_numerator (Int64.of_int d.weight) in
  d.pass <- Int64.add d.pass (Int64.mul stride units)

(* For the tickless burst rule ([Exec.slice]): could any other domain
   take the core mid-burst? *)
let sole_runnable h (d : domain) =
  let sole = ref true in
  Hashtbl.iter
    (fun _ o ->
      if o != d && o.state = Ready && not o.paused then sole := false)
    h.domains;
  !sole

let dispatch h (d : domain) =
  let t0 = Machine.now h.mach in
  if d.domid <> h.last_domid then begin
    let arch = h.mach.Machine.arch in
    let acc = h.mach.Machine.accounts in
    let prev = Accounts.swap acc vmm_account in
    Counter.incr_id h.mach.Machine.counters h.ids.id_world_switch;
    vburn h arch.Arch.world_switch_cost;
    Mmu.switch_space h.mach d.space;
    Accounts.restore acc prev;
    h.last_domid <- d.domid
  end;
  d.state <- Running;
  Accounts.switch_to h.mach.Machine.accounts d.name;
  (if d.burn_left > 0 then begin
     let step = Exec.slice h.mach ~sole:sole_runnable h d d.burn_left in
     d.burn_left <- d.burn_left - step;
     if d.state = Running then
       (* Still alive (fault injection may have killed it mid-burn). *)
       d.state <- Ready
   end
   else Fiber.resume d.fiber ~call:handle_hypercall ~finish h d);
  charge_pass h d ~cycles:(Int64.sub (Machine.now h.mach) t0)

let run ?until ?max_dispatches h =
  Exec.run h.mach ~irqs:route_irqs ~pick ~dispatch ?until ?max_dispatches h
