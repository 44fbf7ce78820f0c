module Machine = Vmk_hw.Machine
module Addr = Vmk_hw.Addr
module Counter = Vmk_trace.Counter
module Kernel = Vmk_ukernel.Kernel
module Sysif = Vmk_ukernel.Sysif
module Pager = Vmk_ukernel.Pager
module Proto = Vmk_ukernel.Proto
module Faults = Vmk_faults.Faults
module Image = Migrate.Image
module Workload = Migrate.Workload

let base_vpn = 0x5000
(* Where the task's image lives in its address space; the pager maps
   frames here on first touch. *)

(* The sink: record every caller's label, reply ok. Blocking in Recv
   forever is fine — an idle sink does not keep the kernel running. *)
let sink_body ~log () =
  let rec loop (incoming : Sysif.tid * Sysif.msg) =
    let caller, m = incoming in
    log := m.Sysif.label :: !log;
    match Sysif.reply_wait caller (Sysif.msg Proto.ok) with
    | next -> loop next
    | exception Sysif.Ipc_error _ -> loop (Sysif.recv Sysif.Any)
  in
  match Sysif.recv Sysif.Any with
  | incoming -> loop incoming
  | exception Sysif.Ipc_error _ -> ()

(* Fault the whole image window in through the pager (one touch per
   page boundary) and count the capability handles that arrived with
   the map items. *)
let fault_in ~pages =
  Sysif.touch ~addr:(Addr.of_vpn base_vpn) ~len:(pages * Addr.page_size)
    ~write:true;
  List.length
    (List.filter_map
       (fun i -> Sysif.cap_lookup ~vpn:(base_vpn + i))
       (List.init pages Fun.id))

let task_prims ~sink =
  {
    Migrate.g_touch =
      (fun ~vpn ~write ->
        Sysif.touch ~addr:(Addr.of_vpn (base_vpn + vpn)) ~len:1 ~write);
    g_burn = Sysif.burn;
    g_send =
      (fun ~seq ->
        match Sysif.call ~timeout:2_000_000L sink (Sysif.msg seq) with
        | _ -> true
        | exception Sysif.Ipc_error _ -> false);
    g_wait = (fun () -> Sysif.sleep 20_000L);
    g_drain = (fun () -> ());
  }

let migrate ?(pages = 64) ?(steps = 400) ?(w = Workload.make ())
    ?(cfg = Migrate.precopy ()) ?abort_at ?(plan = []) () =
  let seed = 53L in
  let sends = Migrate.total_sends ~steps in
  (* --- source kernel --- *)
  let mach = Machine.create ~seed () in
  let k = Kernel.create mach in
  let pager =
    Kernel.spawn k ~name:"pager" ~priority:2 (Pager.body ~pool_pages:(pages + 4))
  in
  let src_log = ref [] in
  let sink = Kernel.spawn k ~name:"sink" ~priority:3 (sink_body ~log:src_log) in
  let image = Image.create ~pages in
  let staging = Image.create ~pages in
  let q = Migrate.quiesce () in
  let g_done = ref false in
  let handles_src = ref 0 in
  let task =
    Kernel.spawn k ~name:"task" ~pager (fun () ->
        handles_src := fault_in ~pages;
        Migrate.guest_run ~image ~w ~prims:(task_prims ~sink) ~q
          ~until_step:steps;
        g_done := true)
  in
  let session =
    Migrate.session ?abort_at
      ~link:(Migrate.link ~page_cost:2_000 ~state_cost:4_000 ())
      ()
  in
  let outcome = ref None in
  let paused = ref false in
  let staged_handles = ref 0 in
  let in_window v = v >= base_vpn && v < base_vpn + pages in
  let ops =
    {
      Migrate.o_now = (fun () -> Machine.now mach);
      (* Wire time, not daemon CPU — see {!Mig_vmm}. *)
      o_burn = (fun n -> if n > 0 then Sysif.sleep (Int64.of_int n));
      o_log_dirty =
        (fun enable ->
          if Kernel.is_alive k task then Sysif.log_dirty ~target:task ~enable);
      o_dirty_read =
        (fun () ->
          List.filter_map
            (fun v -> if in_window v then Some (v - base_vpn) else None)
            (Sysif.dirty_read task));
      o_quiesce =
        (fun () ->
          q.Migrate.q_req <- true;
          while not (q.Migrate.q_ack || !g_done) do
            Sysif.sleep 20_000L
          done;
          if not !g_done then begin
            Sysif.thread_pause task;
            paused := true
          end);
      o_resume =
        (fun () ->
          q.Migrate.q_req <- false;
          if !paused then begin
            paused := false;
            Sysif.thread_resume task
          end);
      o_state_xfer = (fun () -> staged_handles := !handles_src);
      o_commit = (fun () -> if Kernel.is_alive k task then Kernel.kill k task);
    }
  in
  let t_start = ref 0L and t_end = ref 0L in
  let _migd =
    Kernel.spawn k ~name:"migd" ~priority:1 (fun () ->
        Sysif.sleep 200_000L;
        (* Gate on progress so the migration catches the task mid-run. *)
        while not (!g_done || image.Image.step * 3 >= steps) do
          Sysif.sleep 20_000L
        done;
        t_start := Machine.now mach;
        outcome := Some (Migrate.run ~cfg ~session ~src:image ~staging ~ops);
        t_end := Machine.now mach)
  in
  let armed =
    if plan = [] then None
    else
      Some
        (Faults.arm plan mach
           ~migration:(Migrate.inject session)
           ~kill:(fun target -> if target = "task" then Kernel.kill k task))
  in
  let src_expected () =
    match !outcome with
    | None -> -1
    | Some (Migrate.Completed _) -> staging.Image.sent
    | Some (Migrate.Aborted _) -> if !g_done then sends else -1
  in
  ignore
    (Kernel.run k ~max_dispatches:3_000_000 ~until:(fun () ->
         let e = src_expected () in
         e >= 0 && List.length !src_log >= e));
  ignore (Kernel.run k ~max_dispatches:300_000);
  Option.iter (fun a -> Faults.disarm a mach) armed;
  let out =
    match !outcome with
    | Some o -> o
    | None ->
        Migrate.Aborted { a_phase = Migrate.Setup; a_reason = Migrate.Src_dead }
  in
  let finish ~survivor ~img ~dst_log ~handles ~dst =
    Migrate.result ~src:mach ~dst ~outcome:out ~image:img ~survivor
      ~src_log:(List.rev !src_log) ~dst_log ~total_sends:sends
      ~src_alive:(Kernel.is_alive k task)
      ~logdirty_faults:(Counter.get mach.Machine.counters "uk.logdirty_fault")
      ~handles:(Some handles) ~window:(!t_start, !t_end)
  in
  match out with
  | Migrate.Aborted _ ->
      finish ~survivor:`Src ~img:image ~dst_log:[] ~handles:(!handles_src, 0)
        ~dst:None
  | Migrate.Completed _ ->
      (* --- destination kernel: restore through the pager, replay --- *)
      let mach2 = Machine.create ~seed:(Int64.add seed 1L) () in
      let k2 = Kernel.create mach2 in
      let pager2 =
        Kernel.spawn k2 ~name:"pager" ~priority:2
          (Pager.body ~pool_pages:(pages + 4))
      in
      let dst_log = ref [] in
      let sink2 =
        Kernel.spawn k2 ~name:"sink" ~priority:3 (sink_body ~log:dst_log)
      in
      let image2 = Image.copy staging in
      let handles_dst = ref 0 in
      let g2_done = ref false in
      let _task2 =
        Kernel.spawn k2 ~name:"task" ~pager:pager2 (fun () ->
            (* Re-establish the Mapdb state through the destination
               pager; the map replies re-mint the per-page capability
               handles the source counted into [staged_handles]. *)
            handles_dst := fault_in ~pages;
            Migrate.guest_run ~image:image2 ~w ~prims:(task_prims ~sink:sink2)
              ~q:(Migrate.quiesce ()) ~until_step:steps;
            g2_done := true)
      in
      let dst_expected = sends - staging.Image.sent in
      ignore
        (Kernel.run k2 ~max_dispatches:3_000_000 ~until:(fun () ->
             !g2_done && List.length !dst_log >= dst_expected));
      ignore (Kernel.run k2 ~max_dispatches:300_000);
      (* [staged_handles] is the count that rode the state message —
         the source-side truth the restored table is held against. *)
      finish ~survivor:`Dst ~img:image2 ~dst_log:(List.rev !dst_log)
        ~handles:(!staged_handles, !handles_dst) ~dst:(Some mach2)
