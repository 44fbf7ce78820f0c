module Faults = Vmk_faults.Faults
module Machine = Vmk_hw.Machine

(* --- the migrated state --- *)

module Image = struct
  type t = { pages : int array; mutable step : int; mutable sent : int }

  let create ~pages =
    if pages < 1 then invalid_arg "Image.create: pages < 1";
    { pages = Array.make pages 0; step = 0; sent = 0 }

  let copy t = { pages = Array.copy t.pages; step = t.step; sent = t.sent }
  let equal a b = a.step = b.step && a.sent = b.sent && a.pages = b.pages
  let page_count t = Array.length t.pages

  let digest t =
    let h = ref 0x811c9dc5 in
    let mix v = h := (!h lxor v) * 0x01000193 land max_int in
    Array.iter mix t.pages;
    mix t.step;
    mix t.sent;
    !h
end

(* --- the deterministic guest workload --- *)

module Workload = struct
  type t = { hot : int; cold_every : int }

  let send_every = 8
  let step_cost = 2_000

  let make ?(hot = 4) ?(cold_every = 16) () =
    if hot < 1 || cold_every < 1 then
      invalid_arg "Workload.make: non-positive field";
    { hot; cold_every }

  (* Stamp update: any deterministic mixing works; this keeps stamps
     positive and sensitive to both the old stamp and the step. *)
  let stamp old step = ((old * 16777619) lxor (step * 2654435761)) land max_int

  let advance (img : Image.t) w =
    let n = Array.length img.Image.pages in
    let s = img.Image.step in
    let hot = min w.hot n in
    let written = ref [] in
    let write i =
      img.Image.pages.(i) <- stamp img.Image.pages.(i) s;
      written := i :: !written
    in
    for i = hot - 1 downto 0 do
      write i
    done;
    (* One cold page per cold_every steps, cycling through the non-hot
       tail so the working set slowly sweeps the whole image. *)
    (if s mod w.cold_every = 0 && n > hot then
       write (hot + (s / w.cold_every mod (n - hot))));
    img.Image.step <- s + 1;
    (!written, (s + 1) mod send_every = 0)
end

let total_sends ~steps = steps / Workload.send_every

(* --- running a guest around an image --- *)

type quiesce = { mutable q_req : bool; mutable q_ack : bool }

let quiesce () = { q_req = false; q_ack = false }

type guest_prims = {
  g_touch : vpn:int -> write:bool -> unit;
  g_burn : int -> unit;
  g_send : seq:int -> bool;
  g_wait : unit -> unit;
  g_drain : unit -> unit;
}

let guest_run ~image ~w ~prims ~q ~until_step =
  while image.Image.step < until_step do
    if q.q_req then begin
      (* Quiesce at the step boundary: flush in-flight packets so the
         [sent] counter in the image matches what the fabric will
         eventually deliver, then signal and spin until the daemon
         either pauses us here or rolls the migration back. *)
      prims.g_drain ();
      q.q_ack <- true;
      while q.q_req do
        prims.g_wait ()
      done;
      q.q_ack <- false
    end
    else begin
      let written, send = Workload.advance image w in
      List.iter (fun vpn -> prims.g_touch ~vpn ~write:true) written;
      prims.g_burn Workload.step_cost;
      if send then begin
        let seq = image.Image.sent in
        while not (prims.g_send ~seq) do
          prims.g_wait ()
        done;
        image.Image.sent <- image.Image.sent + 1
      end
    end
  done;
  prims.g_drain ()

(* --- the transfer link --- *)

type link = { mutable l_down : bool; l_page_cost : int; l_state_cost : int }

let link ?(page_cost = 400) ?(state_cost = 2_000) () =
  { l_down = false; l_page_cost = page_cost; l_state_cost = state_cost }

exception Link_down

(* --- protocol --- *)

type phase = Setup | Precopy of int | Stopcopy | Commit
type abort_reason = Src_dead | Dst_reject | Link_drop

type outcome =
  | Completed of { c_rounds : int; c_pages : int; c_downtime : int64 }
  | Aborted of { a_phase : phase; a_reason : abort_reason }

type session = {
  s_link : link;
  s_abort_at : (phase * abort_reason) option;
  mutable s_fault : abort_reason option;
}

let session ?abort_at ?(link = link ()) () =
  { s_link = link; s_abort_at = abort_at; s_fault = None }

let inject s (a : Faults.mig_action) =
  match a with
  | Faults.Mig_src_dead -> s.s_fault <- Some Src_dead
  | Faults.Mig_dst_reject -> s.s_fault <- Some Dst_reject
  | Faults.Mig_link_drop ->
      s.s_link.l_down <- true;
      s.s_fault <- Some Link_drop

type ops = {
  o_now : unit -> int64;
  o_burn : int -> unit;
  o_log_dirty : bool -> unit;
  o_dirty_read : unit -> int list;
  o_quiesce : unit -> unit;
  o_resume : unit -> unit;
  o_state_xfer : unit -> unit;
  o_commit : unit -> unit;
}

let send_pages s ops ~(src : Image.t) ~(staging : Image.t) vpns =
  if s.s_link.l_down then raise Link_down;
  List.iter (fun v -> staging.Image.pages.(v) <- src.Image.pages.(v)) vpns;
  ops.o_burn (s.s_link.l_page_cost * List.length vpns)

let send_state s ops ~(src : Image.t) ~(staging : Image.t) =
  if s.s_link.l_down then raise Link_down;
  staging.Image.step <- src.Image.step;
  staging.Image.sent <- src.Image.sent;
  ops.o_burn s.s_link.l_state_cost;
  ops.o_state_xfer ()

type config = { max_rounds : int; threshold : int }

let precopy ?(max_rounds = 8) ?(threshold = 8) () =
  if max_rounds < 0 || threshold < 0 then invalid_arg "Migrate.precopy";
  { max_rounds; threshold }

let stop_and_copy = { max_rounds = 0; threshold = 0 }

exception Abort of phase * abort_reason

(* Phase boundary: deliver a pending injected fault, or the
   deterministic [abort_at] of the qcheck property. *)
let check s phase =
  (match s.s_fault with
  | Some r ->
      s.s_fault <- None;
      raise (Abort (phase, r))
  | None -> ());
  match s.s_abort_at with
  | Some (p, r) when p = phase -> raise (Abort (phase, r))
  | _ -> ()

let run ~cfg ~session:s ~src ~staging ~ops =
  let total = Image.page_count src in
  let rounds = ref 0 in
  let pages = ref 0 in
  let guard phase f =
    check s phase;
    try f () with Link_down -> raise (Abort (phase, Link_drop))
  in
  let tracking = cfg.max_rounds > 0 in
  let residual = ref [] in
  let paused = ref false in
  try
    guard Setup (fun () -> if tracking then ops.o_log_dirty true);
    if tracking then begin
      (* Round 0: push everything while the guest keeps running. *)
      guard (Precopy 0) (fun () ->
          send_pages s ops ~src ~staging (List.init total Fun.id);
          pages := !pages + total;
          rounds := 1);
      let r = ref 1 in
      let converged = ref false in
      while (not !converged) && !r <= cfg.max_rounds do
        guard (Precopy !r) (fun () ->
            let dirty = ops.o_dirty_read () in
            if List.length dirty <= cfg.threshold then begin
              (* Reading the dirty set clears it, so the convergence
                 harvest must ride along to stop-and-copy or its pages
                 are lost. *)
              residual := dirty;
              converged := true
            end
            else begin
              send_pages s ops ~src ~staging dirty;
              pages := !pages + List.length dirty;
              rounds := !rounds + 1;
              incr r
            end)
      done
      (* Round budget exhausted without convergence: fall back to
         stop-and-copy of whatever is still dirty. *)
    end;
    ops.o_quiesce ();
    paused := true;
    let pause_t = ops.o_now () in
    guard Stopcopy (fun () ->
        let rest =
          if tracking then
            List.sort_uniq compare (!residual @ ops.o_dirty_read ())
          else List.init total Fun.id
        in
        send_pages s ops ~src ~staging rest;
        pages := !pages + List.length rest;
        rounds := !rounds + 1;
        send_state s ops ~src ~staging);
    (* The destination acknowledges here; surviving the Commit check is
       the ack. From this point the switch-over is atomic: there is no
       injection point between the ack and the source's destruction, so
       "both copies live" is unrepresentable. *)
    guard Commit (fun () -> ());
    ops.o_commit ();
    if tracking then (try ops.o_log_dirty false with _ -> ());
    Completed
      {
        c_rounds = !rounds;
        c_pages = !pages;
        c_downtime = Int64.sub (ops.o_now ()) pause_t;
      }
  with Abort (p, r) ->
    (* Roll back to a consistent source: resume it (it quiesced at a
       step boundary, so its image is coherent) and let the caller
       discard the staging image. [Src_dead] lands here too — the
       daemon's death is cleaned up by the surviving toolstack, which
       performs exactly this rollback. *)
    if !paused then ops.o_resume ();
    if tracking then (try ops.o_log_dirty false with _ -> ());
    Aborted { a_phase = p; a_reason = r }

let phase_name = function
  | Setup -> "setup"
  | Precopy r -> Printf.sprintf "precopy-%d" r
  | Stopcopy -> "stopcopy"
  | Commit -> "commit"

let reason_name = function
  | Src_dead -> "src-dead"
  | Dst_reject -> "dst-reject"
  | Link_drop -> "link-drop"

let pp_outcome ppf = function
  | Completed { c_rounds; c_pages; c_downtime } ->
      Format.fprintf ppf "completed (%d rounds, %d pages, downtime %Ld)"
        c_rounds c_pages c_downtime
  | Aborted { a_phase; a_reason } ->
      Format.fprintf ppf "aborted at %s (%s)" (phase_name a_phase)
        (reason_name a_reason)

(* --- results --- *)

type result = {
  r_outcome : outcome;
  r_image : Image.t;
  r_survivor : [ `Src | `Dst ];
  r_src_log : int list;
  r_dst_log : int list;
  r_total_sends : int;
  r_src_alive : bool;
  r_logdirty_faults : int;
  r_handles : (int * int) option;
  r_window : int64 * int64;
  r_digest : string;
}

let result ~src ~dst ~outcome ~image ~survivor ~src_log ~dst_log ~total_sends
    ~src_alive ~logdirty_faults ~handles ~window =
  let ints tag l = String.concat " " (tag :: List.map string_of_int l) in
  let start, stop = window in
  let digest =
    Machine.digest src
      ([
         Format.asprintf "outcome %a" pp_outcome outcome;
         ints "image" (Array.to_list image.Image.pages);
         Printf.sprintf "step %d sent %d" image.Image.step image.Image.sent;
         ints "src" src_log;
         ints "dst" dst_log;
         Printf.sprintf "window %Ld %Ld" start stop;
       ]
      @ Option.to_list
          (Option.map (fun m -> "destination " ^ Machine.digest m []) dst))
  in
  {
    r_outcome = outcome;
    r_image = image;
    r_survivor = survivor;
    r_src_log = src_log;
    r_dst_log = dst_log;
    r_total_sends = total_sends;
    r_src_alive = src_alive;
    r_logdirty_faults = logdirty_faults;
    r_handles = handles;
    r_window = window;
    r_digest = digest;
  }
