module Engine = Vmk_sim.Engine

type stop_reason = Idle | Condition | Dispatch_limit

let timeslice = 5_000

let run mach ~irqs ~pick ~dispatch ?until ?(max_dispatches = 10_000_000) k =
  let eng = mach.Machine.engine in
  let rec loop dispatches =
    if (match until with Some f -> f () | None -> false) then Condition
    else begin
      irqs k;
      match pick k with
      | Some th ->
          if dispatches >= max_dispatches then Dispatch_limit
          else begin
            dispatch k th;
            loop (dispatches + 1)
          end
      | None -> if Engine.idle_to_next eng then loop dispatches else Idle
    end
  in
  let reason = loop 0 in
  Vmk_trace.Accounts.switch_to mach.Machine.accounts "idle";
  reason

let slice mach ~sole k th left =
  let step =
    if left < 2 * timeslice then min timeslice left
    else begin
      let whole = left - (left mod timeslice) in
      let eng = mach.Machine.engine in
      let fits =
        Int64.compare
          (Int64.add (Engine.now eng) (Int64.of_int whole))
          (Engine.next_due_or eng Int64.max_int)
        <= 0
      in
      if fits && sole k th && not (Irq.any_pending mach.Machine.irq) then begin
        Engine.note_burst eng;
        whole
      end
      else timeslice
    end
  in
  Machine.burn mach step;
  step

module type EFFECT = sig
  type call
  type reply
  type _ Effect.t += Invoke : call -> reply Effect.t
end

module Fiber (E : EFFECT) = struct
  type t = {
    mutable body : (unit -> unit) option;
    mutable cont : (E.reply, unit) Effect.Deep.continuation option;
    mutable reply : E.reply;
  }

  let create ~reply body = { body = Some body; cont = None; reply }
  let set_reply f reply = f.reply <- reply
  let started f = Option.is_none f.body

  let stop f =
    f.body <- None;
    f.cont <- None

  let resume f ~call ~finish k th =
    let open Effect.Deep in
    match (f.body, f.cont) with
    | Some body, _ ->
        f.body <- None;
        (* Built once per thread: each call's handler closes over [park]
           and the call alone. *)
        let park kont c =
          f.cont <- Some kont;
          call k th c
        in
        match_with body ()
          {
            retc = (fun () -> finish k th None);
            exnc = (fun e -> finish k th (Some e));
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | E.Invoke c ->
                    Some (fun (kont : (a, _) continuation) -> park kont c)
                | _ -> None);
          }
    | None, Some kont ->
        f.cont <- None;
        continue kont f.reply
    | None, None -> finish k th None
end
