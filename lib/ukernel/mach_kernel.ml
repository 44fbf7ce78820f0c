module Machine = Vmk_hw.Machine
module Arch = Vmk_hw.Arch
module Tlb = Vmk_hw.Tlb
module Accounts = Vmk_trace.Accounts
module Counter = Vmk_trace.Counter
module Exec = Vmk_hw.Exec

module Mif = struct
  type mport = int

  type mmsg = { mlabel : int; inline_words : int; ool_bytes : int; tag : int }

  type mcall =
    | M_burn of int
    | M_port_create of { qlimit : int }
    | M_send of mport * mmsg
    | M_recv of mport
    | M_yield
    | M_exit

  type mreply =
    | MR_unit
    | MR_port of mport
    | MR_msg of mmsg
    | MR_error of string

  type _ Effect.t += Minvoke : mcall -> mreply Effect.t

  exception Mach_error of string

  let invoke c = Effect.perform (Minvoke c)

  let expect_unit = function
    | MR_unit -> ()
    | MR_error e -> raise (Mach_error e)
    | MR_port _ | MR_msg _ -> raise (Mach_error "unexpected reply")

  let burn n = expect_unit (invoke (M_burn n))

  let port_create ?(qlimit = 16) () =
    match invoke (M_port_create { qlimit }) with
    | MR_port p -> p
    | MR_error e -> raise (Mach_error e)
    | MR_unit | MR_msg _ -> raise (Mach_error "unexpected reply")

  let send port m = expect_unit (invoke (M_send (port, m)))

  let recv port =
    match invoke (M_recv port) with
    | MR_msg m -> m
    | MR_error e -> raise (Mach_error e)
    | MR_unit | MR_port _ -> raise (Mach_error "unexpected reply")

  let yield () = expect_unit (invoke M_yield)

  let exit () =
    ignore (invoke M_exit);
    assert false
end

open Mif

module Fiber = Exec.Fiber (struct
  type call = mcall
  type reply = mreply
  type _ Effect.t += Invoke = Minvoke
end)

(* First-generation path lengths: a message touches port rights, a kernel
   buffer allocation and queue bookkeeping on both the send and receive
   sides. Calibrated so that short cross-task round trips land roughly
   5x the second-generation rendezvous, as the mid-90s comparisons did. *)
let syscall_path = 450
let per_message_side = 380
let rights_check = 120
let port_create_cost = 300

type mstate =
  | Ready
  | Running
  | Blocked_recv of mport
  | Blocked_send of mport * mmsg
  | Dead

type tcb = {
  tid : int;
  name : string;  (** Also the thread's cycle account. *)
  asid : int;
  mutable state : mstate;
  fiber : Fiber.t;
  mutable burn_left : int;
}

type port_state = {
  qlimit : int;
  queue : mmsg Queue.t;
  recv_waiters : int Queue.t;  (* tids *)
  send_waiters : int Queue.t;
}

type t = {
  mach : Machine.t;
  tcbs : (int, tcb) Hashtbl.t;
  ports : (int, port_state) Hashtbl.t;
  runq : tcb Queue.t;
  mutable next_tid : int;
  mutable next_port : int;
  mutable next_asid : int;
  mutable current_asid : int;
}

type stop_reason = Exec.stop_reason = Idle | Condition | Dispatch_limit

let kernel_account = "machk"

let create mach =
  {
    mach;
    tcbs = Hashtbl.create 16;
    ports = Hashtbl.create 16;
    runq = Queue.create ();
    next_tid = 1;
    next_port = 1;
    next_asid = 1_000;
    current_asid = 0;
  }

let enqueue t tcb = Queue.add tcb t.runq

let ready t tcb reply =
  match tcb.state with
  | Dead -> ()
  | Ready -> Fiber.set_reply tcb.fiber reply
  | Running | Blocked_recv _ | Blocked_send _ ->
      Fiber.set_reply tcb.fiber reply;
      tcb.state <- Ready;
      enqueue t tcb

let spawn t ~name body =
  let tid = t.next_tid in
  t.next_tid <- t.next_tid + 1;
  let asid = t.next_asid in
  t.next_asid <- t.next_asid + 1;
  let tcb =
    {
      tid;
      name;
      asid;
      state = Ready;
      fiber = Fiber.create ~reply:MR_unit body;
      burn_left = 0;
    }
  in
  Hashtbl.add t.tcbs tid tcb;
  enqueue t tcb;
  tcb.tid

let thread_count t =
  Hashtbl.fold
    (fun _ (tcb : tcb) acc -> if tcb.state <> Dead then acc + 1 else acc)
    t.tcbs 0

let kcharged t f = Accounts.with_account t.mach.Machine.accounts kernel_account f

let message_copy_cost t (m : mmsg) =
  let arch = t.mach.Machine.arch in
  Arch.copy_cost arch ~bytes:((m.inline_words * 4) + m.ool_bytes)

let syscall_overhead t =
  let arch = t.mach.Machine.arch in
  (* Through the general exception gate: no fast-path instruction. *)
  Machine.burn t.mach (arch.Arch.trap_cost + arch.Arch.kernel_exit_cost + syscall_path)

let deliver t (port : port_state) =
  (* Match queued messages with waiting receivers. *)
  let rec go () =
    if (not (Queue.is_empty port.queue)) && not (Queue.is_empty port.recv_waiters)
    then begin
      let m = Queue.take port.queue in
      let rtid = Queue.take port.recv_waiters in
      match Hashtbl.find_opt t.tcbs rtid with
      | Some rtcb when rtcb.state <> Dead ->
          (* Copy-out side. *)
          kcharged t (fun () ->
              Machine.burn t.mach (per_message_side + message_copy_cost t m));
          Counter.incr t.mach.Machine.counters "mach.msg_delivered";
          ready t rtcb (MR_msg m);
          (* Space for one more message: unblock a sender. *)
          (match Queue.take_opt port.send_waiters with
          | Some stid -> (
              match Hashtbl.find_opt t.tcbs stid with
              | Some stcb -> (
                  match stcb.state with
                  | Blocked_send (_, sm) ->
                      kcharged t (fun () ->
                          Machine.burn t.mach
                            (per_message_side + message_copy_cost t sm));
                      Queue.add sm port.queue;
                      ready t stcb MR_unit
                  | Ready | Running | Blocked_recv _ | Dead -> ())
              | None -> ())
          | None -> ());
          go ()
      | Some _ | None -> go ()
    end
  in
  go ()

let handle t (tcb : tcb) call =
  match call with
  | _ when tcb.state = Dead -> ()
  | M_burn n ->
      tcb.burn_left <- max 0 n;
      ready t tcb MR_unit
  | M_yield ->
      kcharged t (fun () -> syscall_overhead t);
      ready t tcb MR_unit
  | M_exit ->
      tcb.state <- Dead;
      Fiber.stop tcb.fiber
  | M_port_create { qlimit } ->
      kcharged t (fun () ->
          syscall_overhead t;
          Machine.burn t.mach port_create_cost);
      let port = t.next_port in
      t.next_port <- t.next_port + 1;
      Hashtbl.add t.ports port
        {
          qlimit = max 1 qlimit;
          queue = Queue.create ();
          recv_waiters = Queue.create ();
          send_waiters = Queue.create ();
        };
      ready t tcb (MR_port port)
  | M_send (port, m) -> begin
      match Hashtbl.find_opt t.ports port with
      | None ->
          kcharged t (fun () -> syscall_overhead t);
          ready t tcb (MR_error "no such port")
      | Some p ->
          kcharged t (fun () ->
              syscall_overhead t;
              Machine.burn t.mach rights_check);
          Counter.incr t.mach.Machine.counters "mach.msg_sent";
          if Queue.length p.queue < p.qlimit then begin
            (* Copy-in to the kernel buffer; sender continues. *)
            kcharged t (fun () ->
                Machine.burn t.mach (per_message_side + message_copy_cost t m));
            Queue.add m p.queue;
            ready t tcb MR_unit;
            deliver t p
          end
          else begin
            tcb.state <- Blocked_send (port, m);
            Queue.add tcb.tid p.send_waiters
          end
    end
  | M_recv port -> begin
      match Hashtbl.find_opt t.ports port with
      | None ->
          kcharged t (fun () -> syscall_overhead t);
          ready t tcb (MR_error "no such port")
      | Some p ->
          kcharged t (fun () ->
              syscall_overhead t;
              Machine.burn t.mach rights_check);
          tcb.state <- Blocked_recv port;
          Queue.add tcb.tid p.recv_waiters;
          deliver t p
    end

(* A thread that returns, or has nothing left to run, is dead; one that
   raises crashes. *)
let finish t (tcb : tcb) = function
  | None -> tcb.state <- Dead
  | Some exn ->
      Counter.incr t.mach.Machine.counters "mach.thread_crashed";
      Logs.debug (fun m ->
          m "mach: thread %s crashed: %s" tcb.name (Printexc.to_string exn));
      tcb.state <- Dead

(* For the tickless burst rule ([Exec.slice]): could any other thread
   take the core mid-burst? *)
let sole_runnable t (tcb : tcb) =
  let sole = ref true in
  Hashtbl.iter
    (fun _ (o : tcb) -> if o != tcb && o.state = Ready then sole := false)
    t.tcbs;
  !sole

let dispatch t (tcb : tcb) =
  if tcb.asid <> t.current_asid then begin
    kcharged t (fun () ->
        Tlb.set_context t.mach.Machine.tlb ~asid:tcb.asid;
        Machine.burn t.mach t.mach.Machine.arch.Arch.addr_space_switch_cost);
    t.current_asid <- tcb.asid
  end;
  tcb.state <- Running;
  Accounts.switch_to t.mach.Machine.accounts tcb.name;
  if tcb.burn_left > 0 then begin
    let step = Exec.slice t.mach ~sole:sole_runnable t tcb tcb.burn_left in
    tcb.burn_left <- tcb.burn_left - step;
    if tcb.state = Running then begin
      tcb.state <- Ready;
      enqueue t tcb
    end
  end
  else Fiber.resume tcb.fiber ~call:handle ~finish t tcb

let rec pick t =
  match Queue.take_opt t.runq with
  | None -> None
  | Some tcb when tcb.state = Ready -> Some tcb
  | Some _ -> pick t

let run ?until t = Exec.run t.mach ~irqs:ignore ~pick ~dispatch ?until t
