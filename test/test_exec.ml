(* Tests for the shared single-core executor (Vmk_hw.Exec): its
   tickless burst rule must fast-forward a lone compute burst to exactly
   the state slicing reaches, and each guard must keep it from jumping
   when something could take the core mid-burst. Every burst case runs
   on the three kernels that share the rule; the idle-jump case runs on
   the L4-style kernel, the one with a plain sleep. The fiber runtime
   every executor shares ([Exec.Fiber]) is tested on a toy effect. *)

module Machine = Vmk_hw.Machine
module Irq = Vmk_hw.Irq
module Exec = Vmk_hw.Exec
module Engine = Vmk_sim.Engine
module Kernel = Vmk_ukernel.Kernel
module Sysif = Vmk_ukernel.Sysif
module Mach_kernel = Vmk_ukernel.Mach_kernel
module Hypervisor = Vmk_vmm.Hypervisor
module Hcall = Vmk_vmm.Hcall

let burst = 10_000_000

type stack = {
  label : string;
  lone_end : int64;  (** E21's clock for a lone [burst]-cycle burner. *)
  burn : int -> unit;
  boot : Machine.t -> (string -> (unit -> unit) -> unit) * (unit -> unit);
      (** A fresh kernel on the machine: its spawn and its run. *)
}

let stacks =
  [
    {
      label = "uk";
      lone_end = 10_000_790L;
      burn = Sysif.burn;
      boot =
        (fun mach ->
          let k = Kernel.create mach in
          ( (fun name body -> ignore (Kernel.spawn k ~name body)),
            fun () -> ignore (Kernel.run k) ));
    };
    {
      label = "vmm";
      lone_end = 10_001_270L;
      burn = Hcall.burn;
      boot =
        (fun mach ->
          let h = Hypervisor.create mach in
          ( (fun name body -> ignore (Hypervisor.create_domain h ~name body)),
            fun () -> ignore (Hypervisor.run h) ));
    };
    {
      label = "mach";
      lone_end = 10_000_790L;
      burn = Mach_kernel.Mif.burn;
      boot =
        (fun mach ->
          let k = Mach_kernel.create mach in
          ( (fun name body -> ignore (Mach_kernel.spawn k ~name body)),
            fun () -> ignore (Mach_kernel.run k) ));
    };
  ]

(* One [burst]-cycle burner; [arm] sets up the machine before the run.
   Returns the machine and its replay digest. *)
let burner ?(arm = ignore) s =
  let mach = Machine.create ~seed:21L () in
  let spawn, run = s.boot mach in
  spawn "burner" (fun () -> s.burn burst);
  arm mach;
  run ();
  (mach, Machine.digest mach [])

let check_jumps s mach n =
  Alcotest.(check int)
    (s.label ^ " burst jumps") n
    (Engine.burst_jumps mach.Machine.engine)

let test_lone_burner () =
  List.iter
    (fun s ->
      let mach, _ = burner s in
      Alcotest.(check int64) (s.label ^ " clock") s.lone_end (Machine.now mach);
      check_jumps s mach 1)
    stacks

(* A pending unmasked line that no handler serves forces slicing, which
   must end in the same state as the fast-forward. *)
let test_pending_irq_slices () =
  List.iter
    (fun s ->
      let _, lone = burner s in
      let mach, sliced =
        burner s ~arm:(fun mach ->
            Irq.raise_line mach.Machine.irq Machine.nic_irq)
      in
      check_jumps s mach 0;
      Alcotest.(check string) (s.label ^ " sliced = jumped") lone sliced)
    stacks

(* An event due mid-burst must fire on the slice that crosses it; the
   rest of the burst is jumped once the queue is clear. *)
let test_event_inside_burst () =
  List.iter
    (fun s ->
      let _, lone = burner s in
      let fired = ref 0L in
      let mach, digest =
        burner s ~arm:(fun mach ->
            Engine.at mach.Machine.engine 1_000_000L (fun () ->
                fired := Machine.now mach))
      in
      Alcotest.(check bool)
        (s.label ^ " event fires within one timeslice")
        true
        (Int64.compare !fired 1_000_000L >= 0
        && Int64.compare !fired
             (Int64.of_int (1_000_000 + Exec.timeslice))
           < 0);
      check_jumps s mach 1;
      Alcotest.(check string) (s.label ^ " same end state") lone digest)
    stacks

(* Two burners share the core: neither may jump, so they interleave and
   both finish only after about twice the burst. *)
let test_co_runnable_interleave () =
  List.iter
    (fun s ->
      let mach = Machine.create ~seed:21L () in
      let spawn, run = s.boot mach in
      let finished = ref [] in
      List.iter
        (fun name ->
          spawn name (fun () ->
              s.burn burst;
              finished := Machine.now mach :: !finished))
        [ "a"; "b" ];
      run ();
      check_jumps s mach 0;
      Alcotest.(check bool)
        (s.label ^ " both finish after 2x burst - 1 slice")
        true
        (List.length !finished = 2
        && List.for_all
             (fun t ->
               Int64.compare t
                 (Int64.of_int ((2 * burst) - Exec.timeslice))
               >= 0)
             !finished))
    stacks

(* An idle gap is crossed in one engine hop, not stepped through
   timeslices: a lone sleeper ends at its wake-up plus the kernel's own
   path, after exactly one idle jump. *)
let test_lone_sleeper () =
  let mach = Machine.create ~seed:21L () in
  let k = Kernel.create mach in
  ignore (Kernel.spawn k ~name:"sleeper" (fun () -> Sysif.sleep 10_000_000L));
  ignore (Kernel.run k);
  Alcotest.(check int64) "clock" 10_001_330L (Machine.now mach);
  Alcotest.(check int) "idle jumps" 1 (Engine.idle_jumps mach.Machine.engine)

(* --- Exec.Fiber on a toy effect: the call is an int, so is the reply --- *)

module Toy_effect = struct
  type call = int
  type reply = int
  type _ Effect.t += Invoke : call -> reply Effect.t
end

module Fiber = Exec.Fiber (Toy_effect)

let ask n = Effect.perform (Toy_effect.Invoke n)

(* What the executor saw, newest first. *)
type seen = { mutable calls : int list; mutable ends : exn option list }

let on_call () seen c = seen.calls <- c :: seen.calls
let on_finish () seen e = seen.ends <- e :: seen.ends

let toy body =
  let seen = { calls = []; ends = [] } in
  let f = Fiber.create ~reply:0 body in
  (f, seen, fun () -> Fiber.resume f ~call:on_call ~finish:on_finish () seen)

let ends = Alcotest.(list (option string))
let names seen = List.map (Option.map Printexc.to_string) seen.ends

let test_fiber_replies_in_order () =
  let got = ref [] in
  let f, seen, resume =
    toy (fun () -> for i = 1 to 3 do got := ask i :: !got done)
  in
  Alcotest.(check bool) "not started" false (Fiber.started f);
  resume ();
  Alcotest.(check bool) "started" true (Fiber.started f);
  List.iter
    (fun r ->
      Fiber.set_reply f r;
      resume ())
    [ 10; 20; 30 ];
  Alcotest.(check (list int)) "calls" [ 3; 2; 1 ] seen.calls;
  Alcotest.(check (list int)) "replies" [ 30; 20; 10 ] !got;
  Alcotest.check ends "returned" [ None ] (names seen)

let test_fiber_finish_once () =
  let _, seen, resume = toy (fun () -> ignore (ask 1)) in
  resume ();
  Alcotest.check ends "parked" [] (names seen);
  resume ();
  Alcotest.check ends "return" [ None ] (names seen);
  let _, seen, resume = toy (fun () -> ignore (ask 1); raise Exit) in
  resume ();
  resume ();
  Alcotest.check ends "raise" [ Some (Printexc.to_string Exit) ] (names seen)

let test_fiber_stop () =
  let after = ref false in
  let f, seen, resume =
    toy (fun () ->
        ignore
          (Fun.protect ~finally:(fun () -> after := true) (fun () -> ask 1)))
  in
  resume ();
  Fiber.stop f;
  resume ();
  Alcotest.(check bool) "nothing after the parked call" false !after;
  Alcotest.(check (list int)) "one call" [ 1 ] seen.calls;
  Alcotest.check ends "finished" [ None ] (names seen);
  let f, seen, resume = toy (fun () -> after := true) in
  Fiber.stop f;
  resume ();
  Alcotest.(check bool) "stopped before start never runs" false !after;
  Alcotest.check ends "finished unstarted" [ None ] (names seen)

let suite =
  [
    Alcotest.test_case "lone burner jumps to e21 clock" `Quick test_lone_burner;
    Alcotest.test_case "pending irq forces identical slicing" `Quick
      test_pending_irq_slices;
    Alcotest.test_case "event inside burst fires on time" `Quick
      test_event_inside_burst;
    Alcotest.test_case "co-runnable burners interleave" `Quick
      test_co_runnable_interleave;
    Alcotest.test_case "lone sleeper jumps its idle gap once" `Quick
      test_lone_sleeper;
    Alcotest.test_case "fiber: replies reach the body in order" `Quick
      test_fiber_replies_in_order;
    Alcotest.test_case "fiber: finish once, None or Some e" `Quick
      test_fiber_finish_once;
    Alcotest.test_case "fiber: stop drops the parked call" `Quick
      test_fiber_stop;
  ]
