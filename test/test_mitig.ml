(* Tests for the E16 interrupt-mitigation layer: round-robin IRQ
   arbitration, mask-while-pending coalescing, the NIC hold-off window
   and poll API, batch admission, and the equivalence of the delivery
   disciplines. *)

open Vmk_hw
module Engine = Vmk_sim.Engine
module Counter = Vmk_trace.Counter
module Overload = Vmk_overload.Overload
module Exp_e16 = Vmk_core.Exp_e16

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Irq: round-robin arbitration (E16 satellite) --- *)

let test_irq_round_robin () =
  let c = Irq.create ~lines:4 in
  Irq.raise_line c 0;
  Irq.raise_line c 2;
  Irq.raise_line c 3;
  check_int "first scan starts at line 0" 0 (Option.get (Irq.next_pending c));
  Irq.ack c 0;
  Irq.raise_line c 0;
  check_int "resumes after last serviced" 2 (Option.get (Irq.next_pending c));
  Irq.ack c 2;
  check_int "continues" 3 (Option.get (Irq.next_pending c));
  Irq.ack c 3;
  check_int "wraps back around" 0 (Option.get (Irq.next_pending c));
  Irq.ack c 0;
  check_bool "drained" true (Irq.next_pending c = None)

let test_irq_no_starvation () =
  let c = Irq.create ~lines:4 in
  Irq.raise_line c 0;
  Irq.raise_line c 3;
  let serviced = ref [] in
  for _ = 1 to 6 do
    match Irq.next_pending c with
    | Some n ->
        Irq.ack c n;
        serviced := n :: !serviced;
        (* The chatty device re-raises the instant it is serviced. *)
        Irq.raise_line c 0
    | None -> ()
  done;
  check_bool "chatty line 0 cannot starve line 3" true (List.mem 3 !serviced)

let test_irq_mask_while_pending () =
  let c = Irq.create ~lines:2 in
  Irq.mask c 1;
  Irq.raise_line c 1;
  check_bool "masked line still latches" true (Irq.is_pending c 1);
  check_bool "but never surfaces" true (Irq.next_pending c = None);
  Irq.raise_line c 1;
  Irq.raise_line c 1;
  check_int "absorbed edges counted" 2 (Irq.coalesced_total c 1);
  check_int "one ack will cover the burst" 3 (Irq.burst c 1);
  Irq.unmask c 1;
  check_int "surfaces after unmask" 1 (Option.get (Irq.next_pending c));
  Irq.ack c 1;
  check_int "ack clears the burst" 0 (Irq.burst c 1);
  check_bool "latch cleared" false (Irq.is_pending c 1)

(* --- Nic: hold-off window and poll --- *)

let make_nic ?(buffers = 16) () =
  let e = Engine.create () in
  let irq = Irq.create ~lines:2 in
  let nic = Nic.create e irq ~irq_line:0 () in
  let frames = Frame.create ~frames:(buffers + 8) in
  for _ = 1 to buffers do
    Nic.post_rx_buffer nic (Frame.alloc frames ~owner:"test" ())
  done;
  (e, irq, nic, frames)

let test_nic_mitigation_window () =
  let e, irq, nic, _ = make_nic () in
  Nic.set_mitigation nic 1_000L;
  Nic.inject_rx nic ~tag:1 ~len:64;
  check_int "first completion raises" 1 (Irq.raised_total irq 0);
  Nic.inject_rx nic ~tag:2 ~len:64;
  Nic.inject_rx nic ~tag:3 ~len:64;
  check_int "window absorbs the rest" 1 (Irq.raised_total irq 0);
  check_int "coalesced counted" 2 (Nic.irq_coalesced nic);
  Irq.ack irq 0;
  (* Window expiry re-raises exactly once for still-unserviced work. *)
  Engine.burn e 2_000L;
  check_int "deferred raise at window end" 2 (Irq.raised_total irq 0);
  let evs = Nic.poll nic ~budget:8 in
  check_bool "poll drains oldest first" true
    (List.map (fun ev -> ev.Nic.tag) evs = [ 1; 2; 3 ]);
  check_int "queue dry" 0 (Nic.rx_pending nic);
  check_bool "zero budget rejected" true
    (try
       ignore (Nic.poll nic ~budget:0);
       false
     with Invalid_argument _ -> true)

let test_nic_poll_budget () =
  let _, _, nic, _ = make_nic () in
  for i = 1 to 5 do
    Nic.inject_rx nic ~tag:i ~len:64
  done;
  let first = Nic.poll nic ~budget:2 in
  check_bool "budget caps the batch" true
    (List.map (fun ev -> ev.Nic.tag) first = [ 1; 2 ]);
  let rest = Nic.poll nic ~budget:16 in
  check_bool "remainder still in order" true
    (List.map (fun ev -> ev.Nic.tag) rest = [ 3; 4; 5 ])

let test_nic_tx_coalesce () =
  let e, irq, nic, frames = make_nic () in
  Nic.set_mitigation nic 10_000L;
  let f1 = Frame.alloc frames ~owner:"test" () in
  let f2 = Frame.alloc frames ~owner:"test" () in
  Nic.submit_tx nic f1 ~len:64;
  Nic.submit_tx nic f2 ~len:64;
  Engine.burn e 3_000L;
  check_int "one raise covers both tx completions" 1 (Irq.raised_total irq 0);
  check_int "second completion coalesced" 1 (Nic.irq_coalesced nic);
  check_int "both reapable" 2 (Nic.tx_completions_pending nic)

let test_nic_zero_window_is_legacy () =
  let _, irq, nic, _ = make_nic () in
  for i = 1 to 3 do
    Nic.inject_rx nic ~tag:i ~len:64
  done;
  check_int "every completion raises" 3 (Irq.raised_total irq 0);
  check_int "nothing coalesced" 0 (Nic.irq_coalesced nic)

(* --- Overload: batch admission and batch histogram --- *)

let test_token_bucket_admit_n () =
  let b = Overload.Token_bucket.create ~period:100L ~burst:4 () in
  check_int "caps at available tokens" 4
    (Overload.Token_bucket.admit_n b ~now:0L 10);
  check_int "empty bucket admits none" 0
    (Overload.Token_bucket.admit_n b ~now:0L 3);
  check_int "refill honoured once" 2
    (Overload.Token_bucket.admit_n b ~now:200L 10);
  check_int "zero batch is a no-op" 0
    (Overload.Token_bucket.admit_n b ~now:200L 0);
  check_int "denials recorded" (6 + 3 + 8) (Overload.Token_bucket.denied b);
  check_bool "negative batch rejected" true
    (try
       ignore (Overload.Token_bucket.admit_n b ~now:0L (-1));
       false
     with Invalid_argument _ -> true)

let test_note_batch_histogram () =
  let c = Counter.create_set () in
  let h = Overload.batch_hist c in
  List.iter (Overload.note_batch_hist c h) [ 0; 1; 2; 3; 4; 7; 8; 9 ];
  let bucket n = Counter.get c (Overload.mitig_batch_hist_prefix ^ n) in
  check_int "bucket 1" 1 (bucket "1");
  check_int "bucket 2 takes 2..3" 2 (bucket "2");
  check_int "bucket 4 takes 4..7" 2 (bucket "4");
  check_int "bucket 8 takes 8..15" 2 (bucket "8");
  check_int "zero ignored" 7 (Counter.sum_matching c ~prefix:Overload.mitig_batch_hist_prefix)

(* --- Drain-discipline equivalence (E16 satellite) ---

   However the driver takes packets off the NIC — one rx_ready per
   interrupt, or masked poll rounds under a mitigation window — every
   injected packet must be delivered exactly once and each flow must
   stay in order. *)

let prop_drain_equivalence =
  QCheck.Test.make
    ~name:"mitigation: hybrid poll delivers the interrupt stream exactly"
    ~count:100
    QCheck.(
      pair (list_of_size Gen.(1 -- 40) (pair (int_range 0 500) (int_range 0 3)))
        (int_range 1 8))
    (fun (arrivals, budget) ->
      let run ~hybrid =
        let e = Engine.create () in
        let irq = Irq.create ~lines:1 in
        let nic = Nic.create e irq ~irq_line:0 () in
        let frames = Frame.create ~frames:(List.length arrivals + 1) in
        List.iter
          (fun _ -> Nic.post_rx_buffer nic (Frame.alloc frames ~owner:"t" ()))
          arrivals;
        if hybrid then Nic.set_mitigation nic 300L;
        (* Tag encodes (flow, global sequence) so order is checkable. *)
        let t = ref 0L in
        List.iteri
          (fun i (d, flow) ->
            t := Int64.add !t (Int64.of_int d);
            Engine.at e !t (fun () ->
                Nic.inject_rx nic ~tag:((flow * 1000) + i) ~len:64))
          arrivals;
        let got = ref [] in
        let take ev = got := ev.Nic.tag :: !got in
        let service () =
          if hybrid then begin
            Irq.mask irq 0;
            let rec rounds () =
              match Nic.poll nic ~budget with
              | [] ->
                  Irq.ack irq 0;
                  Irq.unmask irq 0;
                  if Nic.rx_pending nic > 0 then begin
                    Irq.mask irq 0;
                    rounds ()
                  end
              | evs ->
                  List.iter take evs;
                  rounds ()
            in
            rounds ()
          end
          else begin
            Irq.ack irq 0;
            let rec drain () =
              match Nic.rx_ready nic with
              | Some ev ->
                  take ev;
                  drain ()
              | None -> ()
            in
            drain ()
          end
        in
        (* The hosting kernel checks the controller at fixed preemption
           points past the last injection (and any deferred raise). *)
        let horizon = Int64.add !t 2_000L in
        let rec tick at =
          Engine.at e at (fun () ->
              if Irq.next_pending irq <> None then service ();
              let next = Int64.add at 250L in
              if Int64.compare next horizon <= 0 then tick next)
        in
        tick 0L;
        Engine.run e;
        List.rev !got
      in
      let a = run ~hybrid:false in
      let b = run ~hybrid:true in
      let per_flow l f = List.filter (fun tag -> tag / 1000 = f) l in
      let sorted l = List.sort compare l in
      List.length a = List.length arrivals
      && sorted a = sorted b
      && List.for_all
           (fun f ->
             let fa = per_flow a f and fb = per_flow b f in
             fa = sorted fa && fb = sorted fb && fa = fb)
           [ 0; 1; 2; 3 ])

(* --- E16 replay: same seed, bit-for-bit metrics --- *)

let test_e16_replay () =
  let same stack mode =
    let r1 = Exp_e16.run_one stack mode ~base:12 (4, 1) in
    let r2 = Exp_e16.run_one stack mode ~base:12 (4, 1) in
    Exp_e16.received r1 > 0 && Exp_e16.digest r1 = Exp_e16.digest r2
  in
  check_bool "vmm hybrid replay is bit-for-bit" true
    (same Exp_e16.Vmm Exp_e16.Hybrid);
  check_bool "uk hybrid replay is bit-for-bit" true
    (same Exp_e16.Uk Exp_e16.Hybrid);
  check_bool "uk polling replay is bit-for-bit" true
    (same Exp_e16.Uk Exp_e16.Polling)

let suite =
  [
    Alcotest.test_case "irq: round-robin arbitration" `Quick
      test_irq_round_robin;
    Alcotest.test_case "irq: chatty line cannot starve" `Quick
      test_irq_no_starvation;
    Alcotest.test_case "irq: mask-while-pending coalesces" `Quick
      test_irq_mask_while_pending;
    Alcotest.test_case "nic: hold-off window coalesces" `Quick
      test_nic_mitigation_window;
    Alcotest.test_case "nic: poll budget" `Quick test_nic_poll_budget;
    Alcotest.test_case "nic: tx completions coalesce" `Quick
      test_nic_tx_coalesce;
    Alcotest.test_case "nic: zero window is per-packet" `Quick
      test_nic_zero_window_is_legacy;
    Alcotest.test_case "bucket: admit_n" `Quick test_token_bucket_admit_n;
    Alcotest.test_case "overload: batch histogram" `Quick
      test_note_batch_histogram;
    QCheck_alcotest.to_alcotest prop_drain_equivalence;
    Alcotest.test_case "e16: replay bit-for-bit" `Quick test_e16_replay;
  ]
