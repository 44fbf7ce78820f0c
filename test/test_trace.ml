(* Tests for counters, cycle accounts and the trace ring. *)

open Vmk_trace

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

(* --- Counter --- *)

let test_counter_incr_and_get () =
  let s = Counter.create_set () in
  Counter.incr s "a";
  Counter.incr s "a";
  Counter.add s "b" 5;
  check_int "a" 2 (Counter.get s "a");
  check_int "b" 5 (Counter.get s "b");
  check_int "missing" 0 (Counter.get s "zzz")

let test_counter_negative_add_rejected () =
  let s = Counter.create_set () in
  Alcotest.check_raises "negative" (Invalid_argument "Counter.add: negative amount")
    (fun () -> Counter.add s "x" (-1))

let test_counter_reset_keeps_names () =
  let s = Counter.create_set () in
  Counter.add s "x" 3;
  Counter.reset s;
  check_int "zeroed" 0 (Counter.get s "x");
  check_bool "no nonzero counters listed" true (Counter.to_list s = [])

let test_counter_matching_prefix () =
  let s = Counter.create_set () in
  Counter.add s "ipc.send" 2;
  Counter.add s "ipc.recv" 3;
  Counter.add s "irq.raise" 7;
  check_int "sum ipc.*" 5 (Counter.sum_matching s ~prefix:"ipc.");
  check_int "matching count" 2 (List.length (Counter.matching s ~prefix:"ipc."))

let test_counter_interned_id_same_cell () =
  (* E21 hot paths intern once and bump by id; the string shim must hit
     the very same cell, whichever API touched the name first. *)
  let s = Counter.create_set () in
  Counter.incr s "uk.ipc.rendezvous" (* string API creates the cell *);
  let id = Counter.id s "uk.ipc.rendezvous" in
  Counter.incr_id s id;
  Counter.add s "uk.ipc.rendezvous" 3;
  Counter.add_id s id 5;
  check_int "both APIs hit one cell (string view)" 10
    (Counter.get s "uk.ipc.rendezvous");
  check_int "both APIs hit one cell (id view)" 10 (Counter.get_id s id);
  check_int "re-interning is stable" id (Counter.id s "uk.ipc.rendezvous");
  Alcotest.(check string) "id resolves back to its name" "uk.ipc.rendezvous"
    (Counter.name s id);
  (* Interning alone leaves the counter at zero and invisible in dumps,
     so eager wiring cannot perturb replay output. *)
  let s2 = Counter.create_set () in
  ignore (Counter.id s2 "wired.but.never.hit");
  check_bool "interned-but-zero not listed" true (Counter.to_list s2 = []);
  Alcotest.check_raises "negative add_id rejected"
    (Invalid_argument "Counter.add: negative amount") (fun () ->
      Counter.add_id s id (-1))

(* counter.mli promises allocation-free bumps: by interned id, and by
   name once the cell exists. *)
let test_counter_bumps_allocate_nothing () =
  let s = Counter.create_set () in
  let id = Counter.id s "hot.id" in
  Counter.incr s "hot.name";
  let by_id =
    Alloc.minor_words (fun () ->
        for _ = 1 to 1_000 do
          Counter.incr_id s id
        done)
  in
  let by_name =
    Alloc.minor_words (fun () ->
        for _ = 1 to 1_000 do
          Counter.incr s "hot.name"
        done)
  in
  Alcotest.(check (float 0.0)) "incr_id words" 0.0 by_id;
  Alcotest.(check (float 0.0)) "incr hit-path words" 0.0 by_name;
  check_int "incr_id counted" 1_000 (Counter.get_id s id);
  check_int "incr counted" 1_001 (Counter.get s "hot.name")

let test_counter_to_list_sorted () =
  let s = Counter.create_set () in
  Counter.incr s "zeta";
  Counter.incr s "alpha";
  Alcotest.(check (list string)) "sorted names" [ "alpha"; "zeta" ]
    (List.map fst (Counter.to_list s))

(* --- Accounts --- *)

let test_accounts_charge_and_share () =
  let a = Accounts.create () in
  Accounts.charge a "dom0" 750L;
  Accounts.charge a "guest" 250L;
  check_i64 "dom0" 750L (Accounts.balance a "dom0");
  Alcotest.(check (float 1e-9)) "share" 0.75 (Accounts.share a "dom0")

let test_accounts_idle_excluded_from_busy () =
  let a = Accounts.create () in
  Accounts.charge a "idle" 1000L;
  Accounts.charge a "guest" 100L;
  check_i64 "busy total" 100L (Accounts.busy_total a);
  check_i64 "grand total" 1100L (Accounts.total a);
  Alcotest.(check (float 1e-9)) "guest share of busy" 1.0 (Accounts.share a "guest")

let test_accounts_current_switching () =
  let a = Accounts.create () in
  Alcotest.(check string) "starts idle" "idle" (Accounts.current a);
  Accounts.switch_to a "vmm";
  Accounts.charge_current a 10L;
  check_i64 "charged vmm" 10L (Accounts.balance a "vmm")

let test_accounts_with_account_restores () =
  let a = Accounts.create () in
  Accounts.switch_to a "guest";
  let result = Accounts.with_account a "vmm" (fun () ->
      Accounts.charge_current a 5L;
      "ok")
  in
  Alcotest.(check string) "returns" "ok" result;
  Alcotest.(check string) "restored" "guest" (Accounts.current a);
  check_i64 "vmm charged" 5L (Accounts.balance a "vmm")

let test_accounts_with_account_restores_on_exception () =
  let a = Accounts.create () in
  Accounts.switch_to a "guest";
  (try
     Accounts.with_account a "vmm" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "restored after raise" "guest" (Accounts.current a)

let test_accounts_negative_charge_rejected () =
  let a = Accounts.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Accounts.charge: negative")
    (fun () -> Accounts.charge a "x" (-1L))

let test_accounts_share_empty () =
  let a = Accounts.create () in
  Alcotest.(check (float 1e-9)) "no charges" 0.0 (Accounts.share a "x")

(* --- Ring --- *)

let test_ring_retains_tail () =
  let r = Ring.create ~capacity:3 in
  for i = 1 to 5 do
    Ring.record r ~time:(Int64.of_int i) i
  done;
  check_int "length" 3 (Ring.length r);
  check_int "appended" 5 (Ring.appended r);
  check_int "dropped" 2 (Ring.dropped r);
  Alcotest.(check (list int)) "tail retained" [ 3; 4; 5 ]
    (List.map snd (Ring.to_list r))

let test_ring_under_capacity () =
  let r = Ring.create ~capacity:10 in
  Ring.record r ~time:1L "a";
  Ring.record r ~time:2L "b";
  Alcotest.(check (list string)) "in order" [ "a"; "b" ]
    (List.map snd (Ring.to_list r));
  check_int "dropped" 0 (Ring.dropped r)

let test_ring_find_last () =
  let r = Ring.create ~capacity:8 in
  List.iteri (fun i v -> Ring.record r ~time:(Int64.of_int i) v)
    [ "x"; "match"; "y"; "match"; "z" ];
  match Ring.find_last r ~f:(fun v -> v = "match") with
  | Some (t, _) -> check_i64 "most recent match" 3L t
  | None -> Alcotest.fail "expected a match"

let test_ring_clear () =
  let r = Ring.create ~capacity:4 in
  Ring.record r ~time:1L 1;
  Ring.clear r;
  check_int "empty" 0 (Ring.length r);
  check_int "appended reset" 0 (Ring.appended r)

let prop_ring_keeps_most_recent =
  QCheck.Test.make ~name:"ring retains exactly the most recent entries"
    ~count:200
    QCheck.(pair (int_range 1 16) (list small_int))
    (fun (capacity, entries) ->
      let r = Ring.create ~capacity in
      List.iteri (fun i v -> Ring.record r ~time:(Int64.of_int i) v) entries;
      let n = List.length entries in
      let expected =
        List.filteri (fun i _ -> i >= n - capacity) entries
      in
      List.map snd (Ring.to_list r) = expected)

let suite =
  [
    Alcotest.test_case "counter: incr/add/get" `Quick test_counter_incr_and_get;
    Alcotest.test_case "counter: negative rejected" `Quick
      test_counter_negative_add_rejected;
    Alcotest.test_case "counter: reset" `Quick test_counter_reset_keeps_names;
    Alcotest.test_case "counter: prefix matching" `Quick
      test_counter_matching_prefix;
    Alcotest.test_case "counter: interned id shares the string cell" `Quick
      test_counter_interned_id_same_cell;
    Alcotest.test_case "counter: hot bumps allocate nothing" `Quick
      test_counter_bumps_allocate_nothing;
    Alcotest.test_case "counter: sorted listing" `Quick
      test_counter_to_list_sorted;
    Alcotest.test_case "accounts: charge and share" `Quick
      test_accounts_charge_and_share;
    Alcotest.test_case "accounts: idle excluded" `Quick
      test_accounts_idle_excluded_from_busy;
    Alcotest.test_case "accounts: current switching" `Quick
      test_accounts_current_switching;
    Alcotest.test_case "accounts: with_account restores" `Quick
      test_accounts_with_account_restores;
    Alcotest.test_case "accounts: restores on exception" `Quick
      test_accounts_with_account_restores_on_exception;
    Alcotest.test_case "accounts: negative rejected" `Quick
      test_accounts_negative_charge_rejected;
    Alcotest.test_case "accounts: empty share" `Quick test_accounts_share_empty;
    Alcotest.test_case "ring: retains tail" `Quick test_ring_retains_tail;
    Alcotest.test_case "ring: under capacity" `Quick test_ring_under_capacity;
    Alcotest.test_case "ring: find_last" `Quick test_ring_find_last;
    Alcotest.test_case "ring: clear" `Quick test_ring_clear;
    QCheck_alcotest.to_alcotest prop_ring_keeps_most_recent;
  ]
