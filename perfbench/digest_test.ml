(* The cell digest must see every field. The case that matters is a
   change to one counter far down the sorted list: a structural
   [Hashtbl.hash] over the same list stops after its first few elements
   and misses it. The cell here is a real run of the Xen stack. *)

module Testbed = Vmk_core.Scenario
module Traffic = Vmk_workloads.Traffic
module Sys_g = Vmk_guest.Sys

let real_cell () =
  let mach = ref None in
  let traffic m ~gate =
    mach := Some m;
    Traffic.constant_rate m ~gate ~period:1L ~len:64 ~count:0 ()
  in
  let app () =
    ignore (Sys_g.getpid ());
    Sys_g.blk_write ~sector:3 ~len:Sys_g.block_size ~tag:7;
    ignore (Sys_g.blk_read ~sector:3 ~len:Sys_g.block_size);
    Sys_g.net_send ~len:512 ~tag:1;
    Sys_g.net_drain ()
  in
  ignore (Testbed.run_xen ~seed:1L ~traffic ~app ());
  Cell.of_machine ~name:"test/xen" ~ops:4 ~latencies:[| 10; 20; 30; 40 |]
    (Option.get !mach)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("digest_test: " ^ s); exit 1) fmt

let () =
  let c = real_cell () in
  let d = Cell.digest c in
  if Cell.digest (real_cell ()) <> d then fail "same run, different digest";
  let n = List.length c.Cell.counters in
  if n < 12 then fail "expected a long counter list, got %d" n;
  (* Bump the last counter in sorted order. *)
  let bumped =
    List.mapi (fun i (k, v) -> if i = n - 1 then (k, v + 1) else (k, v)) c.Cell.counters
  in
  let c' = { c with Cell.counters = bumped } in
  if Cell.digest c' = d then fail "last counter changed, digest did not";
  if Hashtbl.hash bumped <> Hashtbl.hash c.Cell.counters then
    fail "Hashtbl.hash saw the change; this case no longer shows its blind spot";
  let changed =
    [
      ("clock", { c with Cell.clock = Int64.succ c.Cell.clock });
      ("ops", { c with Cell.ops = c.Cell.ops + 1 });
      ("last latency", { c with Cell.latencies = [| 10; 20; 30; 41 |] });
      ("model results", { c with Cell.results = [ ("gnt_contended", 1L) ] });
      ( "last account",
        {
          c with
          Cell.accounts =
            List.mapi
              (fun i (k, v) ->
                if i = List.length c.Cell.accounts - 1 then (k, Int64.succ v) else (k, v))
              c.Cell.accounts;
        } );
    ]
  in
  List.iter
    (fun (what, c') -> if Cell.digest c' = d then fail "%s changed, digest did not" what)
    changed;
  (* Order of the input lists must not matter: the dump sorts them. *)
  let shuffled = { c with Cell.counters = List.rev c.Cell.counters } in
  if Cell.digest shuffled <> d then fail "digest depends on counter order";
  print_endline "digest_test: ok"
