(* One simulator run inside a workload round, reduced to the virtual
   results it produced. The canonical dump lists every field in a fixed
   order (counters, accounts and model results sorted by name), and its
   MD5 is the
   digest the benchmark checks: a change that moves any virtual cycle,
   counter or op latency changes the digest. Executor bookkeeping
   (Engine idle and burst jumps) is deliberately not part of it. *)

module Machine = Vmk_hw.Machine
module Counter = Vmk_trace.Counter
module Accounts = Vmk_trace.Accounts

type t = {
  name : string;
  clock : int64;  (** Final virtual clock. *)
  ops : int;  (** Completed ops. *)
  counters : (string * int) list;
  accounts : (string * int64) list;  (** Totals plus per-core buckets. *)
  results : (string * int64) list;
      (** Figures a model returns beside its machine, such as lock statistics. *)
  latencies : int array;  (** Per-op virtual latency, in op order. *)
}

let of_machine ?(results = []) ~name ~ops ~latencies (m : Machine.t) =
  let acc = m.Machine.accounts in
  let per_cpu =
    List.init (Accounts.cpus_seen acc) (fun cpu ->
        List.map
          (fun (k, v) -> (Printf.sprintf "cpu%d/%s" cpu k, v))
          (Accounts.to_cpu_list acc ~cpu))
  in
  {
    name;
    clock = Machine.now m;
    ops;
    counters = Counter.to_list m.Machine.counters;
    accounts = Accounts.to_list acc @ List.concat per_cpu;
    results;
    latencies;
  }

let dump t =
  let b = Buffer.create 65536 in
  Printf.bprintf b "cell %s\nclock %Ld\nops %d\n" t.name t.clock t.ops;
  List.iter
    (fun (k, v) -> Printf.bprintf b "counter %s %d\n" k v)
    (List.sort compare t.counters);
  List.iter
    (fun (k, v) -> Printf.bprintf b "account %s %Ld\n" k v)
    (List.sort compare t.accounts);
  List.iter
    (fun (k, v) -> Printf.bprintf b "result %s %Ld\n" k v)
    (List.sort compare t.results);
  Printf.bprintf b "latencies %d\n" (Array.length t.latencies);
  Array.iter
    (fun l ->
      Buffer.add_string b (string_of_int l);
      Buffer.add_char b '\n')
    t.latencies;
  Buffer.contents b

let digest t = Digest.to_hex (Digest.string (dump t))

let counter t name =
  match List.assoc_opt name t.counters with Some v -> v | None -> 0
