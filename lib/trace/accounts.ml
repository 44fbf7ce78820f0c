type cell = { mutable total : int64; mutable by_cpu : int64 array }

type t = {
  balances : (string, cell) Hashtbl.t;
  mutable current : string;
  mutable max_cpu : int;  (* highest cpu index ever charged *)
}

let idle = "idle"
let create () = { balances = Hashtbl.create 16; current = idle; max_cpu = 0 }

let cell t name =
  match Hashtbl.find_opt t.balances name with
  | Some c -> c
  | None ->
      let c = { total = 0L; by_cpu = Array.make 1 0L } in
      Hashtbl.add t.balances name c;
      c

let ensure_cpu c cpu =
  let n = Array.length c.by_cpu in
  if cpu >= n then begin
    let by_cpu = Array.make (cpu + 1) 0L in
    Array.blit c.by_cpu 0 by_cpu 0 n;
    c.by_cpu <- by_cpu
  end

let charge_on t ~cpu name cycles =
  if Int64.compare cycles 0L < 0 then invalid_arg "Accounts.charge: negative";
  if cpu < 0 then invalid_arg "Accounts.charge: negative cpu";
  let c = cell t name in
  ensure_cpu c cpu;
  c.total <- Int64.add c.total cycles;
  c.by_cpu.(cpu) <- Int64.add c.by_cpu.(cpu) cycles;
  if cpu > t.max_cpu then t.max_cpu <- cpu

let charge t name cycles = charge_on t ~cpu:0 name cycles
let charge_current t cycles = charge t t.current cycles
let charge_current_on t ~cpu cycles = charge_on t ~cpu t.current cycles
let switch_to t name = t.current <- name
let current t = t.current

let with_account t name f =
  let previous = t.current in
  t.current <- name;
  Fun.protect ~finally:(fun () -> t.current <- previous) f

(* Closure-free account switching for hot paths: callers save the
   previous account and restore it themselves. Unlike {!with_account}
   there is no [Fun.protect] — only use where the charged section
   cannot raise (plain burns), or restore from an exception handler. *)
let[@inline] swap t name =
  let previous = t.current in
  t.current <- name;
  previous

let[@inline] restore t previous = t.current <- previous

let balance t name =
  match Hashtbl.find_opt t.balances name with Some c -> c.total | None -> 0L

let cpu_balance t ~cpu name =
  match Hashtbl.find_opt t.balances name with
  | Some c when cpu >= 0 && cpu < Array.length c.by_cpu -> c.by_cpu.(cpu)
  | Some _ | None -> 0L

let cpus_seen t = t.max_cpu + 1

let total t = Hashtbl.fold (fun _ c acc -> Int64.add acc c.total) t.balances 0L

let busy_total t =
  Hashtbl.fold
    (fun name c acc -> if name = idle then acc else Int64.add acc c.total)
    t.balances 0L

let share t name =
  let busy = busy_total t in
  if Int64.compare busy 0L = 0 then 0.0
  else Int64.to_float (balance t name) /. Int64.to_float busy

let reset t =
  Hashtbl.iter
    (fun _ c ->
      c.total <- 0L;
      Array.fill c.by_cpu 0 (Array.length c.by_cpu) 0L)
    t.balances;
  t.current <- idle;
  t.max_cpu <- 0

let to_list t =
  Hashtbl.fold
    (fun name c acc ->
      if Int64.compare c.total 0L <> 0 then (name, c.total) :: acc else acc)
    t.balances []
  |> List.sort compare

let to_cpu_list t ~cpu =
  Hashtbl.fold
    (fun name c acc ->
      let v =
        if cpu >= 0 && cpu < Array.length c.by_cpu then c.by_cpu.(cpu) else 0L
      in
      if Int64.compare v 0L <> 0 then (name, v) :: acc else acc)
    t.balances []
  |> List.sort compare
