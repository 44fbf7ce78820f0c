type t = {
  arch : Arch.profile;
  engine : Vmk_sim.Engine.t;
  frames : Frame.t;
  irq : Irq.t;
  nic : Nic.t;
  disk : Disk.t;
  tlb : Tlb.t;
  icache : Cache.t;
  cpus : Cpu.t array;
  counters : Vmk_trace.Counter.set;
  accounts : Vmk_trace.Accounts.t;
  rng : Vmk_sim.Rng.t;
  timer_on : bool ref;
}

let timer_irq = 0
let nic_irq = 1
let disk_irq = 2

let create ?(arch = Arch.default) ?(frames = 4096) ?(cpus = 1) ?seed () =
  let engine = Vmk_sim.Engine.create () in
  let irq = Irq.create ~lines:8 in
  let cpus = Array.init (max 1 cpus) (fun id -> Cpu.create ~id arch) in
  let nic = Nic.create engine irq ~irq_line:nic_irq () in
  let counters = Vmk_trace.Counter.create_set () in
  (* Machine-wide itemization of NIC behaviour the drivers never see:
     buffer-exhaustion drops belong to the overload drop budget, absorbed
     interrupt edges to the mitigation ledger. The hooks are bound once
     here with pre-resolved counter ids (E21) — each firing is an array
     store, not a string hash. *)
  let id_nic_drop = Vmk_trace.Counter.id counters "overload.nic_drop" in
  let id_coalesced = Vmk_trace.Counter.id counters "mitig.irq_coalesced" in
  Nic.on_rx_drop nic (fun () ->
      Vmk_trace.Counter.incr_id counters id_nic_drop);
  Nic.on_coalesce nic (fun () ->
      Vmk_trace.Counter.incr_id counters id_coalesced);
  {
    arch;
    engine;
    frames = Frame.create ~frames;
    irq;
    nic;
    disk = Disk.create engine irq ~irq_line:disk_irq ();
    tlb = cpus.(0).Cpu.tlb;
    icache = cpus.(0).Cpu.icache;
    cpus;
    counters;
    accounts = Vmk_trace.Accounts.create ();
    rng = Vmk_sim.Rng.create ?seed ();
    timer_on = ref false;
  }

let ncpus t = Array.length t.cpus

let cpu t i =
  if i < 0 || i >= Array.length t.cpus then invalid_arg "Machine.cpu: bad index";
  t.cpus.(i)

let now t = Vmk_sim.Engine.now t.engine

let burn t cycles =
  if cycles < 0 then invalid_arg "Machine.burn: negative cycles";
  let c = Int64.of_int cycles in
  Vmk_trace.Accounts.charge_current t.accounts c;
  Vmk_sim.Engine.burn t.engine c

let burn_on t ~cpu cycles =
  if cycles < 0 then invalid_arg "Machine.burn_on: negative cycles";
  let c = Int64.of_int cycles in
  Vmk_trace.Accounts.charge_current_on t.accounts ~cpu:cpu.Cpu.id c;
  Cpu.advance cpu cycles

let burn_copy t ~bytes = burn t (Arch.copy_cost t.arch ~bytes)

let start_timer t ~period =
  if not !(t.timer_on) then begin
    t.timer_on := true;
    let flag = t.timer_on in
    Vmk_sim.Engine.every t.engine period (fun () ->
        if !flag then Irq.raise_line t.irq timer_irq;
        !flag)
  end

let stop_timer t = t.timer_on := false

let digest t state =
  let b = Buffer.create 4096 in
  Printf.bprintf b "clock %Ld\n" (now t);
  List.iter
    (fun (k, v) -> Printf.bprintf b "counter %s %d\n" k v)
    (Vmk_trace.Counter.to_list t.counters);
  List.iter
    (fun (k, v) -> Printf.bprintf b "account %s %Ld\n" k v)
    (Vmk_trace.Accounts.to_list t.accounts);
  for cpu = 0 to Vmk_trace.Accounts.cpus_seen t.accounts - 1 do
    List.iter
      (fun (k, v) -> Printf.bprintf b "cpu%d %s %Ld\n" cpu k v)
      (Vmk_trace.Accounts.to_cpu_list t.accounts ~cpu)
  done;
  List.iter
    (fun line ->
      Buffer.add_string b line;
      Buffer.add_char b '\n')
    state;
  Digest.to_hex (Digest.string (Buffer.contents b))
