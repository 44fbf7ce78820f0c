(* vmk — command-line driver for the experiment suite.

   vmk list                 enumerate experiments
   vmk run e3 a1 [--quick]  run specific experiments
   vmk all [--quick]        run everything
   vmk archs                show the architecture cost profiles *)

open Cmdliner

let run_one ~quick (e : Vmk_core.Experiment.t) =
  let report = e.Vmk_core.Experiment.run ~quick in
  Format.printf "%a@." Vmk_core.Experiment.pp_report (e, report);
  Vmk_core.Experiment.all_hold report

let list_cmd =
  let doc = "List available experiments and ablations." in
  let action () =
    List.iter
      (fun (e : Vmk_core.Experiment.t) ->
        Format.printf "%-4s %s@." e.Vmk_core.Experiment.id
          e.Vmk_core.Experiment.title)
      Vmk_core.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const action $ const ())

let quick_arg =
  let doc = "Shrink iteration counts (fast, less precise)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

(* Summarize registry ids as compact ranges ("e1..e14, a1..a6") so the
   doc string can never go stale as experiments are added. *)
let id_ranges () =
  let ids = Vmk_core.Registry.ids () in
  let split id =
    let rec digits i =
      if i < String.length id && id.[i] >= '0' && id.[i] <= '9' then digits (i + 1)
      else i
    in
    let rec prefix_end i =
      if i < String.length id && not (id.[i] >= '0' && id.[i] <= '9') then
        prefix_end (i + 1)
      else i
    in
    let p = prefix_end 0 in
    if p > 0 && digits p = String.length id && p < String.length id then
      Some (String.sub id 0 p, int_of_string (String.sub id p (String.length id - p)))
    else None
  in
  let groups = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun id ->
      match split id with
      | Some (prefix, n) ->
          if not (Hashtbl.mem groups prefix) then order := prefix :: !order;
          Hashtbl.replace groups prefix
            (n :: Option.value (Hashtbl.find_opt groups prefix) ~default:[])
      | None ->
          if not (Hashtbl.mem groups id) then order := id :: !order;
          Hashtbl.replace groups id [])
    ids;
  List.rev !order
  |> List.map (fun prefix ->
         match List.sort compare (Hashtbl.find groups prefix) with
         | [] -> prefix
         | [ n ] -> Printf.sprintf "%s%d" prefix n
         | n :: rest ->
             Printf.sprintf "%s%d..%s%d" prefix n prefix
               (List.fold_left max n rest))
  |> String.concat ", "

let run_cmd =
  let doc = Printf.sprintf "Run the named experiments (%s)." (id_ranges ()) in
  let ids_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment id")
  in
  let action quick ids =
    let ok = ref true in
    List.iter
      (fun id ->
        match Vmk_core.Registry.find id with
        | Some e -> if not (run_one ~quick e) then ok := false
        | None ->
            Format.eprintf "unknown experiment %S; try `vmk list'@." id;
            ok := false)
      ids;
    if !ok then 0 else 1
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const action $ quick_arg $ ids_arg)

let all_cmd =
  let doc = "Run every experiment and ablation; print a verdict summary." in
  let action quick =
    let results =
      List.map
        (fun (e : Vmk_core.Experiment.t) ->
          let report = e.Vmk_core.Experiment.run ~quick in
          Format.printf "%a@." Vmk_core.Experiment.pp_report (e, report);
          (e, Vmk_core.Experiment.all_hold report))
        Vmk_core.Registry.all
    in
    Format.printf "@.=== Summary ===@.";
    List.iter
      (fun ((e : Vmk_core.Experiment.t), ok) ->
        Format.printf "%-4s %-6s %s@." e.Vmk_core.Experiment.id
          (if ok then "HOLDS" else "FAILS")
          e.Vmk_core.Experiment.title)
      results;
    if List.for_all snd results then 0 else 1
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const action $ quick_arg)

let faults_cmd =
  let doc =
    "Run one fault-injection scenario (the E13 machinery): kill the storage \
     driver mid-run at the given disk fault rate and print the recovery \
     metrics."
  in
  let stack_arg =
    let doc = "Stack to run: $(b,l4) (watchdog respawn) or $(b,vmm) \
               (supervisor restart + reconnect)." in
    Arg.(
      value
      & opt (enum [ ("l4", `L4); ("vmm", `Vmm) ]) `L4
      & info [ "stack" ] ~docv:"STACK" ~doc)
  in
  let rate_arg =
    let doc = "Transient disk-fault rate in percent (0 = baseline: no \
               faults, no kill)." in
    Arg.(value & opt int 15 & info [ "rate" ] ~docv:"PCT" ~doc)
  in
  let action quick stack rate =
    if rate < 0 || rate > 100 then begin
      Format.eprintf "rate must be in [0, 100]@.";
      1
    end
    else begin
      let m = Vmk_core.Exp_e13.run_one ~stack ~rate ~quick in
      Format.printf "stack            %s@." m.Vmk_core.Exp_e13.stack;
      Format.printf "fault rate       %d%%@." m.Vmk_core.Exp_e13.rate;
      Format.printf "completed        %d@." m.Vmk_core.Exp_e13.completed;
      Format.printf "lost             %d@." m.Vmk_core.Exp_e13.lost;
      Format.printf "retries          %d@." m.Vmk_core.Exp_e13.retries;
      Format.printf "gave up          %d@." m.Vmk_core.Exp_e13.gaveup;
      Format.printf "recoveries       %d@." m.Vmk_core.Exp_e13.recoveries;
      Format.printf "recovery latency %s@."
        (match m.Vmk_core.Exp_e13.recovery_latency with
        | Some l -> Printf.sprintf "%Ld cycles" l
        | None -> "-");
      Format.printf "finished         %s@."
        (if m.Vmk_core.Exp_e13.finished then "yes" else "NO");
      if m.Vmk_core.Exp_e13.finished then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "faults" ~doc)
    Term.(const action $ quick_arg $ stack_arg $ rate_arg)

let archs_cmd =
  let doc = "Show the nine architecture cost profiles." in
  let action () =
    List.iter
      (fun p -> Format.printf "%a@." Vmk_hw.Arch.pp p)
      Vmk_hw.Arch.all;
    0
  in
  Cmd.v (Cmd.info "archs" ~doc) Term.(const action $ const ())

let main_cmd =
  let doc =
    "Reproduction of 'Are Virtual-Machine Monitors Microkernels Done \
     Right?' (Heiser, Uhlig, LeVasseur; 2005)"
  in
  let info = Cmd.info "vmk" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ list_cmd; run_cmd; all_cmd; faults_cmd; archs_cmd ]

let () = exit (Cmd.eval' main_cmd)
