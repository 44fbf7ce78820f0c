type verdict = {
  claim : string;
  expected : string;
  measured : string;
  holds : bool;
}

type report = {
  tables : (string * Vmk_stats.Table.t) list;
  verdicts : verdict list;
}

type t = {
  id : string;
  title : string;
  paper_claim : string;
  run : quick:bool -> report;
}

let verdict ~claim ~expected ~measured holds = { claim; expected; measured; holds }
let all_hold report = List.for_all (fun v -> v.holds) report.verdicts

let digests runs =
  let table = Vmk_stats.Table.create ~header:[ "run"; "md5" ] in
  List.iter (fun (label, md5) -> Vmk_stats.Table.add_row table [ label; md5 ]) runs;
  ("Replay digests", table)

let pp_report ppf (t, report) =
  Format.fprintf ppf "== %s: %s ==@." (String.uppercase_ascii t.id) t.title;
  Format.fprintf ppf "Paper claim: %s@.@." t.paper_claim;
  List.iter
    (fun (title, table) ->
      Format.fprintf ppf "--- %s ---@.%a@." title Vmk_stats.Table.pp table)
    report.tables;
  List.iter
    (fun v ->
      Format.fprintf ppf "[%s] %s@.    expected: %s@.    measured: %s@."
        (if v.holds then "HOLDS" else "FAILS")
        v.claim v.expected v.measured)
    report.verdicts
