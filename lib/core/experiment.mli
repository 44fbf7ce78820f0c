(** Experiment framework.

    Every claim-reproduction (E1–E22) and ablation (A1–A6) is an
    {!t}: it runs scenarios, renders result tables, and checks explicit
    verdicts — "the paper expects X, we measured Y, does the shape
    hold?". [vmk run <id>] and [vmk all] print each report with
    {!pp_report}; the committed [vmk all] outputs are the record that
    EXPERIMENTS.md quotes. *)

type verdict = {
  claim : string;  (** What the paper asserts. *)
  expected : string;  (** The testable shape. *)
  measured : string;  (** What this run produced. *)
  holds : bool;
}

type report = {
  tables : (string * Vmk_stats.Table.t) list;  (** Titled result tables. *)
  verdicts : verdict list;
}

type t = {
  id : string;  (** "e1" … "e22", "a1" … "a6" *)
  title : string;
  paper_claim : string;  (** Section reference + quoted claim. *)
  run : quick:bool -> report;
      (** [quick] shrinks iteration counts for test-suite use. *)
}

val verdict : claim:string -> expected:string -> measured:string -> bool -> verdict
val all_hold : report -> bool

val digests : (string * string) list -> string * Vmk_stats.Table.t
(** [digests runs] is the "Replay digests" table: one row per
    [(label, md5)], each MD5 a full 32-hex {!Vmk_hw.Machine.digest}.
    Printed in the output, they put every listed machine's final state
    under the golden-output diff. *)

val pp_report : Format.formatter -> t * report -> unit
