(** Experiment registry: all claim-reproductions and ablations. *)

val all : Experiment.t list
(** E1–E20 and E22, then A1–A6, in id order. *)

val find : string -> Experiment.t option
(** Case-insensitive lookup by id ("e3", "A1", …). *)

val ids : unit -> string list
