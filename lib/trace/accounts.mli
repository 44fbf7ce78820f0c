(** Per-protection-domain CPU-cycle accounting.

    The central instrument behind experiments E3 and E8: every cycle burnt
    in the simulator is charged to exactly one account ("dom0", "guest1",
    "vmm", "ukernel", "idle", …), so CPU shares fall out as ratios of
    account balances.

    Every charge also lands in a per-CPU bucket (cpu 0 unless the [_on]
    variants say otherwise), so SMP experiments can itemize where each
    account's cycles were spent core by core. *)

type t
(** A set of named cycle accounts with a current-account pointer. *)

val create : unit -> t
(** Fresh account set; the current account starts as ["idle"]. *)

val charge : t -> string -> int64 -> unit
(** [charge t name cycles] adds [cycles] to [name]'s balance, in the
    cpu-0 bucket.

    @raise Invalid_argument on a negative charge. *)

val charge_on : t -> cpu:int -> string -> int64 -> unit
(** Like {!charge} but lands in the given core's bucket.

    @raise Invalid_argument on a negative charge or cpu index. *)

val charge_current : t -> int64 -> unit
(** Charge the account selected by {!switch_to}, on cpu 0. *)

val charge_current_on : t -> cpu:int -> int64 -> unit
(** Charge the current account on the given core. *)

val switch_to : t -> string -> unit
(** Select the account that subsequent {!charge_current} calls hit. *)

val current : t -> string

val with_account : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk with the current account temporarily switched — the pattern
    for "this stretch of work executes inside the VMM / Dom0 / the guest".
    Restores the previous account even on exceptions. *)

val swap : t -> string -> string
(** Switch the current account and return the previous one — the
    closure-free {!with_account} for hot paths. The caller must
    {!restore} the returned account; nothing restores it on an
    exception, so only bracket code that cannot raise. *)

val restore : t -> string -> unit
(** Undo a {!swap}. *)

val balance : t -> string -> int64
(** Cycles charged to [name] so far, over all cores; [0L] if never
    charged. *)

val cpu_balance : t -> cpu:int -> string -> int64
(** [name]'s cycles in one core's bucket; [0L] for unknown accounts or
    cores never charged. *)

val cpus_seen : t -> int
(** 1 + the highest core index any charge has hit (so ≥ 1). *)

val total : t -> int64
(** Sum over all accounts. *)

val busy_total : t -> int64
(** Sum over all accounts except ["idle"]. *)

val share : t -> string -> float
(** [share t name] is [name]'s fraction of {!busy_total}, in [0,1];
    [0.] when nothing has been charged. *)

val reset : t -> unit
val to_list : t -> (string * int64) list
(** Non-zero balances, sorted by name. *)

val to_cpu_list : t -> cpu:int -> (string * int64) list
(** Non-zero balances in one core's bucket, sorted by name. *)
