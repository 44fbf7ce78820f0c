(** Named integer counters.

    Kernels and device models bump counters ("ipc.rendezvous",
    "grant.transfer", "nic.rx_irq", …); the comparison framework reads them
    to classify events under the paper's §2.2 taxonomy. A [Counter.set] is a
    flat namespace owned by one machine, so scenarios never share state.

    Hot paths intern a name once with {!id} at wiring time and bump the
    resulting integer id with {!incr_id}/{!add_id} — a plain array store,
    nothing allocated. The string functions remain as a shim that interns
    on first use (and whose hit path is also allocation-free). *)

type set
(** A namespace of counters. *)

val create_set : unit -> set

val id : set -> string -> int
(** Intern a counter name, creating its cell at zero first if needed.
    The id is dense, stable for the lifetime of the set, and private to
    this set. Resolve once at wiring time; never on a per-packet path. *)

val incr_id : set -> int -> unit
(** Bump an interned counter by one — a single array store. *)

val add_id : set -> int -> int -> unit
(** Bump an interned counter by an arbitrary (non-negative) amount.

    @raise Invalid_argument on a negative amount. *)

val get_id : set -> int -> int
(** Current value of an interned counter. *)

val name : set -> int -> string
(** The name an id was interned under. *)

val incr : set -> string -> unit
(** Bump a counter by one, creating it at zero first if needed. *)

val add : set -> string -> int -> unit
(** Bump by an arbitrary (non-negative) amount.

    @raise Invalid_argument on a negative amount. *)

val get : set -> string -> int
(** Current value; [0] for a counter never touched. *)

val reset : set -> unit
(** Zero every counter (the names survive). *)

val to_list : set -> (string * int) list
(** All counters with non-zero values, sorted by name. *)

val fold : set -> init:'a -> f:('a -> string -> int -> 'a) -> 'a

val matching : set -> prefix:string -> (string * int) list
(** Counters whose name starts with [prefix], sorted by name. *)

val sum_matching : set -> prefix:string -> int
