(** x86 segment registers — the machinery behind Xen's syscall shortcut.

    Xen's trap-gate shortcut (§3.2) lets a guest's [int 0x80] enter the
    guest kernel directly, skipping the VMM. It is only safe if every
    segment that stays live across the trap excludes the VMM's reserved
    address range: hardware reloads just two of the six selectors (CS, SS)
    through the gate, so the other four (DS, ES, FS, GS) keep whatever the
    application loaded. The paper notes that glibc's TLS support loads GS
    with a descriptor reaching the whole address space, violating the
    assumption and "rendering the shortcut useless" — experiment E4
    reproduces exactly that. *)

type selector = Cs | Ss | Ds | Es | Fs | Gs

type descriptor = { base : int; limit : int }
(** A flat segment covering bytes [\[base, base+limit)]. *)

type t
(** One hardware thread's segment-register file. *)

val create : user_limit:int -> t
(** Fresh register file with all six selectors covering
    [\[0, user_limit)] — the classic paravirtualised guest layout that
    leaves the VMM hole above [user_limit] unreachable. *)

val load : t -> selector -> descriptor -> unit
(** Load a selector (counts as one segment-register reload). *)

val reload_count : t -> int

val live_segments_exclude : t -> Addr.range -> bool
(** True iff every selector other than CS and SS (which the trap
    reloads) excludes the range — the precondition for the trap-gate
    shortcut to be safe. *)
