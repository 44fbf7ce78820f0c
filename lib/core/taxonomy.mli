(** The paper's §2.2 operation taxonomy.

    IPC's three orthogonal roles — kernel-controlled control transfer,
    kernel-controlled data transfer, and mutually-agreed resource
    delegation — classify every privileged operation of both systems.
    Runtime counters are mapped onto roles so experiments can compare
    {e what} the two structures actually did, not just how long it took. *)

type role = Control_transfer | Data_transfer | Resource_delegation
type system = Microkernel | Vmm

val roles_of_counter : system -> string -> role list
(** Roles a runtime counter's operations embody; [[]] for bookkeeping
    counters outside the taxonomy. E.g. ["uk.ipc.rendezvous"] →
    control transfer; ["vmm.page_flip"] → data transfer {e and} resource
    delegation. *)

val role_counts : system -> Vmk_trace.Counter.set -> (role * int) list
(** Sum the classified counters of a finished run, per role. *)

val pp_role : Format.formatter -> role -> unit
