(** IPC-equivalence counting (experiment E5).

    §3.2's closing claim: "a Xen-based system performs essentially the
    same number of IPC operations as a comparable microkernel-based
    system". The counting rules below map each system's runtime counters
    onto "IPC-equivalent operations": kernel-mediated transfers of
    control, data or resources between protection domains. Pure
    bookkeeping (world switches, hypercall entries that implement one of
    the counted operations) is excluded to avoid double counting. *)

type breakdown = {
  control : int;
  data : int;
  delegation : int;
  total : int;  (** Not the row sum: an op with several roles counts once. *)
  detail : (string * int) list;  (** Counter-level contributions. *)
}

val of_microkernel_run : Vmk_trace.Counter.set -> breakdown
(** Rendezvous + interrupt deliveries + fault IPC; map pages as
    delegation ops; string bytes are data volume, not extra ops. *)

val of_vmm_run : Vmk_trace.Counter.set -> breakdown
(** Bounced syscalls + event-channel sends + upcalls + routed IRQs as
    control transfers; page flips as data ops; grant maps and validated
    PT updates as delegation ops. *)

val per_unit : breakdown -> units:int -> float
(** Total IPC-equivalent operations per workload unit (e.g. per round or
    per guest syscall). *)
