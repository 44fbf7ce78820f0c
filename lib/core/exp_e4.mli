(** E4 — guest system-call paths and the broken trap-gate shortcut.

    §3.2: every guest syscall traps into the VMM and is reflected to the
    guest kernel — an IPC operation; Xen's int80 trap-gate shortcut
    avoids this but "Linux's latest glibc violates the assumption and
    renders the shortcut useless". Null-syscall loops on five
    configurations: native, Xen with a valid shortcut, Xen after glibc's
    TLS segment load, Xen with the shortcut disabled, and the L4Linux
    analog. *)

val experiment : Experiment.t

type row = {
  config : string;
  cycles_per_syscall : float;
  relative_to_native : float;
  fast_count : int;
  bounce_count : int;
  l4_rendezvous : int;
}

val measure : ?iterations:int -> unit -> row list
(** Exposed for tests and examples. *)
