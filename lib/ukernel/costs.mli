(** Microkernel path-length constants.

    Cycle counts for the kernel's own code paths, on top of the
    architecture profile's hardware costs. Calibrated to the L4 literature:
    the short-IPC kernel path is a couple of hundred cycles, far below the
    hardware trap cost on x86. *)

val ipc_path : int
(** Kernel work for one IPC rendezvous carrying up to {!free_words}
    untyped words (no strings, no maps). *)

val free_words : int
(** Words transferred in registers for free. *)

val per_extra_word : int
(** Cycles per untyped word beyond {!free_words}. *)

val syscall_fixed : int
(** Kernel entry/exit bookkeeping around every system call, excluding the
    hardware trap cost. *)

val irq_to_ipc : int
(** Converting a hardware interrupt into an IPC message. *)

val ipc_region : Vmk_hw.Cache.region
(** The i-cache lines the unified IPC path touches (experiment E9). *)
