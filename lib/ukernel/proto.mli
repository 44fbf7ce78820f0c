(** Message-label conventions shared by kernel, servers and clients. *)

val pagefault : int
(** Label of kernel-synthesised page-fault IPC to a pager. The message
    carries [\[| vpn; write |\]]. *)

val interrupt : int
(** Label of kernel-synthesised interrupt IPC. Carries [\[| line |\]]. *)

(** {1 Driver-server protocol labels} *)

val net_send : int
val net_recv : int
val blk_read : int
val blk_write : int

val ping : int
(** Liveness probe: servers answer [ok] immediately (watchdog protocol). *)

val ok : int
val error : int

val busy : int
(** Transient overload: the server shed the request (admission denied,
    no free buffer). Retryable with backoff, unlike [error] which means
    the operation itself failed (E15). *)

(** {1 Guest-kernel (L4Linux analog) protocol} *)

val guest_syscall : int

(** {1 Inter-guest vnet protocol (E17)}

    Connection setup goes through the net server (the broker); the data
    path is direct guest-kernel → guest-kernel IPC. *)

val vnet_attach : int
(** Client → broker: register the caller as vnet port [w.(0)]. *)

val vnet_lookup : int
(** Client → broker: resolve destination port [w.(0)] to its thread id
    (flow-cache → MAC-table, with cycle accounting). [ok] carries the
    tid in [w.(0)]; [error] means no such port. *)

val vnet_pkt : int
(** Guest → guest: one data packet as a string item. The [ok] reply
    carries the receiver's ECN mark in [w.(0)] (1 = past the rx-queue
    watermark, sender should back off); [busy] means the bounded rx
    queue rejected it (retryable). *)

val vnet_open : int
(** Guest → guest, once per peer: establish the shared mapping for the
    data path (carries a granted fpage). *)

val vnet_revoke : int
(** Client → broker: tear down port [w.(0)]'s session — the broker
    revokes the port's capability chain, cascading to everything the
    port derived (E19). [ok] carries the number of caps removed. *)

(** {1 Capability transfer (E19)} *)

val revoke_pool : int
(** Client → pager: recursively revoke every mapping delegated out of the
    pager's pool (the pager keeps its own pages). [ok] carries the number
    of caps removed. *)
