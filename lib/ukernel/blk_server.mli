(** User-level block driver server.

    Owns the disk, receives its completions as interrupt IPC, serves
    {!Proto.blk_read}/{!Proto.blk_write} requests from client threads.
    Clients block in their [Call] until the disk completes, so killing
    this server (experiment E6) errors out exactly its in-flight clients. *)

val body : Vmk_hw.Machine.t -> unit -> unit
(** Server loop; spawn with {!Kernel.spawn}. At most 8 requests are in
    flight; beyond that requests are answered with {!Proto.busy} —
    transient exhaustion, retryable with backoff — while a media error
    stays {!Proto.error}. *)

val account : string
(** ["drv.blk"]. *)
