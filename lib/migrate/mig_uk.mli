(** Microkernel-stack adapter for {!Migrate} (E20).

    The migrating guest is an ordinary thread whose pages are served by
    a user-level {!Vmk_ukernel.Pager} — the task faults them in through
    the pager protocol, which also mints its per-page capability
    handles. A daemon thread drives the {!Migrate} protocol over the
    new E20 syscalls ([Log_dirty]/[Dirty_read] on the task's address
    space, the cooperative handshake plus [Thread_pause] for
    stop-and-copy). Packets go to a sink thread by synchronous IPC, so
    there is never an in-flight packet across the pause point.

    On [Completed], a fresh destination kernel restores the task: it is
    spawned under a fresh pager, re-faults its pages (the Mapdb-state
    transfer — the mappings are re-established through the pager, and
    the per-page capability handles come back with the map items), then
    replays the deterministic workload from the migrated step counter.
    The handle counts on both sides are reported in [r_handles] so the
    experiment can check the capability table survived the move. *)

val migrate :
  ?pages:int ->
  ?steps:int ->
  ?w:Migrate.Workload.t ->
  ?cfg:Migrate.config ->
  ?abort_at:Migrate.phase * Migrate.abort_reason ->
  ?plan:Vmk_faults.Faults.plan ->
  unit ->
  Migrate.result
(** Same knobs and defaults as {!Mig_vmm.migrate}; the machine seed is
    53. *)
