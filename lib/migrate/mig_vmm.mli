(** VMM-stack adapter for {!Migrate} (E20).

    The source machine runs a {!Vmk_vmm.Bridge} driver domain (the
    inter-guest fabric), a sink guest, the migrating guest and a
    privileged migration-daemon domain. The daemon drives the {!Migrate}
    protocol over the new E20 hypercalls: [log_dirty]/[dirty_read] for
    the iterative rounds, the cooperative quiesce handshake plus
    [dom_pause] for stop-and-copy, and domain destruction at commit.
    Device state — the frontend's reconnect generation and its XenStore
    demux key — rides the final state message.

    On [Completed], a fresh destination machine restores the guest:
    {!Vmk_vmm.Netfront.restore} rebuilds the frontend from the migrated
    generation, the destination bridge runs at generation [+1], and the
    ordinary E13 reconnect handshake reattaches it; the guest then
    replays its deterministic workload from the migrated step counter.
    On [Aborted], the source resumes and finishes; no destination is
    built. Packets are seq-tagged, so the union of the two sinks' logs
    must be every sequence number exactly once — the conservation
    property the qcheck satellite drives. *)

val migrate :
  ?pages:int ->
  ?steps:int ->
  ?w:Migrate.Workload.t ->
  ?cfg:Migrate.config ->
  ?abort_at:Migrate.phase * Migrate.abort_reason ->
  ?plan:Vmk_faults.Faults.plan ->
  unit ->
  Migrate.result
(** One migration attempt. Defaults: 64 pages, 400 steps, the default
    workload, {!Migrate.precopy}, no injection. The migration daemon
    starts after 200K cycles and pays 2,000 cycles per page and 4,000
    per state message; the machine seed is 97. [plan] is armed on the
    source machine with {!Migrate.inject} as the [migration] callback
    (plus a kill hook for ["guest"]), so time-based [Mig_fault] events
    drive the same abort machinery as [abort_at]. *)

val reference : ?pages:int -> ?steps:int -> ?w:Migrate.Workload.t -> unit ->
  Migrate.Image.t
(** The uninterrupted execution's final image — a pure replay of the
    workload, which is exactly what an unmigrated guest computes. *)

type handoff = {
  ho_mode : [ `Planned | `Crash ];
  ho_sent : int;  (** Packets the streaming client got accepted. *)
  ho_received : int;  (** Packets the sink saw. *)
  ho_retries : int;  (** Send attempts that failed during the outage. *)
  ho_outage : int64;  (** First failed send → first success after it. *)
  ho_generation : int;  (** Client frontend's generation at the end. *)
  ho_storm_received : int;  (** Storm packets delivered meanwhile. *)
}

val driver_handoff :
  mode:[ `Planned | `Crash ] ->
  ?packets:int ->
  unit ->
  handoff
(** Migrate the bridge driver domain in place while a client streams
    packets through it under a packet storm from a third guest — the
    E14 overload condition. [`Planned]: the toolstack builds the
    generation [n+1] incarnation {e first}, then destroys the old one,
    so frontends reconnect into a waiting backend.
    [`Crash]: the old incarnation is destroyed first and the
    replacement is only built after a supervision-poll delay — the E13
    crash-restart baseline. The client retries with
    {!Vmk_vmm.Netfront.reconnect}; the outage span is what the planned
    handoff is supposed to shrink. *)
