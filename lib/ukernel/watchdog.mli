(** User-level watchdog thread: the microkernel recovery story.

    The watchdog periodically pings each registered service
    ({!Proto.ping} with a bounded IPC timeout). A server that is dead
    ([Dead_partner]) or wedged ([Timeout]) is unwind-killed and a
    replacement is spawned from its factory; the {!Svc.entry} is rebound
    so clients that re-read the entry find the new thread. This is the
    paper's §3 claim in action: because drivers are ordinary threads,
    restarting one is an ordinary spawn — no reboot, no kernel change.

    Respawning is not unconditional (E18): consecutive respawns of the
    same service without an intervening healthy ping back off
    exponentially, and after a cap the watchdog gives up on the service
    — a deterministically crashing driver degrades into a dead service
    instead of burning the machine on doomed rebuilds forever. *)

type t

val create : unit -> t

val stop : t -> unit
(** Ask the watchdog to exit at its next wakeup (so [Kernel.run] without
    [until] can still reach quiescence). *)

val respawns : t -> (string * int64) list
(** [(service name, virtual time)] of every respawn, oldest first. *)

val given_up : t -> string list
(** Services currently abandoned after the give-up cap, oldest first.
    A service revived by a successful manual rebuild leaves the list. *)

val body :
  Vmk_hw.Machine.t ->
  t ->
  period:int64 ->
  ping_timeout:int64 ->
  ?backoff:int64 ->
  ?give_up:int ->
  (Svc.entry * (unit -> Sysif.spawn_spec)) list ->
  unit ->
  unit
(** Thread body. [services] pairs each registry entry with a factory
    producing the spawn spec for a replacement instance.

    The first respawn after a healthy ping is immediate; the [n]-th
    consecutive one waits [backoff * 2^(n-1)] cycles (default
    [backoff = period], so isolated failures behave as before), and
    after [give_up] consecutive respawns (default 8)
    the service is abandoned. A healthy ping resets both the streak and
    the backoff gate. Abandonment is not permanent: the watchdog keeps
    pinging abandoned services, and a healthy reply — e.g. after a
    manual rebuild rebinds the {!Svc} entry to a working replacement —
    revives the service, clears its give-up streak and removes it from
    {!given_up}. Counters: ["uk.watchdog.respawn"],
    ["uk.watchdog.giveup"], ["uk.watchdog.revive"].
    @raise Invalid_argument if [give_up < 1] or [backoff < 0]. *)
