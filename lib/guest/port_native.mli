(** Native port: the mini-OS on bare (simulated) hardware.

    The monolithic baseline every experiment compares against: system
    calls cost one hardware kernel entry, drivers talk to the devices
    directly, nothing else runs on the machine. All cycles are charged to
    the ["native"] account. *)

val run : Vmk_hw.Machine.t -> (unit -> unit) -> unit
(** Run an application to completion on a fresh machine. Device waits
    idle the virtual clock forward; [Sys_error] is raised into the app on
    device failure (e.g. blocking receive with no traffic left). *)
