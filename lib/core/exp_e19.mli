(** E19: the capability layer under revocation storms — per-domain
    handle tables and an explicit derivation tree now back both the
    microkernel's map-item delegations and the VMM's grant mappings, so
    one recursive revoke tears down a whole delegation chain on either
    stack. Measured: teardown cycles vs derivation depth (map-item
    chains on L4, grant -> map -> transitive re-grant chains on the
    VMM), the E17 fabric mid-run with a misbehaving party recursively
    revoked, collateral p99 latency on innocent guests, privileged
    transitions, and the replay digests of both storms. *)

val experiment : Experiment.t

(** {1 Test and bench hooks} *)

type chain = {
  ch_depth : int;
  ch_removed : int;  (** Capabilities torn down by the root revoke. *)
  ch_forced : int;  (** Grant mappings force-unmapped (vmm only). *)
  ch_transitive : int;  (** Transitive re-grants in the chain (vmm only). *)
  ch_teardown : int64;  (** Cycles of the revoke call itself. *)
  ch_severed : int;  (** Delegates that observed their rights gone. *)
  ch_counters : (string * int) list;
}

val uk_chain : depth:int -> chain
(** Map-item delegation chain of [depth] hops on the microkernel, torn
    down by one [Sysif.unmap] at the root. *)

val vmm_chain : depth:int -> chain
(** Grant -> map -> transitive re-grant chain of [depth] hops on the
    VMM, torn down by one [Hcall.grant_revoke] at the owner. *)

type storm = {
  st_innocent_rx : int;  (** Packets delivered between innocent guests. *)
  st_expected : int;  (** What the innocent pairs should deliver. *)
  st_p99_gap : int64;  (** p99 inter-arrival gap across innocent traffic. *)
  st_denied : int;  (** Broker lookups denied post-revocation (uk). *)
  st_victim_failed : int;  (** Victim operations that failed after revoke. *)
  st_removed : int;  (** Caps torn down by the storm's revoke. *)
  st_forced : int;  (** Forced unmaps from the storm's revoke (vmm). *)
  st_transitions : int;  (** Privileged transitions over the whole run. *)
  st_teardown : int64;  (** Revoke span (uk: call round trip; vmm: exact). *)
  st_digest : string;
      (** {!Vmk_hw.Machine.digest} of the run plus every arrival and the
          fields above: equal digests are bit-for-bit replay. *)
}

val uk_storm : quick:bool -> revoke:bool -> storm
(** E17-style pairwise vnet traffic on the microkernel; with [revoke],
    the broker recursively revokes the misbehaving guest's session-cap
    chain mid-run, after which its fresh lookups are denied. *)

val xen_storm : quick:bool -> revoke:bool -> storm
(** Pairwise traffic through the Dom0 bridge; with [revoke], a 3-deep
    live transitive grant chain is cut down at its root mid-run. *)
