(** Stack-agnostic capability layer (E19).

    A capability names an object (an opaque integer chosen by the
    embedder: a page identity, a grant reference, a service) and carries
    a rights mask. Capabilities live in per-protection-domain handle
    tables and form an explicit derivation tree per object: {!derive}
    creates a child whose rights are the intersection of the requested
    mask and the parent's (a child can never gain a right its parent
    lacks), and {!revoke} tears down an entire derivation subtree
    recursively, invoking the embedder's callback once per capability so
    mappings, grants or sessions backed by the caps can be dismantled in
    the same pass.

    The layer is deliberately mechanism-free: it owns no page tables and
    no grant entries. The microkernel drives {!Vmk_ukernel.Mapdb} page
    removal from the revoke callback; the VMM force-unmaps outstanding
    grant mappings from it. Both charge cycles through the [burn]
    callback supplied at {!create}.

    Accounting (all under the machine's counters): ["cap.minted"],
    ["cap.derived"], ["cap.granted"], ["cap.lookups"], ["cap.denied"],
    ["cap.revoked"], ["cap.revoke_calls"] and the
    per-teardown depth histogram
    ["cap.revoke_depth.le_1" … "cap.revoke_depth.gt_8"]. *)

(** {1 Rights} *)

type rights = int
(** A bitmask of the five rights below. *)

val r_read : rights
val r_write : rights
val r_map : rights
(** Right to install the object into another protection domain
    (memory map / grant-map paths). *)

val r_derive : rights
(** Right to create child capabilities. *)

val r_revoke : rights
(** Right to tear down this capability's derivation subtree. *)

val r_full : rights
(** All five rights. *)

val has : rights -> rights -> bool
(** [has mask need] is true iff every bit of [need] is in [mask]. *)

(** {1 Tables} *)

type t
(** All handle tables of one machine (one per protection domain,
    created on demand). *)

type handle = int

type info = {
  i_dom : int;  (** Owning protection domain. *)
  i_handle : handle;
  i_obj : int;  (** The object this capability names. *)
  i_rights : rights;
}

val create :
  counters:Vmk_trace.Counter.set ->
  ?burn:(int -> unit) ->
  unit ->
  t
(** [burn] charges cycles to whatever account is active at the call
    site; it defaults to a no-op (pure bookkeeping, e.g. unit tests). *)

(** {1 Operations} *)

val mint : t -> dom:int -> obj:int -> rights:rights -> handle
(** A fresh root capability in [dom]'s table. *)

val lookup : t -> dom:int -> handle:handle -> info option
(** Counted under ["cap.lookups"]. *)

val check : t -> dom:int -> handle:handle -> need:rights -> bool
(** Validate a presented handle: the capability exists in [dom]'s table
    and carries every bit of [need]. A failure counts ["cap.denied"]. *)

val derive :
  t ->
  dom:int ->
  handle:handle ->
  to_dom:int ->
  obj:int ->
  rights:rights ->
  (handle, [ `No_cap | `Denied ]) result
(** Child capability in [to_dom]'s table, rights masked by the parent's
    ([rights land parent]); requires [r_derive] on the parent. The new
    cap is a tree child of [handle], so revoking the parent kills it. *)

val grant :
  t ->
  dom:int ->
  handle:handle ->
  to_dom:int ->
  obj:int ->
  (handle, [ `No_cap ]) result
(** Move semantics: the capability transfers to [to_dom] (renamed to
    [obj]), taking the source's place in the derivation tree — parent
    and children are preserved, the source handle dies. Mirrors
    {!Vmk_ukernel.Mapdb.map} with [grant:true]. *)

type revoke_stats = {
  r_removed : int;  (** Capabilities torn down, including the root iff [self]. *)
  r_max_depth : int;  (** Deepest subtree level removed (root = 0). *)
}

val revoke :
  t ->
  dom:int ->
  handle:handle ->
  self:bool ->
  on_revoke:(info -> depth:int -> unit) ->
  (revoke_stats, [ `No_cap | `Denied ]) result
(** Recursively tear down the derivation subtree below [handle]
    (children first), plus [handle] itself when [self]. Requires
    [r_revoke]. [on_revoke] fires once per removed capability after it
    has left the tables, with its relative depth ([0] = the revoked root
    itself, [1] = direct children, …) so the embedder can distinguish
    the voluntary root from collateral teardown. *)

val revoke_dom : t -> dom:int -> on_revoke:(info -> depth:int -> unit) -> revoke_stats
(** Kernel-authority teardown of every capability [dom] owns (and, through
    the trees, everything derived from them) — protection-domain death. *)

(** {1 Introspection} *)

val find_obj : t -> obj:int -> info option
(** The capability currently registered for [obj], if any. Reliable only
    for object namespaces the embedder keeps unique per live capability
    (page identities, grant references); uncounted. *)

val count : t -> int
(** Live capabilities across all domains. *)
