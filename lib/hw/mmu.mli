(** Memory-management unit: TLB-filtered translation with cost charging.

    The one place where page-table walks are priced. Kernels translate
    through here so that TLB hits are free, misses cost a full walk
    ([pt_levels · tlb_refill_cost]), and permission violations surface as
    faults for the pager / exception-virtualisation paths. *)

type fault =
  | Not_mapped  (** No translation for the page. *)
  | Write_to_readonly
  | Kernel_only  (** User access to a supervisor mapping. *)
  | Stale_mapping
      (** The mapped frame was transferred (page-flipped) away after
          mapping; touching it is a protection violation. *)

val translate :
  Machine.t ->
  Page_table.t ->
  vpn:int ->
  write:bool ->
  user:bool ->
  (Page_table.pte, fault) result
(** Translate an access to [vpn] in the given address space. Charges walk
    cycles on a TLB miss and fills the TLB on success; charges nothing on
    a hit. Fault detection also invalidates any stale TLB entry. *)

val touch_range :
  Machine.t ->
  Page_table.t ->
  start:int ->
  len:int ->
  write:bool ->
  user:bool ->
  (int, int * fault) result
(** Translate every page of the byte range [\[start, start+len)]. Returns
    [Ok pages] or [Error (vpn, fault)] for the first faulting page. *)

val switch_space : Machine.t -> Page_table.t -> unit
(** Make the given address space current: TLB context switch (full flush
    on untagged TLBs) plus the profile's address-space-switch cycles. *)
