(** A streaming quantile sketch: fixed memory, online, built for the
    million-sample runs of E22 where O(n) sample buffers are off-limits. *)

module Sketch : sig
  (** Log-linear bucket sketch over non-negative integer samples with
      bounded relative error [2^-7] and {e exact} mergeability:
      merging per-shard sketches is elementwise bucket addition, so the
      merged sketch is bit-identical to a single sketch fed the
      concatenated stream in any order. *)

  type t

  val create : unit -> t
  (** An empty sketch with 7 subbucket mantissa bits: quantile estimates
      are within relative error [2^-7]. Values below [2^7] are stored
      exactly. *)

  val add : t -> int -> unit
  (** O(1), allocation-free. Raises [Invalid_argument] on negatives. *)

  val count : t -> int
  val min_value : t -> int
  val max_value : t -> int

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0,1]: nearest-rank estimate, clamped to
      the exact observed [min,max] (so constant streams are exact).
      Returns [0.0] on an empty sketch. *)

  val merge_into : into:t -> t -> unit
  (** Elementwise bucket addition. *)

  val fingerprint : t -> int
  (** Deterministic digest of the full bucket state, for bit-for-bit
      replay checks. *)
end
