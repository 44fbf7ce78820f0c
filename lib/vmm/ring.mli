(** Split-driver shared ring.

    The frontend/backend communication structure of the Xen I/O model: a
    bounded request ring and a bounded response ring living in a shared
    page. Ring slots carry OCaml values; the CPU cost of ring accesses is
    charged by the callers (they burn guest/Dom0 cycles per operation), so
    this module is pure bookkeeping. Notification is out of band via event
    channels. *)

type ('req, 'resp) t

val create : capacity:int -> unit -> ('req, 'resp) t
(** @raise Invalid_argument if [capacity < 1]. *)


val on_request_drop : ('req, 'resp) t -> (unit -> unit) -> unit
(** Hook for rejected {e request} pushes only. A refused request is
    producer back-pressure — the frontend holds the payload and
    typically retries under backoff — so backends count it under
    [overload.ring_reject.*], not [overload.drop] (the E17 bugfix: the
    old shared hook multi-counted every retried tx attempt as a
    machine-wide drop). *)

val on_response_drop : ('req, 'resp) t -> (unit -> unit) -> unit
(** Hook for rejected {e response} pushes only — payload the backend
    accepted and then could not deliver, i.e. a real drop. *)

val push_request : ('req, 'resp) t -> 'req -> bool
(** Enqueue a request; [false] when the ring is full (frontend must back
    off — full rings are where Dom0 saturation shows up in E3). *)

val pop_request : ('req, 'resp) t -> 'req option
val push_response : ('req, 'resp) t -> 'resp -> bool
val pop_response : ('req, 'resp) t -> 'resp option

val response_space : ('req, 'resp) t -> int
(** Free response slots — backends check this {e before} doing
    irreversible work (grant exchange) so a full response ring is an
    explicit cheap drop, not a leaked frame. *)

val request_dropped_total : ('req, 'resp) t -> int
(** Request pushes rejected because the ring was full. *)

val response_dropped_total : ('req, 'resp) t -> int

val dropped_total : ('req, 'resp) t -> int
(** Pushes rejected because a ring was full (both directions). *)
