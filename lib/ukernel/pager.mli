(** User-level pager server.

    Runs as an ordinary thread: it pre-allocates a pool of pages from the
    kernel allocator and answers kernel-synthesised page-fault IPC with
    map items, exactly the external-pager structure §3.1 compares with
    Parallax. Kill this thread (experiment E6) and its clients' next page
    fault fails — and nothing else in the system does. *)

val body : pool_pages:int -> unit -> unit
(** Server loop. Spawn with {!Kernel.spawn} and pass the resulting tid as
    the [pager] of client threads. When the pool is exhausted the pager
    replies without a map item and the client's access fails with
    [Page_fault_unhandled]. *)
