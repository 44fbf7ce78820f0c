let body ~pool_pages () =
  let pool = Sysif.alloc_pages pool_pages in
  (* Real handles to the pool (E19): Alloc_pages minted a root cap per
     page; revoke_pool tears every delegated mapping down through them
     while the pager keeps its own pages. *)
  let pool_handles =
    List.init pool_pages (fun i ->
        Sysif.cap_lookup ~vpn:(pool.Sysif.base_vpn + i))
  in
  let next = ref 0 in
  let rec loop (incoming : Sysif.tid * Sysif.msg) =
    let faulter, m = incoming in
    let reply =
      if m.Sysif.label = Proto.pagefault && !next < pool_pages then begin
        let page = pool.Sysif.base_vpn + !next in
        incr next;
        Sysif.msg Proto.ok
          ~items:
            [ Sysif.Map { fpage = { base_vpn = page; pages = 1; writable = true }; grant = false } ]
      end
      else if m.Sysif.label = Proto.revoke_pool then begin
        let revoked =
          List.fold_left
            (fun acc h ->
              match h with
              | None -> acc
              | Some handle -> acc + Sysif.cap_revoke ~handle ~self:false)
            0 pool_handles
        in
        Sysif.msg Proto.ok ~items:[ Sysif.Words [| revoked |] ]
      end
      else Sysif.msg Proto.error
    in
    match Sysif.reply_wait faulter reply with
    | next_incoming -> loop next_incoming
    | exception Sysif.Ipc_error _ ->
        (* Faulter died while we were handling it; keep serving. *)
        loop (Sysif.recv Sysif.Any)
  in
  loop (Sysif.recv Sysif.Any)
