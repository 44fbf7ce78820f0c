type fault = Not_mapped | Write_to_readonly | Kernel_only | Stale_mapping

let check_pte pte ~write ~user =
  if Page_table.stale pte then Error Stale_mapping
  else if write && not pte.Page_table.writable then Error Write_to_readonly
  else if user && not pte.Page_table.user then Error Kernel_only
  else Ok pte

let translate (m : Machine.t) space ~vpn ~write ~user =
  let asid = Page_table.asid space in
  match Tlb.lookup m.tlb ~asid ~vpn with
  | Some pte -> begin
      match check_pte pte ~write ~user with
      | Ok _ as ok -> ok
      | Error _ as e ->
          (* A fault through a cached entry (e.g. stale after a page flip)
             must drop the entry, as a real shootdown would. *)
          Tlb.invalidate m.tlb ~asid ~vpn;
          e
    end
  | None -> begin
      Machine.burn m (Arch.walk_cost m.arch);
      match Page_table.lookup space ~vpn with
      | None -> Error Not_mapped
      | Some pte -> begin
          match check_pte pte ~write ~user with
          | Ok pte ->
              Tlb.insert m.tlb ~asid ~vpn pte;
              Ok pte
          | Error _ as e -> e
        end
    end

let touch_range m space ~start ~len ~write ~user =
  if len < 0 then invalid_arg "Mmu.touch_range: negative length";
  let first = Addr.vpn start in
  let last = if len = 0 then first else Addr.vpn (start + len - 1) in
  let rec loop vpn =
    if vpn > last then Ok (last - first + 1)
    else
      match translate m space ~vpn ~write ~user with
      | Ok _ -> loop (vpn + 1)
      | Error fault -> Error (vpn, fault)
  in
  loop first

let switch_space (m : Machine.t) space =
  Tlb.set_context m.tlb ~asid:(Page_table.asid space);
  Machine.burn m m.arch.Arch.addr_space_switch_cost
