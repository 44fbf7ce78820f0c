module Sys_g = Vmk_guest.Sys

type stats = {
  mutable completed : int;
  mutable errors : int;
  mutable bytes : int;
}

let stats () = { completed = 0; errors = 0; bytes = 0 }
let default = stats

let attempt st f =
  match f () with
  | bytes ->
      st.completed <- st.completed + 1;
      st.bytes <- st.bytes + bytes;
      true
  | exception Sys_g.Sys_error _ ->
      st.errors <- st.errors + 1;
      false

let null_syscalls ?stats ~iterations () () =
  let st = match stats with Some s -> s | None -> default () in
  for _ = 1 to iterations do
    ignore
      (attempt st (fun () ->
           ignore (Sys_g.getpid ());
           Sys_g.burn 50;
           0))
  done

let compute ?stats ~iterations ~work () () =
  let st = match stats with Some s -> s | None -> default () in
  for _ = 1 to iterations do
    ignore
      (attempt st (fun () ->
           Sys_g.burn work;
           0))
  done

let net_rx_stream ?stats ~packets () () =
  let st = match stats with Some s -> s | None -> default () in
  let rec loop remaining =
    if remaining > 0 then
      if
        attempt st (fun () ->
            let len, _tag = Sys_g.net_recv () in
            len)
      then loop (remaining - 1)
  in
  loop packets

(* The E15 overload probe: receive until [packets] have arrived or the
   stack errors out (timeout after the traffic ends), recording each
   packet's (tag, virtual arrival time) so the experiment can compute
   per-packet latency against the injection times. [work] models a slow
   consumer (E17's fair-share and ECN receivers). *)
let net_rx_probe ?(work = 0) ~now ~record ~packets () () =
  let st = default () in
  let rec loop remaining =
    if remaining > 0 then
      if
        attempt st (fun () ->
            let len, tag = Sys_g.net_recv () in
            record ~tag ~at:(now ());
            if work > 0 then Sys_g.burn work;
            len)
      then loop (remaining - 1)
  in
  loop packets

(* The paced vnet sender (E17-E19). A failed send is counted and
   skipped, not retried; exiting with transmits still queued would
   strand them, so the stream drains before it returns. *)
let net_tx_stream ?stats ~settle ~pace ~src ~dst ~packets ~len () () =
  let st = match stats with Some s -> s | None -> default () in
  if settle > 0 then Sys_g.burn settle;
  for seq = 0 to packets - 1 do
    ignore
      (attempt st (fun () ->
           Sys_g.net_send ~len ~tag:(Sys_g.vnet_tag ~src ~dst ~seq);
           len));
    if pace > 0 then Sys_g.burn pace
  done;
  try Sys_g.net_drain () with Sys_g.Sys_error _ -> ()

let blk_mix ?stats ?(base = 0) ~ops ~span ~seed () () =
  let st = match stats with Some s -> s | None -> default () in
  let written = Hashtbl.create 64 in
  let state = ref (seed land 0x3fffffff) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let rec loop i =
    if i < ops then begin
      let sector = base + (next () mod span) in
      let ok =
        if i land 1 = 0 then begin
          let tag = 1 + next () in
          if
            attempt st (fun () ->
                Sys_g.blk_write ~sector ~len:Sys_g.block_size ~tag;
                Sys_g.block_size)
          then begin
            Hashtbl.replace written sector tag;
            true
          end
          else false
        end
        else
          attempt st (fun () ->
              let tag = Sys_g.blk_read ~sector ~len:Sys_g.block_size in
              let expected =
                match Hashtbl.find_opt written sector with
                | Some t -> t
                | None -> 0
              in
              if tag <> expected then raise (Sys_g.Sys_error "data corruption");
              Sys_g.block_size)
      in
      if ok then loop (i + 1)
    end
  in
  loop 0

(* The E13 recovery probe: paced write/read-verify pairs that KEEP GOING
   through failures, logging (virtual time, success) per pair so the
   experiment can locate the outage window and the first post-fault
   success. *)
let blk_retry_stream ?stats ~now ~log ~ops ~span ~seed ~pace () () =
  let st = match stats with Some s -> s | None -> default () in
  let state = ref (seed land 0x3fffffff) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  for i = 0 to ops - 1 do
    let sector = next () mod span in
    let tag = 1 + next () in
    let ok =
      attempt st (fun () ->
          Sys_g.blk_write ~sector ~len:Sys_g.block_size ~tag;
          let got = Sys_g.blk_read ~sector ~len:Sys_g.block_size in
          if got <> tag then raise (Sys_g.Sys_error "data corruption");
          2 * Sys_g.block_size)
    in
    log (now (), ok);
    if pace > 0 && i < ops - 1 then Sys_g.burn pace
  done

let fs_churn ?stats ~files ~blocks_per_file () () =
  let st = match stats with Some s -> s | None -> default () in
  let live = ref true in
  for f = 0 to files - 1 do
    if !live then begin
      match Sys_g.fs_create (Printf.sprintf "file%d" f) with
      | fd ->
          for b = 0 to blocks_per_file - 1 do
            if !live then begin
              let tag = (f * 1000) + b + 1 in
              if
                attempt st (fun () ->
                    Sys_g.fs_append ~fd ~tag;
                    Sys_g.block_size)
              then begin
                if
                  not
                    (attempt st (fun () ->
                         let got = Sys_g.fs_read ~fd ~index:b in
                         if got <> tag then
                           raise (Sys_g.Sys_error "fs corruption");
                         Sys_g.block_size))
                then live := false
              end
              else live := false
            end
          done
      | exception Sys_g.Sys_error _ ->
          st.errors <- st.errors + 1;
          live := false
    end
  done

let mixed ?stats ~rounds ?(syscalls_per_round = 10) ?(work_per_round = 2000)
    ?(net_every = 2) ?(packet_len = 512) ?(blk_every = 5) () () =
  let st = match stats with Some s -> s | None -> default () in
  let live = ref true in
  for round = 1 to rounds do
    if !live then begin
      for _ = 1 to syscalls_per_round do
        ignore
          (attempt st (fun () ->
               ignore (Sys_g.getpid ());
               0))
      done;
      Sys_g.burn work_per_round;
      if net_every > 0 && round mod net_every = 0 then
        ignore
          (attempt st (fun () ->
               Sys_g.net_send ~len:packet_len ~tag:(700_000 + round);
               packet_len));
      if blk_every > 0 && round mod blk_every = 0 then begin
        let sector = round mod 128 in
        if
          attempt st (fun () ->
              Sys_g.blk_write ~sector ~len:Sys_g.block_size ~tag:round;
              Sys_g.block_size)
        then
          ignore
            (attempt st (fun () ->
                 let tag = Sys_g.blk_read ~sector ~len:Sys_g.block_size in
                 if tag <> round then raise (Sys_g.Sys_error "data corruption");
                 Sys_g.block_size))
        else live := false
      end
    end
  done
