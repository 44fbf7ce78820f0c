type selector = Cs | Ss | Ds | Es | Fs | Gs
type descriptor = { base : int; limit : int }

type t = {
  mutable cs : descriptor;
  mutable ss : descriptor;
  mutable ds : descriptor;
  mutable es : descriptor;
  mutable fs : descriptor;
  mutable gs : descriptor;
  mutable reloads : int;
}

let create ~user_limit =
  let flat = { base = 0; limit = user_limit } in
  { cs = flat; ss = flat; ds = flat; es = flat; fs = flat; gs = flat; reloads = 0 }

let load t sel d =
  t.reloads <- t.reloads + 1;
  match sel with
  | Cs -> t.cs <- d
  | Ss -> t.ss <- d
  | Ds -> t.ds <- d
  | Es -> t.es <- d
  | Fs -> t.fs <- d
  | Gs -> t.gs <- d

let get t = function
  | Cs -> t.cs
  | Ss -> t.ss
  | Ds -> t.ds
  | Es -> t.es
  | Fs -> t.fs
  | Gs -> t.gs

let reload_count t = t.reloads

let descriptor_excludes d range =
  not (Addr.ranges_overlap (Addr.range ~start:d.base ~len:d.limit) range)

let live_segments_exclude t range =
  List.for_all
    (fun sel -> descriptor_excludes (get t sel) range)
    [ Ds; Es; Fs; Gs ]
