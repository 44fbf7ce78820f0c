type kind = Ram | Device_buffer | Page_table_frame

type frame = {
  index : int;
  mutable owner : string;
  mutable kind : kind;
  mutable tag : int;
  mutable generation : int;
  mutable allocated : bool;
}

type t = { frames : frame array; mutable free : int list }

exception Out_of_frames

let create ~frames =
  if frames < 1 then invalid_arg "Frame.create: need at least one frame";
  let table =
    Array.init frames (fun index ->
        {
          index;
          owner = "";
          kind = Ram;
          tag = 0;
          generation = 0;
          allocated = false;
        })
  in
  { frames = table; free = List.init frames (fun i -> i) }

let free_count t = List.length t.free

let alloc t ~owner ?(kind = Ram) () =
  match t.free with
  | [] -> raise Out_of_frames
  | index :: rest ->
      t.free <- rest;
      let f = t.frames.(index) in
      f.owner <- owner;
      f.kind <- kind;
      f.tag <- 0;
      f.allocated <- true;
      f

let alloc_many t ~owner n = List.init n (fun _ -> alloc t ~owner ())

let release t f =
  if not f.allocated then invalid_arg "Frame.release: frame already free";
  f.allocated <- false;
  f.owner <- "";
  f.tag <- 0;
  f.kind <- Ram;
  t.free <- f.index :: t.free

let transfer _t f ~to_ =
  if not f.allocated then invalid_arg "Frame.transfer: frame is free";
  f.owner <- to_;
  f.generation <- f.generation + 1

let set_tag f tag = f.tag <- tag

let owned_by t owner =
  Array.to_list t.frames
  |> List.filter (fun f -> f.allocated && f.owner = owner)

let count_owned_by t owner = List.length (owned_by t owner)

let reclaim_owner t owner =
  let victims = owned_by t owner in
  List.iter (release t) victims;
  List.length victims
