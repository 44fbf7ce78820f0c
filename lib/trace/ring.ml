type 'a t = {
  slots : (int64 * 'a) option array;
  mutable next : int;
  mutable appended : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity < 1";
  { slots = Array.make capacity None; next = 0; appended = 0 }

let record t ~time value =
  t.slots.(t.next) <- Some (time, value);
  t.next <- (t.next + 1) mod Array.length t.slots;
  t.appended <- t.appended + 1

let length t = min t.appended (Array.length t.slots)
let appended t = t.appended
let dropped t = max 0 (t.appended - Array.length t.slots)

let iter t ~f =
  let n = length t in
  let cap = Array.length t.slots in
  let start = if t.appended < cap then 0 else t.next in
  for i = 0 to n - 1 do
    match t.slots.((start + i) mod cap) with
    | Some (time, v) -> f time v
    | None -> ()
  done

let to_list t =
  let acc = ref [] in
  iter t ~f:(fun time v -> acc := (time, v) :: !acc);
  List.rev !acc

let find_last t ~f =
  let result = ref None in
  iter t ~f:(fun time v -> if f v then result := Some (time, v));
  !result

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.next <- 0;
  t.appended <- 0
