(* In-memory span recorder for the traced run.

   A span is a named interval around one call the benchmark makes into a
   simulator layer; the layer is the name's prefix up to the first dot
   ("core.build" belongs to [core]). Spans nest through [parent] and
   carry the id of the op they belong to (-1 when none). Nothing is
   written until the run ends: the arrays grow in place, and a disabled
   recorder ([off]) makes [enter]/[leave] a single branch with no
   allocation, so the untraced run pays nothing for the call sites. *)

type t = {
  on : bool;
  mutable names : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable len : int;
  mutable current : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let make on =
  let n = if on then 1024 else 0 in
  {
    on;
    names = Array.make n "";
    start = Array.make n 0;
    stop = Array.make n 0;
    parent = Array.make n 0;
    op = Array.make n 0;
    len = 0;
    current = -1;
  }

let create () = make true
let off = make false

let grow t =
  let n = 2 * Array.length t.start in
  let ext a fill =
    let a' = Array.make n fill in
    Array.blit a 0 a' 0 t.len;
    a'
  in
  t.names <- ext t.names "";
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0;
  t.parent <- ext t.parent 0;
  t.op <- ext t.op 0

let enter ?(op = -1) t name =
  if not t.on then -1
  else begin
    if t.len = Array.length t.start then grow t;
    let i = t.len in
    t.names.(i) <- name;
    t.parent.(i) <- t.current;
    t.op.(i) <- op;
    t.len <- i + 1;
    t.current <- i;
    t.start.(i) <- now_ns ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.stop.(i) <- now_ns ();
    t.current <- t.parent.(i)
  end

let duration t i = t.stop.(i) - t.start.(i)

let layer name =
  match String.index_opt name '.' with
  | Some k -> String.sub name 0 k
  | None -> name

(* Durations (ns) of every span with exactly this name. *)
let durations t name =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if String.equal t.names.(i) name then acc := duration t i :: !acc
  done;
  Array.of_list !acc

(* Self time of a span is its duration minus what its children cover;
   summed per layer, in first-seen order. *)
let self_by_layer t =
  let child = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + duration t i
  done;
  let rows = ref [] in
  for i = 0 to t.len - 1 do
    let l = layer t.names.(i) in
    let self = duration t i - child.(i) in
    match List.assoc_opt l !rows with
    | Some (n, s) -> rows := (l, (n + 1, s + self)) :: List.remove_assoc l !rows
    | None -> rows := (l, (1, self)) :: !rows
  done;
  List.rev_map (fun (l, (n, s)) -> (l, n, s)) !rows
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

(* Spans written per recorder, so a long traced run stays loadable. *)
let written_max = 100_000

(* Chrome trace-event JSON ("X" complete events, microseconds), one
   thread row per recorder. Load it in chrome://tracing or Perfetto. *)
let write_chrome path recorders =
  let oc = open_out path in
  let t0 =
    List.fold_left
      (fun m (_, t) -> if t.len > 0 then min m t.start.(0) else m)
      max_int recorders
  in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  List.iteri
    (fun tid (label, t) ->
      let sep () = if !first then first := false else output_string oc ",\n" in
      sep ();
      Printf.fprintf oc
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
        tid label;
      for i = 0 to min t.len written_max - 1 do
        sep ();
        Printf.fprintf oc
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
          t.names.(i) (layer t.names.(i)) tid
          (float_of_int (t.start.(i) - t0) /. 1e3)
          (float_of_int (duration t i) /. 1e3)
          i t.parent.(i) t.op.(i)
      done)
    recorders;
  output_string oc "\n]}\n";
  close_out oc
