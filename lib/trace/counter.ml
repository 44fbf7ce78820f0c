(* Interned counters (E21): a name is resolved once to a dense integer
   id, and the hot path bumps a flat [int array] cell — no string
   hashing, no [option] allocation, nothing on the minor heap. The
   string API survives as a compatibility shim that interns on first
   use, so cold paths (faults, revocation, toolstack) can stay
   readable. *)

type set = {
  index : (string, int) Hashtbl.t;  (* name -> id *)
  mutable names : string array;  (* id -> name *)
  mutable values : int array;  (* id -> value *)
  mutable n : int;  (* ids in use *)
}

let create_set () =
  {
    index = Hashtbl.create 64;
    names = Array.make 64 "";
    values = Array.make 64 0;
    n = 0;
  }

let grow set =
  let cap = Array.length set.values in
  let names = Array.make (2 * cap) "" in
  let values = Array.make (2 * cap) 0 in
  Array.blit set.names 0 names 0 set.n;
  Array.blit set.values 0 values 0 set.n;
  set.names <- names;
  set.values <- values

let id set name =
  (* [Hashtbl.find] + [Not_found] (a constant constructor) rather than
     [find_opt]: the hit path allocates nothing, so even un-interned
     string call sites stay off the minor heap. *)
  match Hashtbl.find set.index name with
  | i -> i
  | exception Not_found ->
      let i = set.n in
      if i = Array.length set.values then grow set;
      set.names.(i) <- name;
      set.values.(i) <- 0;
      set.n <- i + 1;
      Hashtbl.add set.index name i;
      i

let incr_id set i = set.values.(i) <- set.values.(i) + 1

let add_id set i amount =
  if amount < 0 then invalid_arg "Counter.add: negative amount";
  set.values.(i) <- set.values.(i) + amount

let get_id set i = set.values.(i)
let name set i = set.names.(i)
let incr set name = incr_id set (id set name)
let add set name amount = add_id set (id set name) amount

let get set name =
  match Hashtbl.find set.index name with
  | i -> set.values.(i)
  | exception Not_found -> 0

let reset set = Array.fill set.values 0 set.n 0

let to_list set =
  let acc = ref [] in
  for i = set.n - 1 downto 0 do
    if set.values.(i) <> 0 then acc := (set.names.(i), set.values.(i)) :: !acc
  done;
  (* Names are unique, so sorting the pairs sorts by name — dumps stay
     stable whatever order the names were interned in. *)
  List.sort compare !acc

let fold set ~init ~f =
  List.fold_left (fun acc (name, v) -> f acc name v) init (to_list set)

let matching set ~prefix =
  let starts_with s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  List.filter (fun (name, _) -> starts_with name) (to_list set)

let sum_matching set ~prefix =
  List.fold_left (fun acc (_, v) -> acc + v) 0 (matching set ~prefix)
