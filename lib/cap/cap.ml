module Counter = Vmk_trace.Counter

(* --- rights --- *)

type rights = int

let r_read = 1
let r_write = 2
let r_map = 4
let r_derive = 8
let r_revoke = 16
let r_full = r_read lor r_write lor r_map lor r_derive lor r_revoke
let has mask need = mask land need = need

(* --- tables --- *)

type handle = int

type info = { i_dom : int; i_handle : handle; i_obj : int; i_rights : rights }

type node = {
  n_dom : int;
  n_handle : handle;
  n_obj : int;
  n_rights : rights;
  mutable n_parent : node option;
  mutable n_children : node list;  (** Newest first; order is part of replay. *)
}

type t = {
  tables : (int, (handle, node) Hashtbl.t) Hashtbl.t;
  by_obj : (int, node) Hashtbl.t;
      (** Object -> live capability; meaningful only for namespaces the
          embedder keeps unique (page identities, grant refs). *)
  counters : Counter.set;
  burn : int -> unit;
  mutable next_handle : handle;
}

(* Cycles charged through [burn] per handle lookup, per created handle
   and per capability torn down. *)
let lookup_cost = 40
let derive_cost = 90
let revoke_step_cost = 120

let create ~counters ?(burn = fun _ -> ()) () =
  {
    tables = Hashtbl.create 16;
    by_obj = Hashtbl.create 64;
    counters;
    burn;
    next_handle = 1;
  }

let table_for t dom =
  match Hashtbl.find_opt t.tables dom with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.add t.tables dom tbl;
      tbl

let info_of n =
  { i_dom = n.n_dom; i_handle = n.n_handle; i_obj = n.n_obj; i_rights = n.n_rights }

let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- t.next_handle + 1;
  h

let register t node =
  Hashtbl.replace (table_for t node.n_dom) node.n_handle node;
  Hashtbl.replace t.by_obj node.n_obj node

let unregister t node =
  (match Hashtbl.find_opt t.tables node.n_dom with
  | Some tbl -> Hashtbl.remove tbl node.n_handle
  | None -> ());
  (* Only drop the object index if it still points at this node; a user
     object namespace may have been shadowed by a later mint. *)
  match Hashtbl.find_opt t.by_obj node.n_obj with
  | Some n when n == node -> Hashtbl.remove t.by_obj node.n_obj
  | Some _ | None -> ()

let find_node t ~dom ~handle =
  Option.bind (Hashtbl.find_opt t.tables dom) (fun tbl ->
      Hashtbl.find_opt tbl handle)

(* --- operations --- *)

let mint t ~dom ~obj ~rights =
  t.burn derive_cost;
  Counter.incr t.counters "cap.minted";
  let node =
    {
      n_dom = dom;
      n_handle = fresh_handle t;
      n_obj = obj;
      n_rights = rights land r_full;
      n_parent = None;
      n_children = [];
    }
  in
  register t node;
  node.n_handle

let lookup t ~dom ~handle =
  t.burn lookup_cost;
  Counter.incr t.counters "cap.lookups";
  Option.map info_of (find_node t ~dom ~handle)

let check t ~dom ~handle ~need =
  t.burn lookup_cost;
  Counter.incr t.counters "cap.lookups";
  match find_node t ~dom ~handle with
  | Some node when has node.n_rights need -> true
  | Some _ | None ->
      Counter.incr t.counters "cap.denied";
      false

let derive t ~dom ~handle ~to_dom ~obj ~rights =
  t.burn lookup_cost;
  Counter.incr t.counters "cap.lookups";
  match find_node t ~dom ~handle with
  | None ->
      Counter.incr t.counters "cap.denied";
      Error `No_cap
  | Some parent ->
      if not (has parent.n_rights r_derive) then begin
        Counter.incr t.counters "cap.denied";
        Error `Denied
      end
      else begin
        t.burn derive_cost;
        Counter.incr t.counters "cap.derived";
        let node =
          {
            n_dom = to_dom;
            n_handle = fresh_handle t;
            n_obj = obj;
            (* Monotonicity: a child never gains a right its parent lacks. *)
            n_rights = rights land parent.n_rights;
            n_parent = Some parent;
            n_children = [];
          }
        in
        parent.n_children <- node :: parent.n_children;
        register t node;
        Ok node.n_handle
      end

let grant t ~dom ~handle ~to_dom ~obj =
  t.burn lookup_cost;
  Counter.incr t.counters "cap.lookups";
  match find_node t ~dom ~handle with
  | None ->
      Counter.incr t.counters "cap.denied";
      Error `No_cap
  | Some src ->
      t.burn derive_cost;
      Counter.incr t.counters "cap.granted";
      let node =
        {
          n_dom = to_dom;
          n_handle = fresh_handle t;
          n_obj = obj;
          n_rights = src.n_rights;
          n_parent = src.n_parent;
          n_children = src.n_children;
        }
      in
      (* The destination takes the source's place in the derivation tree. *)
      (match src.n_parent with
      | Some p ->
          p.n_children <-
            node :: List.filter (fun c -> c != src) p.n_children
      | None -> ());
      List.iter (fun c -> c.n_parent <- Some node) src.n_children;
      src.n_children <- [];
      unregister t src;
      register t node;
      Ok node.n_handle

(* --- revocation --- *)

type revoke_stats = { r_removed : int; r_max_depth : int }

let depth_bucket d =
  if d <= 1 then "cap.revoke_depth.le_1"
  else if d <= 2 then "cap.revoke_depth.le_2"
  else if d <= 4 then "cap.revoke_depth.le_4"
  else if d <= 8 then "cap.revoke_depth.le_8"
  else "cap.revoke_depth.gt_8"

let detach_from_parent node =
  match node.n_parent with
  | None -> ()
  | Some p ->
      p.n_children <- List.filter (fun c -> c != node) p.n_children;
      node.n_parent <- None

let rec teardown t ~on_revoke ~removed ~maxd node ~depth =
  (* Children first: when the hook fires for a capability, everything
     derived from it is already gone. *)
  List.iter
    (fun c -> teardown t ~on_revoke ~removed ~maxd c ~depth:(depth + 1))
    node.n_children;
  node.n_children <- [];
  unregister t node;
  t.burn revoke_step_cost;
  Counter.incr t.counters "cap.revoked";
  incr removed;
  if depth > !maxd then maxd := depth;
  on_revoke (info_of node) ~depth

let finish_revoke t ~removed ~maxd =
  Counter.incr t.counters "cap.revoke_calls";
  Counter.incr t.counters (depth_bucket !maxd);
  { r_removed = !removed; r_max_depth = !maxd }

let revoke t ~dom ~handle ~self ~on_revoke =
  t.burn lookup_cost;
  Counter.incr t.counters "cap.lookups";
  match find_node t ~dom ~handle with
  | None ->
      Counter.incr t.counters "cap.denied";
      Error `No_cap
  | Some node ->
      if not (has node.n_rights r_revoke) then begin
        Counter.incr t.counters "cap.denied";
        Error `Denied
      end
      else begin
        let removed = ref 0 and maxd = ref 0 in
        if self then begin
          detach_from_parent node;
          teardown t ~on_revoke ~removed ~maxd node ~depth:0
        end
        else begin
          List.iter
            (fun c -> teardown t ~on_revoke ~removed ~maxd c ~depth:1)
            node.n_children;
          node.n_children <- []
        end;
        Ok (finish_revoke t ~removed ~maxd)
      end

let revoke_dom t ~dom ~on_revoke =
  match Hashtbl.find_opt t.tables dom with
  | None -> { r_removed = 0; r_max_depth = 0 }
  | Some tbl ->
      let removed = ref 0 and maxd = ref 0 in
      let victims =
        List.sort compare (Hashtbl.fold (fun h _ acc -> h :: acc) tbl [])
      in
      List.iter
        (fun h ->
          (* An earlier teardown may already have consumed this handle
             (a cap derived from another cap of the same domain). *)
          match Hashtbl.find_opt tbl h with
          | None -> ()
          | Some node ->
              detach_from_parent node;
              teardown t ~on_revoke ~removed ~maxd node ~depth:0)
        victims;
      if !removed > 0 then ignore (finish_revoke t ~removed ~maxd);
      { r_removed = !removed; r_max_depth = !maxd }

(* --- introspection --- *)

let find_obj t ~obj = Option.map info_of (Hashtbl.find_opt t.by_obj obj)

let count t =
  Hashtbl.fold (fun _ tbl acc -> acc + Hashtbl.length tbl) t.tables 0
