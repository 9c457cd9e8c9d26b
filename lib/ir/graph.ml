(** Computation graphs.

    A graph is a DAG of operator nodes.  Each node has an ordered array of
    input node ids (the operand slots) and an inferred output shape.  The
    representation is persistent (balanced maps), so the optimizer can hold
    thousands of candidate graphs cheaply — mutations share structure.

    The operations mirror Table 1 of the paper: [pre]/[suc],
    [anc]/[des], [inps_of]/[outs_of] for node subsets, induced sub-graphs,
    topological orders, weak connectivity and convexity tests. *)

module Int_map = Util.Int_map
module Int_set = Util.Int_set

type node = {
  id : int;
  op : Op.kind;
  shape : Shape.t;
  label : string;  (** human-readable name, for debugging/printing *)
  inputs : int array;  (** operand slots, in order *)
  op_fp : int64;  (** [Op.fingerprint op], derived *)
  shape_hash : int64;  (** [Shape.hash shape], derived *)
}

type t = {
  nodes : node Int_map.t;
  succs : Int_set.t Int_map.t;  (** consumers of each node *)
  next_id : int;
}

let empty = { nodes = Int_map.empty; succs = Int_map.empty; next_id = 0 }

let n_nodes g = Int_map.cardinal g.nodes
let id_bound g = g.next_id
let mem g id = Int_map.mem id g.nodes

let node g id =
  match Int_map.find_opt id g.nodes with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Graph.node: unknown id %d" id)

let node_opt g id = Int_map.find_opt id g.nodes
let shape g id = (node g id).shape
let op g id = (node g id).op
let size_bytes g id = Shape.size_bytes (node g id).shape

let nodes g = Int_map.fold (fun _ n acc -> n :: acc) g.nodes [] |> List.rev
let node_ids g = Int_map.fold (fun id _ acc -> id :: acc) g.nodes [] |> List.rev
let fold f g acc = Int_map.fold (fun _ n acc -> f n acc) g.nodes acc
let iter f g = Int_map.iter (fun _ n -> f n) g.nodes

let succ_set g id =
  match Int_map.find_opt id g.succs with Some s -> s | None -> Int_set.empty

let suc g id = Int_set.elements (succ_set g id)

let pre g id =
  let n = node g id in
  match n.inputs with
  | [||] -> []
  | [| a |] -> [ a ]
  | [| a; b |] -> if a = b then [ a ] else if a < b then [ a; b ] else [ b; a ]
  | ins -> Array.to_list ins |> List.sort_uniq compare

let in_degree g id = Array.length (node g id).inputs
let out_degree g id = Int_set.cardinal (succ_set g id)

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

(* The only constructor of [node]: the derived hash fields are computed
   here, once, and every later copy ([{ n with inputs }]) keeps [op] and
   [shape] and therefore stays consistent. *)
let make_node id op shape label inputs =
  { id; op; shape; label; inputs; op_fp = Op.fingerprint op;
    shape_hash = Shape.hash shape }

let add_succ succs src dst =
  let s =
    match Int_map.find_opt src succs with
    | Some s -> s
    | None -> Int_set.empty
  in
  Int_map.add src (Int_set.add dst s) succs

let remove_succ succs src dst =
  match Int_map.find_opt src succs with
  | None -> succs
  | Some s ->
      let s = Int_set.remove dst s in
      if Int_set.is_empty s then Int_map.remove src succs
      else Int_map.add src s succs

(** [add_input g kind shape] adds a graph input (placeholder / weight /
    label) and returns the extended graph and the new node id. *)
let add_input ?(label = "") g kind shape =
  let id = g.next_id in
  let n = make_node id (Op.Input kind) shape label [||] in
  ({ g with nodes = Int_map.add id n g.nodes; next_id = id + 1 }, id)

(** [add g op inputs] adds an operator node; the output shape is inferred
    from the input shapes.  Raises [Invalid_argument] on malformed use. *)
let add ?(label = "") g op inputs =
  let ins = Array.of_list inputs in
  let describe () =
    if label = "" then Op.name op
    else Printf.sprintf "%s(%s)" (Op.name op) label
  in
  Array.iter
    (fun i ->
      if not (mem g i) then
        invalid_arg
          (Printf.sprintf "Graph.add: %s: unknown input id %d" (describe ()) i))
    ins;
  let in_shapes = Array.map (fun i -> (node g i).shape) ins in
  match Op.infer op in_shapes with
  | Error msg ->
      invalid_arg (Printf.sprintf "Graph.add: %s: %s" (describe ()) msg)
  | Ok shape ->
      let id = g.next_id in
      let n = make_node id op shape label ins in
      let succs = Array.fold_left (fun s src -> add_succ s src id) g.succs ins in
      ({ nodes = Int_map.add id n g.nodes; succs; next_id = id + 1 }, id)

(** Remove a node with no consumers. *)
let remove g id =
  let n = node g id in
  let consumers = succ_set g id in
  if not (Int_set.is_empty consumers) then
    invalid_arg
      (Printf.sprintf
         "Graph.remove: node %d:%s%s still has consumers [%s]" id
         (Op.name n.op)
         (if n.label = "" then "" else "(" ^ n.label ^ ")")
         (String.concat ","
            (List.map string_of_int (Int_set.elements consumers))));
  let succs = Array.fold_left (fun s src -> remove_succ s src id) g.succs n.inputs in
  { g with nodes = Int_map.remove id g.nodes; succs = Int_map.remove id succs }

(** [redirect g ~from_ ~to_] rewires every consumer of [from_] to consume
    [to_] instead.  Shapes must match. *)
let redirect g ~from_ ~to_ =
  if not (Shape.equal_dims (shape g from_) (shape g to_)) then
    invalid_arg "Graph.redirect: shape mismatch";
  let consumers = succ_set g from_ in
  Int_set.fold
    (fun c g ->
      let n = node g c in
      let inputs =
        Array.map (fun i -> if i = from_ then to_ else i) n.inputs
      in
      let nodes = Int_map.add c { n with inputs } g.nodes in
      let succs = remove_succ g.succs from_ c in
      let succs = add_succ succs to_ c in
      { g with nodes; succs })
    consumers g

(** Replace one operand slot of [node_id]: the occurrence(s) of [old_src]
    become [new_src]. *)
let replace_input g ~node_id ~old_src ~new_src =
  let n = node g node_id in
  if not (Array.exists (( = ) old_src) n.inputs) then
    invalid_arg "Graph.replace_input: not an input";
  let inputs =
    Array.map (fun i -> if i = old_src then new_src else i) n.inputs
  in
  let nodes = Int_map.add node_id { n with inputs } g.nodes in
  let succs = remove_succ g.succs old_src node_id in
  let succs = add_succ succs new_src node_id in
  { g with nodes; succs }

(** [prune_dead ~keep g] removes consumer-less operator nodes except graph
    inputs and the protected [keep] set (pass the intended graph outputs —
    losses, gradients — or they would be swept away). *)
let prune_dead ~keep g =
  let rec loop g =
    let dead =
      Int_map.fold
        (fun id n acc ->
          if
            Int_set.is_empty (succ_set g id)
            && (not (Op.is_input n.op))
            && not (Int_set.mem id keep)
          then id :: acc
          else acc)
        g.nodes []
    in
    match dead with
    | [] -> g
    | _ -> loop (List.fold_left (fun g id -> remove g id) g dead)
  in
  loop g

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

(** Graph inputs: nodes with no operands. *)
let inputs g =
  Int_map.fold
    (fun id n acc -> if Array.length n.inputs = 0 then id :: acc else acc)
    g.nodes []
  |> List.rev

(** Graph outputs: nodes with no consumers. *)
let outputs g =
  Int_map.fold
    (fun id _ acc -> if Int_set.is_empty (succ_set g id) then id :: acc else acc)
    g.nodes []
  |> List.rev

(* [start] plus everything reachable from it, where [step v f] applies
   [f] to the neighbours of [v] the walk may follow *)
let closure step (start : Int_set.t) =
  let visited = ref start and stack = ref (Int_set.elements start) in
  let visit u =
    if not (Int_set.mem u !visited) then begin
      visited := Int_set.add u !visited;
      stack := u :: !stack
    end
  in
  let rec go () =
    match !stack with
    | [] -> !visited
    | v :: rest ->
        stack := rest;
        step v visit;
        go ()
  in
  go ()

let iter_pre g v f = Array.iter f (node g v).inputs
let iter_suc g v f = Int_set.iter f (succ_set g v)

(* the neighbours of the members of [set] through [step] *)
let step_set step set =
  let acc = ref Int_set.empty in
  Int_set.iter (fun v -> step v (fun u -> acc := Int_set.add u !acc)) set;
  !acc

(** Strict ancestors of [id] (everything it transitively depends on). *)
let anc g id = closure (iter_pre g) (step_set (iter_pre g) (Int_set.singleton id))

(** Strict descendants of [id]. *)
let des g id = closure (iter_suc g) (succ_set g id)

(** Ancestors of a set (union of strict ancestors, minus the set). *)
let anc_of_set g set =
  Int_set.diff (closure (iter_pre g) (step_set (iter_pre g) set)) set

let des_of_set g set =
  Int_set.diff (closure (iter_suc g) (step_set (iter_suc g) set)) set

(** [G.inps(S)]: nodes outside [S] consumed by members of [S]. *)
let inps_of g set =
  Int_set.fold
    (fun v acc ->
      List.fold_left
        (fun acc p -> if Int_set.mem p set then acc else Int_set.add p acc)
        acc (pre g v))
    set Int_set.empty

(** [G.outs(S)]: members of [S] whose value is consumed outside [S] (or is a
    graph output). *)
let outs_of g set =
  Int_set.filter
    (fun v ->
      let succs = succ_set g v in
      Int_set.is_empty succs
      || Int_set.exists (fun s -> not (Int_set.mem s set)) succs)
    set

(** Weak connectivity of the sub-graph induced by [set]: a walk from one
    member reaches every member. *)
let is_weakly_connected g set =
  match Int_set.choose_opt set with
  | None -> true
  | Some seed ->
      let seen = Array.make g.next_id false and reached = ref 0 in
      let rec walk = function
        | [] -> !reached = Int_set.cardinal set
        | v :: rest ->
            let next = ref rest in
            let visit u =
              if Int_set.mem u set && not seen.(u) then begin
                seen.(u) <- true;
                incr reached;
                next := u :: !next
              end
            in
            iter_pre g v visit;
            iter_suc g v visit;
            walk !next
      in
      ignore (node g seed);
      seen.(seed) <- true;
      incr reached;
      walk [ seed ]

(** Convexity: no path from an output of [S] back into [S] through outside
    nodes ([G.inps(S) ∩ ⋃_{v∈outs(S)} des(v) = ∅]). *)
let is_convex g set =
  let inp = Array.make g.next_id false in
  Int_set.iter
    (fun v ->
      Array.iter
        (fun p -> if not (Int_set.mem p set) then inp.(p) <- true)
        (node g v).inputs)
    set;
  (* walk the descendants of outs(S), stopping at the first input of S *)
  let seen = Array.make g.next_id false in
  let push acc s =
    if seen.(s) then acc
    else begin
      seen.(s) <- true;
      s :: acc
    end
  in
  let rec walk = function
    | [] -> true
    | v :: rest ->
        (not inp.(v)) && walk (Int_set.fold (fun s acc -> push acc s) (succ_set g v) rest)
  in
  walk
    (Int_set.fold
       (fun o acc -> Int_set.fold (fun s acc -> push acc s) (succ_set g o) acc)
       (outs_of g set) [])

(** Weakly-connected components of the sub-graph induced by [set]:
    [labels.(v)] numbers the component of each member [v], in order of
    the components' smallest members; other slots hold -1. *)
let component_labels g set =
  let labels = Array.make g.next_id (-1) and count = ref 0 in
  Int_set.iter
    (fun v ->
      if v < 0 || v >= g.next_id then ignore (node g v);
      labels.(v) <- -2)
    set;
  let visit c stack u =
    if labels.(u) = -2 then begin
      labels.(u) <- c;
      stack := u :: !stack
    end
  in
  Int_set.iter
    (fun seed ->
      if labels.(seed) = -2 then begin
        let c = !count in
        incr count;
        let stack = ref [] in
        visit c stack seed;
        let rec go () =
          match !stack with
          | [] -> ()
          | v :: rest ->
              stack := rest;
              Array.iter (visit c stack) (node g v).inputs;
              Int_set.iter (visit c stack) (succ_set g v);
              go ()
        in
        go ()
      end)
    set;
  (labels, !count)

(** Weakly-connected components of the sub-graph induced by [set]. *)
let components_of g set =
  let labels, count = component_labels g set in
  let comps = Array.make count [] in
  Int_set.iter (fun v -> comps.(labels.(v)) <- v :: comps.(labels.(v))) set;
  Array.to_list (Array.map (fun l -> Int_set.of_list l) comps)

(* ------------------------------------------------------------------ *)
(* Topological order                                                  *)
(* ------------------------------------------------------------------ *)

(** Deterministic Kahn topological order (smallest ready id first).
    In-degrees live in an array indexed by node id and the ready set is
    a binary min-heap of ids, so the walk allocates only its result. *)
let topo_order g =
  (* distinct member operands: [s] is in [succ_set g v] exactly when [v]
     is one of its operands *)
  let indeg = Array.make g.next_id 0 in
  Int_map.iter
    (fun v consumers ->
      if mem g v then Int_set.iter (fun s -> indeg.(s) <- indeg.(s) + 1) consumers)
    g.succs;
  let heap = Array.make (max 1 (n_nodes g)) 0 and size = ref 0 in
  let push v =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) > v do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- v
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) and i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= !size then moving := false
      else
        let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else moving := false
    done;
    heap.(!i) <- last;
    top
  in
  iter (fun n -> if indeg.(n.id) = 0 then push n.id) g;
  let acc = ref [] and count = ref 0 in
  while !size > 0 do
    let v = pop () in
    acc := v :: !acc;
    incr count;
    Int_set.iter
      (fun s ->
        let d = indeg.(s) - 1 in
        indeg.(s) <- d;
        if d = 0 then push s)
      (succ_set g v)
  done;
  if !count <> n_nodes g then invalid_arg "Graph.topo_order: graph has a cycle";
  List.rev !acc

(** Check that [order] is a permutation of the node set respecting all data
    dependencies. *)
let is_valid_order g order =
  List.for_all (fun v -> mem g v) order
  &&
  let pos = Array.make g.next_id (-1) and distinct = ref 0 in
  List.iteri
    (fun i v ->
      if pos.(v) < 0 then incr distinct;
      pos.(v) <- i)
    order;
  !distinct = n_nodes g
  && List.for_all
       (fun v ->
         Array.for_all (fun p -> pos.(p) < pos.(v)) (node g v).inputs)
       order

(** DFS-based order that visits operands right before their first consumer;
    corresponds to the eager execution order of a define-by-run framework. *)
let program_order g = topo_order g

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let pp_node g ppf id =
  let n = node g id in
  Fmt.pf ppf "%d:%s%s %a <- [%a]" n.id (Op.name n.op)
    (if n.label = "" then "" else "(" ^ n.label ^ ")")
    Shape.pp n.shape
    Fmt.(array ~sep:(any ",") int)
    n.inputs

let pp ppf g =
  List.iter (fun id -> Fmt.pf ppf "%a@." (pp_node g) id) (topo_order g)

let to_string g = Fmt.str "%a" pp g

(** Total bytes of all weight tensors (always-resident memory). *)
let weight_bytes g =
  fold
    (fun n acc -> if Op.is_weight n.op then acc + Shape.size_bytes n.shape else acc)
    g 0
