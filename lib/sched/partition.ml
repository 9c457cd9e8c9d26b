(** Narrow-waist analysis and graph partitioning (§6.1 of the paper).

    The narrow-waist value of a node [v] in graph [G] is
    [nw(v) = |V(G)| - |anc(v)| - |des(v)| - 1] — the number of nodes
    independent of [v].  A node with [nw(v) = 0] splits the scheduling
    problem into two independent halves; the paper's [GraphPartition] cuts
    each weakly-connected component at nodes with [nw(v) <= 1]. *)

open Magis_ir
module Int_set = Util.Int_set

(** Is the output of [v] pinned (never freed): weights stay resident,
    graph outputs live to the end.  Pinned tensors cross every schedule
    boundary, so they are ignored when looking for cut points. *)
let pinned (g : Graph.t) (v : int) =
  let n = Graph.node g v in
  Op.is_weight n.op
  || (Int_set.is_empty (Graph.succ_set g v) && not (Op.is_input n.op))

(* set bits of a bitset word (any sign: each step clears the lowest) *)
let popcount x =
  let rec go x c = if x = 0 then c else go (x land (x - 1)) (c + 1) in
  go x 0

(** Narrow-waist value of every node, indexed by node id:
    [(nw_table g).(v) = |V| - |anc(v)| - |des(v)| - 1] for each node [v]
    of [g] (slots of absent ids hold 0).  One pass in topological order
    builds every node's ancestor set as a bitset over topological
    positions (the union of its operands' sets and the operands
    themselves); a reverse pass does the same for descendants, reusing
    the buffer. *)
let nw_table (g : Graph.t) : int array =
  let order = Array.of_list (Graph.topo_order g) in
  let n = Array.length order in
  let pos = Array.make (Graph.id_bound g) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let bits = Sys.int_size in
  let words = (n + bits - 1) / bits in
  let rows = Array.make (n * words) 0 in
  let add_row i j =
    let ri = i * words and rj = j * words in
    for w = 0 to words - 1 do
      rows.(ri + w) <- rows.(ri + w) lor rows.(rj + w)
    done;
    rows.(ri + (j / bits)) <- rows.(ri + (j / bits)) lor (1 lsl (j mod bits))
  in
  let count i =
    let c = ref 0 in
    for w = i * words to ((i + 1) * words) - 1 do
      c := !c + popcount rows.(w)
    done;
    !c
  in
  let table = Array.make (Graph.id_bound g) 0 in
  for i = 0 to n - 1 do
    Array.iter (fun p -> add_row i pos.(p)) (Graph.node g order.(i)).inputs;
    table.(order.(i)) <- n - count i - 1
  done;
  Array.fill rows 0 (Array.length rows) 0;
  for i = n - 1 downto 0 do
    Int_set.iter (fun s -> add_row i pos.(s)) (Graph.succ_set g order.(i));
    table.(order.(i)) <- table.(order.(i)) - count i
  done;
  table

(** Partition the sub-graph induced by [members] into blocks that can be
    scheduled independently and concatenated.  A cut is taken after
    position [i] of a component's topological order when the dependence
    frontier narrows to (at most) the node just executed — the linear-time
    equivalent of cutting at narrow-waist nodes with [nw <= 1]: any
    schedule must pass through such a point, so the blocks on either side
    can be ordered independently.  Blocks are returned in a
    dependency-compatible order.

    [max_crossing] (default 1) is the number of live tensors a cut is
    allowed to carry; larger values sequentialize more aggressively (used
    by the POFO baseline's chainification). *)
let partition ?(max_crossing = 1) (g : Graph.t) (members : Int_set.t) :
    Int_set.t list =
  let bound = Graph.id_bound g in
  let comp, n_comps = Graph.component_labels g members in
  (* each component's members in topological order *)
  let topo = Graph.topo_order g in
  let topo_pos = Array.make bound 0 in
  let by_comp = Array.make n_comps [] in
  List.iteri
    (fun i v ->
      topo_pos.(v) <- i;
      if comp.(v) >= 0 then by_comp.(comp.(v)) <- v :: by_comp.(comp.(v)))
    topo;
  (* position of a member within its component's order, -1 elsewhere: a
     member's in-member consumers always lie in its own component *)
  let pos_in = Array.make bound (-1) in
  (* blocks come back sorted, so components may go in any order *)
  let blocks =
    List.concat_map
      (fun rev_ordered ->
        let ordered = Array.of_list (List.rev rev_ordered) in
        let n = Array.length ordered in
        Array.iteri (fun i v -> pos_in.(v) <- i) ordered;
        (* sweep: number of tensors produced at <= i and used at > i *)
        let crossing = Array.make (max n 1) 0 in
        Array.iteri
          (fun i v ->
            (* last in-component consumer position *)
            let l =
              Int_set.fold (fun s acc -> max acc pos_in.(s)) (Graph.succ_set g v) i
            in
            (* v crosses every boundary between i and l-1 *)
            if l > i && not (pinned g v) then begin
              crossing.(i) <- crossing.(i) + 1;
              if l < n then crossing.(l) <- crossing.(l) - 1
            end)
          ordered;
        let segments = ref [] and current = ref [] in
        let open_count = ref 0 in
        Array.iteri
          (fun i v ->
            current := v :: !current;
            open_count := !open_count + crossing.(i);
            (* cut when at most one tensor crosses the boundary after i:
               the problem separates here *)
            if !open_count <= max_crossing then begin
              segments := List.rev !current :: !segments;
              current := []
            end)
          ordered;
        if !current <> [] then segments := List.rev !current :: !segments;
        (* a segment's earliest node is its first *)
        List.rev_map (fun seg -> (topo_pos.(List.hd seg), Int_set.of_list seg))
          !segments)
      (Array.to_list by_comp)
  in
  (* order blocks by the topological position of their earliest node *)
  List.sort (fun (a, _) (b, _) -> compare a b) blocks |> List.map snd
