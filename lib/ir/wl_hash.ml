(** Weisfeiler–Lehman-style graph hashing (Algorithm 3, lines 3–6).

    Every node receives a label combining its operator fingerprint, output
    shape and the (ordered) labels of its operands; the graph hash is a
    commutative combination of all node labels, so two graphs that are equal
    up to node renumbering hash identically.  Used by the optimizer to
    filter duplicate search states. *)

module Int_map = Util.Int_map

(* WL labels into an array indexed by node id, in topological order *)
let label_array (g : Graph.t) : int64 array =
  let labels = Array.make (Graph.id_bound g) 0L in
  List.iter
    (fun v ->
      let n = Graph.node g v in
      let h0 = Util.hash_combine n.op_fp n.shape_hash in
      let h =
        Array.fold_left (fun h p -> Util.hash_combine h labels.(p)) h0 n.inputs
      in
      labels.(v) <- Util.mix64 h)
    (Graph.topo_order g);
  labels

(** Per-node WL labels. *)
let node_labels (g : Graph.t) : int64 Int_map.t =
  let labels = label_array g in
  Graph.fold (fun n acc -> Int_map.add n.id labels.(n.id) acc) g Int_map.empty

(** Structural hash of the whole graph (invariant under node renumbering). *)
let hash (g : Graph.t) : int64 =
  let labels = label_array g in
  Util.mix64 (Graph.fold (fun n acc -> Int64.add acc labels.(n.id)) g 0L)

let equal_structure a b = Int64.equal (hash a) (hash b)
