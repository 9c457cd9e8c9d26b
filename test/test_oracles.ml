(** The straightforward implementations the IR hot loops replaced, kept
    here as oracles: Kahn's algorithm over hash tables and a set-based
    ready queue, the per-node BFS narrow-waist value, list-walk
    reachability for the set queries, the derived hash fields
    recomputed from scratch, and the dense-index memory-bound probe
    with its sorted candidates and list walks.  Each is checked against
    the library on every zoo graph, on random NASNet-like graphs, after
    every rewrite rule and (the bound) on harvested search states. *)

open Magis
open Helpers
module Int_set = Util.Int_set

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

(** Kahn topological order, smallest ready id first. *)
let kahn_topo g =
  let indeg = Hashtbl.create (Graph.n_nodes g) in
  Graph.iter
    (fun n ->
      Hashtbl.replace indeg n.id
        (List.length (List.filter (fun p -> Graph.mem g p) (Graph.pre g n.id))))
    g;
  let ready =
    Hashtbl.fold
      (fun id d acc -> if d = 0 then Int_set.add id acc else acc)
      indeg Int_set.empty
  in
  let rec go ready acc =
    match Int_set.min_elt_opt ready with
    | None -> List.rev acc
    | Some v ->
        let ready =
          List.fold_left
            (fun r s ->
              let d = Hashtbl.find indeg s - 1 in
              Hashtbl.replace indeg s d;
              if d = 0 then Int_set.add s r else r)
            (Int_set.remove v ready) (Graph.suc g v)
        in
        go ready (v :: acc)
  in
  go ready []

(** [nw(v) = |V| - |anc(v)| - |des(v)| - 1] by two breadth-first walks. *)
let bfs_nw g v =
  let bfs step =
    let rec go visited = function
      | [] -> visited
      | u :: rest ->
          let nexts =
            List.filter (fun w -> not (Int_set.mem w visited)) (step u)
          in
          go
            (List.fold_left (fun acc w -> Int_set.add w acc) visited nexts)
            (nexts @ rest)
    in
    go Int_set.empty [ v ]
  in
  Graph.n_nodes g
  - Int_set.cardinal (bfs (Graph.pre g))
  - Int_set.cardinal (bfs (Graph.suc g))
  - 1

(** The list walk behind the reachability queries: [start] plus
    everything reachable from it through [step]. *)
let reachable step start =
  let rec go visited = function
    | [] -> visited
    | v :: rest ->
        let visited, frontier =
          List.fold_left
            (fun (vis, fr) u ->
              if Int_set.mem u vis then (vis, fr) else (Int_set.add u vis, u :: fr))
            (visited, rest) (step v)
        in
        go visited frontier
  in
  go (Int_set.of_list start) start

let des_of_set g set =
  let start = Int_set.fold (fun v acc -> Graph.suc g v @ acc) set [] in
  Int_set.diff (reachable (Graph.suc g) start) set

let anc_of_set g set =
  let start = Int_set.fold (fun v acc -> Graph.pre g v @ acc) set [] in
  Int_set.diff (reachable (Graph.pre g) start) set

let within g set v =
  List.filter (fun u -> Int_set.mem u set) (Graph.pre g v @ Graph.suc g v)

let is_weakly_connected g set =
  match Int_set.choose_opt set with
  | None -> true
  | Some seed -> Int_set.subset set (reachable (within g set) [ seed ])

let is_convex g set =
  Int_set.is_empty
    (Int_set.inter (Graph.inps_of g set) (des_of_set g (Graph.outs_of g set)))

let components_of g set =
  let rec all acc remaining =
    match Int_set.choose_opt remaining with
    | None -> List.rev acc
    | Some seed ->
        let comp = reachable (within g remaining) [ seed ] in
        all (comp :: acc) (Int_set.diff remaining comp)
  in
  all [] set

(** The memory-bound probe over a dense index (node id -> position in
    [Graph.iter] order): distinct-operand lists, worksets, candidates
    sorted by (workset desc, index asc), and each cut by two stamped
    list walks (descendants forward, then ancestors with a consumer at
    or below the candidate). *)
type dense = {
  n : int;
  size : int array;
  d_is_weight : bool array;
  preds : int list array;
  succs : int list array;
  d_weight_bytes : int;
  d_pinned_bytes : int;
}

let densify ?size_of g =
  let size_of =
    match size_of with Some f -> f | None -> Lifetime.default_size g
  in
  let n = Graph.n_nodes g in
  let index = Hashtbl.create n in
  List.iteri (fun i v -> Hashtbl.replace index v i) (Graph.node_ids g);
  let size = Array.make n 0 in
  let d_is_weight = Array.make n false in
  let is_input = Array.make n false in
  let preds = Array.make n [] and succs = Array.make n [] in
  Graph.iter
    (fun nd ->
      let i = Hashtbl.find index nd.id in
      size.(i) <- size_of nd.id;
      d_is_weight.(i) <- Op.is_weight nd.op;
      is_input.(i) <- Op.is_input nd.op;
      Array.iter
        (fun p ->
          let pi = Hashtbl.find index p in
          if not (List.mem pi preds.(i)) then begin
            preds.(i) <- pi :: preds.(i);
            succs.(pi) <- i :: succs.(pi)
          end)
        nd.inputs)
    g;
  let w = ref 0 and pinned = ref 0 in
  for i = 0 to n - 1 do
    if d_is_weight.(i) then w := !w + size.(i);
    if d_is_weight.(i) || (succs.(i) = [] && not is_input.(i)) then
      pinned := !pinned + size.(i)
  done;
  { n; size; d_is_weight; preds; succs; d_weight_bytes = !w;
    d_pinned_bytes = !pinned }

let dense_workset d i =
  if d.d_is_weight.(i) then d.d_weight_bytes
  else
    List.fold_left
      (fun acc p -> if d.d_is_weight.(p) then acc else acc + d.size.(p))
      (d.d_weight_bytes + d.size.(i))
      d.preds.(i)

let dense_cut d ~des_stamp ~anc_stamp ~stamp v =
  let rec walk adj stamps acc = function
    | [] -> acc
    | u :: rest ->
        let acc, rest =
          List.fold_left
            (fun (acc, rest) w ->
              if stamps.(w) = stamp then (acc, rest)
              else begin
                stamps.(w) <- stamp;
                (w :: acc, w :: rest)
              end)
            (acc, rest) adj.(u)
        in
        walk adj stamps acc rest
  in
  des_stamp.(v) <- stamp;
  ignore (walk d.succs des_stamp [] [ v ]);
  let ancs = walk d.preds anc_stamp [] [ v ] in
  let base = d.d_weight_bytes + if d.d_is_weight.(v) then 0 else d.size.(v) in
  List.fold_left
    (fun acc w ->
      if
        (not d.d_is_weight.(w))
        && List.exists (fun c -> des_stamp.(c) = stamp) d.succs.(w)
      then acc + d.size.(w)
      else acc)
    base ancs

let dense_lower ?sample d =
  if d.n = 0 then 0
  else begin
    let worksets = Array.init d.n (dense_workset d) in
    let by_workset = Array.init d.n (fun i -> i) in
    Array.sort (fun a b -> compare (worksets.(b), a) (worksets.(a), b)) by_workset;
    let k = match sample with None -> d.n | Some k -> min k d.n in
    let des_stamp = Array.make d.n (-1) and anc_stamp = Array.make d.n (-1) in
    let lb_cut = ref 0 in
    for c = 0 to k - 1 do
      lb_cut :=
        max !lb_cut (dense_cut d ~des_stamp ~anc_stamp ~stamp:c by_workset.(c))
    done;
    max (max (Array.fold_left max 0 worksets) !lb_cut) d.d_pinned_bytes
  end

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let check_topo what g =
  Alcotest.(check (list int)) (what ^ ": topo_order = Kahn") (kahn_topo g)
    (Graph.topo_order g)

let check_nw what g =
  let table = Partition.nw_table g in
  Graph.iter
    (fun n ->
      if table.(n.id) <> bfs_nw g n.id then
        Alcotest.failf "%s: nw_table.(%d) = %d, BFS nw = %d" what n.id
          table.(n.id) (bfs_nw g n.id))
    g

let check_fields what g =
  Graph.iter
    (fun n ->
      if n.op_fp <> Op.fingerprint n.op || n.shape_hash <> Shape.hash n.shape
      then Alcotest.failf "%s: stale hash fields on node %d" what n.id)
    g

(* Member sets of the F-Tree candidates of [g]. *)
let candidates g =
  let ftree = (Mstate.init ~sched_states:0 (cache ()) g).ftree in
  List.init (Ftree.n_entries ftree) (fun i ->
      Fission.members (Ftree.fission_at ftree i))

(* Node subsets for the set queries: [extra], plus seeded windows of the
   topological order and seeded random samples (often disconnected or
   not convex). *)
let subsets ?(extra = []) g =
  let order = Array.of_list (Graph.topo_order g) in
  let n = Array.length order in
  let rng = Random.State.make [| n |] in
  let windows =
    List.init 20 (fun _ ->
        let lo = Random.State.int rng n in
        let len = 1 + Random.State.int rng (min 12 (n - lo)) in
        Int_set.of_list (Array.to_list (Array.sub order lo len)))
  in
  let samples =
    List.init 20 (fun _ ->
        Int_set.of_list
          (List.init (1 + Random.State.int rng 8) (fun _ ->
               order.(Random.State.int rng n))))
  in
  (Int_set.empty :: extra) @ windows @ samples

let check_sets ?extra what g =
  let set = Alcotest.testable Graph.Int_set.(fun ppf s ->
      Fmt.(list ~sep:comma int) ppf (elements s)) Int_set.equal in
  Graph.iter
    (fun n ->
      let one = Int_set.singleton n.id in
      Alcotest.check set (what ^ ": anc") (anc_of_set g one) (Graph.anc g n.id);
      Alcotest.check set (what ^ ": des") (des_of_set g one) (Graph.des g n.id))
    g;
  List.iter
    (fun s ->
      Alcotest.check set (what ^ ": anc_of_set") (anc_of_set g s)
        (Graph.anc_of_set g s);
      Alcotest.check set (what ^ ": des_of_set") (des_of_set g s)
        (Graph.des_of_set g s);
      Alcotest.(check bool) (what ^ ": is_weakly_connected")
        (is_weakly_connected g s) (Graph.is_weakly_connected g s);
      Alcotest.(check bool) (what ^ ": is_convex") (is_convex g s)
        (Graph.is_convex g s);
      Alcotest.(check (list set)) (what ^ ": components_of")
        (components_of g s) (Graph.components_of g s))
    (subsets ?extra g)

(* [Membound.lower_bound], sampled as in the search and unsampled *)
let check_bound ?size_of what g =
  let d = densify ?size_of g in
  List.iter
    (fun sample ->
      let expect = dense_lower ?sample d in
      let got = Membound.lower_bound ?size_of ?sample g in
      if got <> expect then
        Alcotest.failf "%s: lower_bound (sample %s) = %d, oracle %d" what
          (match sample with Some k -> string_of_int k | None -> "all")
          got expect)
    [ Some 8; None ]

let check_all ?extra what g =
  check_topo what g;
  check_nw what g;
  check_fields what g;
  check_sets ?extra what g;
  check_bound what g

(* Every rewrite every rule proposes on [g] at its greedy schedule. *)
let rewrites c g =
  let schedule = Reorder.schedule ~max_states:0 g in
  let res = Simulator.run c g schedule in
  let pos = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) schedule;
  let ctx =
    { Rule.default_ctx with
      hotspots = Lifetime.hotspots res.analysis;
      schedule_pos = (fun v -> Hashtbl.find_opt pos v);
      max_per_rule = 4 }
  in
  List.concat_map
    (fun (r : Rule.t) -> r.apply ctx g)
    (Sched_rules.all @ Taso_rules.all)

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

(* What the zoo lacks: an operator reading one tensor twice, and an
   input nothing consumes (neither counts twice in the bound) *)
let odd_graph () =
  let b = Builder.create () in
  let x = Builder.input b [ 64 ] ~dtype:Shape.F32 in
  ignore (Builder.input b [ 128 ] ~dtype:Shape.F32);
  let w = Builder.weight b [ 64 ] ~dtype:Shape.F32 in
  let y = Builder.add b x x in
  ignore (Builder.add b (Builder.relu b y) w);
  Builder.finish b

let test_zoo () =
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      check_all ~extra:(candidates g) w.name g)
    Zoo.all;
  check_all "repeated operand, unused input" (odd_graph ())

let test_rewrites () =
  let c = cache () in
  List.iter
    (fun name ->
      let g = (Zoo.find name).build Zoo.Quick in
      let rws = rewrites c g in
      Alcotest.(check bool) (name ^ ": rules propose rewrites") true (rws <> []);
      List.iter
        (fun (rw : Rule.rewrite) ->
          check_all (Printf.sprintf "%s after %s" name rw.rule) rw.graph)
        rws)
    [ "UNet"; "BERT-base" ]

(* The search's own probes: states a short latency-mode search harvests,
   each under its F-Tree accounting sizes *)
let test_harvested_bounds () =
  let c = cache () in
  List.iter
    (fun name ->
      let g = (Zoo.find name).build Zoo.Quick in
      let states = ref [] in
      let config =
        { Search.default_config with
          max_iterations = 6; time_budget = infinity;
          harvest = Some (fun ~iteration:_ s -> states := s :: !states) }
      in
      ignore (Search.optimize_latency ~config c ~mem_ratio:0.6 g);
      Alcotest.(check bool) (name ^ ": states harvested") true (!states <> []);
      List.iteri
        (fun i (s : Mstate.t) ->
          let acc = Ftree.accounting c s.graph s.ftree in
          check_bound ~size_of:acc.size_of
            (Printf.sprintf "%s harvested state %d" name i)
            s.graph)
        !states)
    [ "UNet"; "BERT-base" ]

let randnet_prop =
  QCheck2.Test.make ~name:"oracles agree on random NASNet-like graphs"
    ~count:20
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 3))
    (fun (seed, cells) ->
      let g =
        Randnet.build
          ~cfg:
            { Randnet.seed; cells; nodes_per_cell = 4; channels = 4;
              image = 8; batch = 2 }
          ()
      in
      check_all (Printf.sprintf "randnet seed %d" seed) g;
      true)

let suite =
  [
    tc "zoo graphs match the oracles" test_zoo;
    tc "every rewrite matches the oracles" test_rewrites;
    tc "bound probe matches on harvested states" test_harvested_bounds;
    QCheck_alcotest.to_alcotest randnet_prop;
  ]
