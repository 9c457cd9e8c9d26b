(** Peak-memory bounds (see the interface for the bound catalogue and
    the admissibility argument of each term). *)

open Magis_ir
open Magis_cost

let pass = "membound"

type t = {
  lb_workset : int;
  lb_cut : int;
  lb_dom : int;
  lb_pinned : int;
  lower : int;
  ub_greedy : int;
  ub_total : int;
  cut_node : int;
}

(* ------------------------------------------------------------------ *)
(* Lower-bound terms                                                   *)
(* ------------------------------------------------------------------ *)

(** Working set of one operator: pinned weights + distinct non-weight
    operands + its own output.  All of it is live while [v] runs. *)
let workset (lv : Liveness.t) g v =
  if Op.is_weight (Graph.op g v) then Liveness.weight_bytes lv
  else
    List.fold_left
      (fun acc p ->
        if Op.is_weight (Graph.op g p) then acc else acc + Liveness.size lv p)
      (Liveness.weight_bytes lv + Liveness.size lv v)
      (Graph.pre g v)

(** Nodes ordered by decreasing working set (ties by id, so sampling is
    deterministic); the max cut is overwhelmingly attained at one of the
    fattest worksets, so they are the sampling candidates. *)
let cut_candidates lv g =
  Liveness.fold (fun v acc -> (workset lv g v, v) :: acc) lv []
  |> List.sort (fun (wa, va) (wb, vb) -> compare (wb, va) (wa, vb))
  |> List.map snd

let max_cut ?sample (lv : Liveness.t) g : int * int =
  let candidates =
    match sample with
    | None -> cut_candidates lv g
    | Some k -> Util.take k (cut_candidates lv g)
  in
  List.fold_left
    (fun ((best, _) as acc) v ->
      let c = Liveness.always_live_bytes lv v in
      if c > best then (c, v) else acc)
    (0, -1) candidates

(** The dominator-tree relaxation of the cut: only ancestors that are
    dominators of [v], held only by consumers [v] dominates.  A strict
    subset of the exact cut's terms, hence [lb_dom <= lb_cut]; disagreement
    the other way indicts one of the two reachability structures. *)
let dom_cut (lv : Liveness.t) g : int =
  let t = Dominator.compute g in
  (* O(1) dominance via an Euler interval labelling of the tree *)
  let tin = Hashtbl.create 64 and tout = Hashtbl.create 64 in
  let clock = ref 0 in
  let rec dfs v =
    Hashtbl.replace tin v !clock;
    incr clock;
    Util.Int_set.iter dfs (Dominator.children t v);
    Hashtbl.replace tout v !clock
  in
  let in_tree = List.filter (fun v -> Dominator.idom t v <> None) (Graph.node_ids g) in
  List.iter
    (fun v ->
      if Dominator.idom t v = Some Dominator.virtual_root then dfs v)
    in_tree;
  let dominates u v =
    match (Hashtbl.find_opt tin u, Hashtbl.find_opt tin v) with
    | Some tu, Some tv -> tu <= tv && tv < Hashtbl.find tout u
    | _ -> false
  in
  let cut v =
    let base =
      Liveness.weight_bytes lv
      + (if Op.is_weight (Graph.op g v) then 0 else Liveness.size lv v)
    in
    let rec climb u acc =
      match Dominator.idom t u with
      | None -> acc
      | Some d when d = Dominator.virtual_root -> acc
      | Some d ->
          let held =
            (not (Op.is_weight (Graph.op g d)))
            && List.exists (fun c -> c = v || dominates v c) (Graph.suc g d)
          in
          climb d (if held then acc + Liveness.size lv d else acc)
    in
    climb v base
  in
  List.fold_left (fun acc v -> max acc (cut v)) 0 in_tree

(* ------------------------------------------------------------------ *)
(* Bound records                                                       *)
(* ------------------------------------------------------------------ *)

let of_liveness (lv : Liveness.t) : t =
  let g = Liveness.graph lv in
  let size_of v = Liveness.size lv v in
  let lb_workset = Liveness.fold (fun v acc -> max acc (workset lv g v)) lv 0 in
  let lb_cut, cut_node = max_cut lv g in
  let lb_dom = dom_cut lv g in
  let lb_pinned = Liveness.pinned_bytes lv in
  let ub_total = Liveness.fold (fun v acc -> acc + size_of v) lv 0 in
  let ub_greedy =
    if Liveness.length lv = 0 then 0
    else
      let order = Magis_sched.Reorder.schedule ~max_states:0 ~size_of g in
      Lifetime.peak_memory (Lifetime.analyze ~size_of g order)
  in
  {
    lb_workset;
    lb_cut;
    lb_dom;
    lb_pinned;
    lower = max (max lb_workset lb_cut) (max lb_dom lb_pinned);
    ub_greedy;
    ub_total;
    cut_node;
  }

let compute ?size_of (g : Graph.t) : t =
  of_liveness (Liveness.compute ?size_of g)

(* ------------------------------------------------------------------ *)
(* Hot-path probe                                                      *)
(* ------------------------------------------------------------------ *)

(** The search-loop probe: [(lower, total_bytes)].  It runs on every
    simulation-cache miss, so it must stay well under the reschedule +
    simulate cost it tries to save: one pass over the node map into
    flat arrays indexed by node id (sizes, weight flags, operand
    arrays), a CSR successor table built from the operands, then
    array-only arithmetic — no [Liveness] bitsets, no list walks.

    Same terms as {!of_liveness}: worksets and the pinned total are
    summed while the tables fill; the cut is evaluated at the [sample]
    largest worksets (ties by node id), each by two stamped walks on an
    array stack — descendants of [v] forward, then ancestors backward,
    adding every non-weight ancestor with a consumer at or below [v]. *)
let probe ?size_of ?sample (g : Graph.t) : int * int =
  let size_of =
    match size_of with Some f -> f | None -> Lifetime.default_size g
  in
  let n = Graph.n_nodes g and nb = Graph.id_bound g in
  let ids = Array.make n 0 in
  let size = Array.make nb 0 in
  let is_weight = Array.make nb false and is_input = Array.make nb false in
  let operands = Array.make nb [||] in
  let i = ref 0 and n_slots = ref 0 and weight_bytes = ref 0 and total = ref 0 in
  Graph.iter
    (fun nd ->
      let v = nd.Graph.id and s = size_of nd.Graph.id in
      ids.(!i) <- v;
      incr i;
      size.(v) <- s;
      total := !total + s;
      if Op.is_weight nd.op then begin
        is_weight.(v) <- true;
        weight_bytes := !weight_bytes + s
      end;
      is_input.(v) <- Op.is_input nd.op;
      operands.(v) <- nd.inputs;
      n_slots := !n_slots + Array.length nd.inputs)
    g;
  let weight_bytes = !weight_bytes in
  (* distinct operands as CSR over ids ([pred_off.(v) .. pred_off.(v+1)]),
     successor counts, worksets, and the top-[k] worksets kept in a
     k-slot array ordered by (workset desc, id asc) *)
  let k = match sample with Some k -> max 0 (min k n) | None -> n in
  let sampled = k < n in
  let slots = if sampled then k else 0 in
  let top = Array.make slots 0 and top_ws = Array.make slots 0 in
  let filled = ref 0 in
  let pred = Array.make !n_slots 0 and pred_off = Array.make (nb + 1) 0 in
  let succ_off = Array.make (nb + 1) 0 in
  let last = Array.make nb (-1) in
  let np = ref 0 and lb_workset = ref 0 in
  Array.iter
    (fun v ->
      pred_off.(v) <- !np;
      let ws = ref (weight_bytes + size.(v)) in
      Array.iter
        (fun p ->
          if last.(p) <> v then begin
            last.(p) <- v;
            pred.(!np) <- p;
            incr np;
            succ_off.(p + 1) <- succ_off.(p + 1) + 1;
            if not is_weight.(p) then ws := !ws + size.(p)
          end)
        operands.(v);
      pred_off.(v + 1) <- !np;
      let ws = if is_weight.(v) then weight_bytes else !ws in
      if ws > !lb_workset then lb_workset := ws;
      if sampled && k > 0 && (!filled < k || ws > top_ws.(k - 1)) then begin
        let j = ref (min !filled (k - 1)) in
        while !j > 0 && top_ws.(!j - 1) < ws do
          top.(!j) <- top.(!j - 1);
          top_ws.(!j) <- top_ws.(!j - 1);
          decr j
        done;
        top.(!j) <- v;
        top_ws.(!j) <- ws;
        filled := min k (!filled + 1)
      end)
    ids;
  for u = 0 to nb - 1 do
    succ_off.(u + 1) <- succ_off.(u + 1) + succ_off.(u)
  done;
  let succ = Array.make !np 0 and cursor = Array.sub succ_off 0 nb in
  let pinned = ref 0 in
  Array.iter
    (fun v ->
      for e = pred_off.(v) to pred_off.(v + 1) - 1 do
        let p = pred.(e) in
        succ.(cursor.(p)) <- v;
        cursor.(p) <- cursor.(p) + 1
      done;
      if is_weight.(v) || (succ_off.(v) = succ_off.(v + 1) && not is_input.(v))
      then pinned := !pinned + size.(v))
    ids;
  let des = Array.make nb (-1) and anc = Array.make nb (-1) in
  let stack = Array.make (max n 1) 0 in
  let held stamp w =
    let e = ref succ_off.(w) and stop = succ_off.(w + 1) in
    while !e < stop && des.(succ.(!e)) <> stamp do incr e done;
    !e < stop
  in
  let cut stamp v =
    des.(v) <- stamp;
    stack.(0) <- v;
    let sp = ref 1 in
    while !sp > 0 do
      decr sp;
      let u = stack.(!sp) in
      for e = succ_off.(u) to succ_off.(u + 1) - 1 do
        let w = succ.(e) in
        if des.(w) <> stamp then begin
          des.(w) <- stamp;
          stack.(!sp) <- w;
          incr sp
        end
      done
    done;
    let acc = ref (weight_bytes + if is_weight.(v) then 0 else size.(v)) in
    stack.(0) <- v;
    sp := 1;
    while !sp > 0 do
      decr sp;
      let u = stack.(!sp) in
      for e = pred_off.(u) to pred_off.(u + 1) - 1 do
        let w = pred.(e) in
        if anc.(w) <> stamp then begin
          anc.(w) <- stamp;
          stack.(!sp) <- w;
          incr sp;
          if (not is_weight.(w)) && held stamp w then acc := !acc + size.(w)
        end
      done
    done;
    !acc
  in
  (* the unsampled bound is a max over every node, in any order *)
  let cands = if sampled then top else ids in
  let lb_cut = ref 0 in
  Array.iteri (fun c v -> lb_cut := max !lb_cut (cut c v)) cands;
  (max (max !lb_workset !lb_cut) !pinned, !total)

let lower_bound ?size_of ?sample (g : Graph.t) : int =
  fst (probe ?size_of ?sample g)

let quick_check ?size_of ?sample (g : Graph.t) ~peak : Diagnostic.t list =
  let lower, total = probe ?size_of ?sample g in
  let err ~check fmt = Diagnostic.errorf ~pass ~check fmt in
  List.concat
    [
      (if lower > peak then
         [
           err ~check:"lb-exceeds-peak"
             "lower bound %d exceeds the simulated peak %d (inadmissible \
              bound or broken cost model)"
             lower peak;
         ]
       else []);
      (if peak > total then
         [
           err ~check:"peak-exceeds-total"
             "simulated peak %d exceeds the total-bytes upper bound %d" peak
             total;
         ]
       else []);
    ]

let latency_lower_bound ~(cost_of : int -> float) (g : Graph.t) : float =
  Graph.fold
    (fun (n : Graph.node) acc ->
      match n.op with
      | Op.Input _ | Op.Store | Op.Load -> acc
      | _ -> acc +. cost_of n.id)
    g 0.0

(* ------------------------------------------------------------------ *)
(* Invariant checking and printing                                     *)
(* ------------------------------------------------------------------ *)

let check ?node (t : t) ~peak : Diagnostic.t list =
  let err ~check fmt = Diagnostic.errorf ?node ~pass ~check fmt in
  List.concat
    [
      (if t.lower > peak then
         [
           err ~check:"lb-exceeds-peak"
             "lower bound %d exceeds the simulated peak %d (inadmissible \
              bound or broken cost model)"
             t.lower peak;
         ]
       else []);
      (if peak > t.ub_total then
         [
           err ~check:"peak-exceeds-total"
             "simulated peak %d exceeds the total-bytes upper bound %d" peak
             t.ub_total;
         ]
       else []);
      (if t.lower > t.ub_greedy then
         [
           err ~check:"lb-exceeds-greedy"
             "lower bound %d exceeds the greedy-schedule peak %d \
              (inadmissible bound caught by a concrete schedule)"
             t.lower t.ub_greedy;
         ]
       else []);
      (if t.lb_dom > t.lb_cut then
         [
           err ~check:"dom-exceeds-cut"
             "dominator cut %d exceeds the exact reachability cut %d" t.lb_dom
             t.lb_cut;
         ]
       else []);
    ]

let pp ppf (t : t) =
  Fmt.pf ppf
    "bounds(lower=%.1fMB [workset=%.1f cut=%.1f@%d dom=%.1f pinned=%.1f], \
     ub_greedy=%.1fMB, ub_total=%.1fMB)"
    (float_of_int t.lower /. 1e6)
    (float_of_int t.lb_workset /. 1e6)
    (float_of_int t.lb_cut /. 1e6)
    t.cut_node
    (float_of_int t.lb_dom /. 1e6)
    (float_of_int t.lb_pinned /. 1e6)
    (float_of_int t.ub_greedy /. 1e6)
    (float_of_int t.ub_total /. 1e6)
