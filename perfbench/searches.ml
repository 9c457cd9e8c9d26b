(** The two search workloads: fixed-cap searches on the Quick zoo, timed
    to a fixed quality target.  They take no seed: graphs, caps and
    targets are fixed, and the searches are deterministic. *)

open Magis

type objective =
  | Latency of float  (** [optimize_latency ~mem_ratio] *)
  | Memory of float  (** [optimize_memory ~overhead] *)

type model = {
  name : string;
  cap : int;  (** iteration cap, set past the target crossing *)
  target : float;
      (** latency / POFO latency under [Latency]; best peak / naive peak
          under [Memory] *)
}

type workload = {
  objective : objective;
  jobs : int;
  models : model list;
}

let latency_parity =
  {
    objective = Latency 0.6;
    jobs = 1;
    models =
      [
        { name = "UNet"; cap = 290; target = 1.00 };
        { name = "BERT-base"; cap = 75; target = 1.10 };
      ];
  }

let memory_sweep =
  {
    objective = Memory 0.10;
    jobs = min 2 (Domain.recommended_domain_count ());
    models =
      [
        { name = "ViT-base"; cap = 48; target = 0.32 };
        { name = "ResNet-50"; cap = 36; target = 0.585 };
      ];
  }

let hw = Hardware.default

(* ------------------------------------------------------------------ *)
(* Set-up: graphs and the naive / POFO references                        *)
(* ------------------------------------------------------------------ *)

type prep = {
  model : model;
  graph : Graph.t;
  limit : Check.limit;  (** the constraint the search must meet *)
  reference : float;  (** POFO latency, or naive peak *)
}

let prepare w (m : model) =
  let graph = (Zoo.find m.name).build Zoo.Quick in
  let oc = Op_cost.create hw in
  (* the limits [optimize_latency] / [optimize_memory] derive *)
  let topo = Simulator.run oc graph (Graph.topo_order graph) in
  match w.objective with
  | Latency ratio ->
      let budget = int_of_float (float_of_int topo.peak_mem *. ratio) in
      let pofo = Pofo.run oc graph ~budget in
      if not pofo.feasible then failwith (m.name ^ ": POFO infeasible");
      { model = m; graph; limit = Check.Mem budget; reference = pofo.latency }
  | Memory overhead ->
      {
        model = m;
        graph;
        limit = Check.Lat (topo.latency *. (1.0 +. overhead));
        reference = float_of_int (Naive.run oc graph).peak_mem;
      }

let quality w p ~peak ~latency =
  match w.objective with
  | Latency _ -> latency /. p.reference
  | Memory _ -> float_of_int peak /. p.reference

let meets w p ~peak ~latency =
  (match p.limit with
  | Check.Mem m -> peak <= m
  | Check.Lat l -> latency <= l)
  && quality w p ~peak ~latency <= p.model.target

(** Set up [reps] times (the set-up takes milliseconds); returns the
    last set-up and the median seconds, [setup_s]. *)
let setup ?(reps = 41) w =
  let runs = List.init reps (fun _ -> Measure.timed (fun () -> List.map (prepare w) w.models)) in
  (fst (List.hd runs), Measure.median (List.map snd runs))

(* ------------------------------------------------------------------ *)
(* One search                                                            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  prep : prep;
  result : Search.result;
  op_cost : Op_cost.t;
  wall : float;
  iter_times : float list;  (** wall seconds of each iteration *)
  iters_to_target : int option;  (** from the harvest hook *)
  time_to_target : float option;  (** from [result.history] *)
  sampled : Mstate.t list;  (** reservoir sample of harvested states *)
}

(** A seeded reservoir of [size] items: the same stream of offers keeps
    the same items. *)
let reservoir ~size ~seed =
  let rng = Random.State.make [| seed |] in
  let a = Array.make size None and n = ref 0 in
  let add x =
    (if !n < size then a.(!n) <- Some x
     else
       let j = Random.State.int rng (!n + 1) in
       if j < size then a.(j) <- Some x);
    incr n
  in
  (add, fun () -> List.filter_map Fun.id (Array.to_list a))

let search ?(sample = 0) w p =
  let polls = ref [] and first = ref None in
  let offer, sampled = reservoir ~size:sample ~seed:p.model.cap in
  let harvest ~iteration (s : Mstate.t) =
    if !first = None && meets w p ~peak:s.peak_mem ~latency:s.latency then
      first := Some iteration;
    if sample > 0 then offer s
  in
  (* polled once at the top of every search iteration *)
  let cancel () =
    polls := Measure.now () :: !polls;
    false
  in
  let config =
    {
      Search.default_config with
      max_iterations = p.model.cap;
      time_budget = infinity;
      jobs = w.jobs;
      harvest = Some harvest;
      cancel;
    }
  in
  let op_cost = Op_cost.create hw in
  let result, wall =
    Span.with_ ~id:("search:" ^ p.model.name) "search" @@ fun () ->
    Measure.timed (fun () ->
        match w.objective with
        | Latency mem_ratio ->
            Search.optimize_latency ~config op_cost ~mem_ratio p.graph
        | Memory overhead ->
            Search.optimize_memory ~config op_cost ~overhead p.graph)
  in
  let t_end = Measure.now () in
  let starts = List.rev !polls in
  let iter_times =
    List.map2 (fun a b -> b -. a) starts (List.tl starts @ [ t_end ])
  in
  let time_to_target =
    List.find_map
      (fun (t, peak, latency) -> if meets w p ~peak ~latency then Some t else None)
      result.Search.history
  in
  { prep = p; result; op_cost; wall; iter_times; iters_to_target = !first;
    time_to_target; sampled = sampled () }

let check_outcome (report : Report.t) w o =
  Span.with_ ~id:("search:" ^ o.prep.model.name) "check" @@ fun () ->
  let best = o.result.Search.best in
  let problems =
    Check.best_state ~hw ~limit:o.prep.limit best
    @ (match (o.iters_to_target, o.time_to_target) with
      | Some _, Some _ -> []
      | None, None ->
          [ Printf.sprintf "target %.3f not met in %d iterations (reached %.4f)"
              o.prep.model.target o.prep.model.cap
              (quality w o.prep ~peak:best.peak_mem ~latency:best.latency) ]
      | _ -> [ "the harvest hook and the history disagree on the target" ])
  in
  Report.check report ~what:(o.prep.model.name ^ " search") problems

(** Everything about a search that must repeat exactly. *)
let signature w o =
  let s = o.result.Search.stats and b = o.result.Search.best in
  Printf.sprintf "%s:it=%s,q=%h,peak=%d,sched=%s,n=%s" o.prep.model.name
    (match o.iters_to_target with Some i -> string_of_int i | None -> "-")
    (quality w o.prep ~peak:b.peak_mem ~latency:b.latency)
    b.peak_mem
    (Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int b.schedule))))
    (String.concat "/"
       (List.map string_of_int
          Search.
            [ s.iterations; s.n_transform; s.n_hash; s.n_filtered; s.n_sched;
              s.n_simul; s.n_sim_hit; s.n_sim_miss; s.n_bound_calls;
              s.n_pruned_lb; s.n_resched_nodes; s.n_sched_nodes; s.n_lv_delta;
              s.n_cut_reused; s.n_cut_recomputed ]))

let pass_signature w outs = String.concat ";" (List.map (signature w) outs)

(* ------------------------------------------------------------------ *)
(* Runs                                                                  *)
(* ------------------------------------------------------------------ *)

let pass ?sample (report : Report.t) w preps =
  let outs = List.map (search ?sample w) preps in
  List.iter (check_outcome report w) outs;
  outs

let sum_opt f outs =
  Measure.sum (List.map (fun o -> Option.value (f o) ~default:nan) outs)

(** End-to-end metrics over one or more passes. *)
let end_to_end (report : Report.t) w ~setup_s passes =
  let per_pass f = Measure.median (List.map f passes) in
  let first = List.hd passes in
  let m = Report.metric report in
  m "setup_s" setup_s;
  m "search_s" (per_pass (fun outs -> Measure.sum (List.map (fun o -> o.wall) outs)));
  m "time_to_target_s" (per_pass (sum_opt (fun o -> o.time_to_target)));
  m "iters_to_target"
    (sum_opt (fun o -> Option.map float_of_int o.iters_to_target) first);
  m "quality_ratio"
    (Measure.geomean
       (List.map
          (fun o ->
            let b = o.result.Search.best in
            quality w o.prep ~peak:b.peak_mem ~latency:b.latency)
          first));
  let iter_ms =
    List.concat_map (fun outs -> List.concat_map (fun o -> o.iter_times) outs) passes
    |> List.map (fun t -> t *. 1e3)
  in
  m "op_p50_ms" (Measure.quantile 0.5 iter_ms);
  m "op_p90_ms" (Measure.quantile 0.9 iter_ms);
  let all = List.concat passes in
  m "ops_per_s"
    (float_of_int (List.fold_left (fun n o -> n + o.result.Search.stats.iterations) 0 all)
    /. Measure.sum (List.map (fun o -> o.wall) all));
  Report.note report "peak_heap_mb" (Printf.sprintf "%.1f" (Measure.peak_heap_mb ()));
  Report.note report "op" "one search iteration";
  Report.note report "op_samples" (string_of_int (List.length iter_ms))

let run (report : Report.t) ~seconds w =
  let preps, setup_s = setup w in
  (* passes while at least half of another one fits in [seconds],
     judged by the mean pass so far; at least one *)
  let t0 = Measure.now () in
  let rec go acc n =
    let elapsed = Measure.now () -. t0 in
    if n > 0 && elapsed +. (0.5 *. elapsed /. float_of_int n) >= seconds then List.rev acc
    else go (pass report w preps :: acc) (n + 1)
  in
  let passes = go [] 0 in
  let n = List.length passes in
  let sigs = List.map (pass_signature w) passes in
  List.iteri
    (fun i s ->
      if i > 0 then
        Report.check report ~what:"determinism across passes"
          (if s = List.hd sigs then []
           else [ Printf.sprintf "pass %d: %s, pass 1: %s" (i + 1) s (List.hd sigs) ]))
    sigs;
  end_to_end report w ~setup_s passes;
  Report.note report "passes" (string_of_int n);
  Report.note report "pass search_s"
    (String.concat " "
       (List.map
          (fun outs -> Printf.sprintf "%.3f" (Measure.sum (List.map (fun o -> o.wall) outs)))
          passes))
