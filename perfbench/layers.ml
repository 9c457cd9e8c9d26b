(** Per-layer metrics of the traced run.  Counts and busy seconds come
    from the public [Search.stats] of the traced searches; per-call
    medians come from replaying a seeded, fixed-size sample of harvested
    states through each layer's public function, outside any search. *)

open Magis

let metric = Report.metric

(* ------------------------------------------------------------------ *)
(* Search counters: opt, ir, ftree, sched, cost, analysis, par          *)
(* ------------------------------------------------------------------ *)

type search_run = {
  result : Search.result;
  wall : float;
  jobs : int;
  op_cost : Op_cost.t;
}

let from_searches (report : Report.t) (runs : search_run list) =
  let m = metric report in
  let sumi (f : Search.stats -> int) = float_of_int (List.fold_left (fun a r -> a + f r.result.Search.stats) 0 runs) in
  let sumf (f : Search.stats -> float) = Measure.sum (List.map (fun r -> f r.result.Search.stats) runs) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  m "opt.iterations" (sumi (fun s -> s.iterations));
  m "opt.candidates" (sumi (fun s -> s.n_transform));
  m "opt.dedup_frac" (ratio (sumi (fun s -> s.n_filtered)) (sumi (fun s -> s.n_transform)));
  m "opt.evaluated" (sumi (fun s -> s.n_sim_hit + s.n_sim_miss));
  (* phase seconds are summed over worker domains, so they are compared
     with the domain-seconds the searches had *)
  m "opt.unattributed_frac"
    (1.0
    -. ratio
         (sumf (fun s -> s.t_transform +. s.t_sched +. s.t_simul +. s.t_hash +. s.t_bound))
         (Measure.sum (List.map (fun r -> float_of_int r.jobs *. r.wall) runs)));
  m "ir.hash_calls" (sumi (fun s -> s.n_hash));
  m "ir.hash_s" (sumf (fun s -> s.t_hash));
  m "ftree.transform_s" (sumf (fun s -> s.t_transform));
  m "sched.calls" (sumi (fun s -> s.n_sched));
  m "sched.s" (sumf (fun s -> s.t_sched));
  m "sched.resched_node_frac"
    (ratio (sumi (fun s -> s.n_resched_nodes)) (sumi (fun s -> s.n_sched_nodes)));
  m "cost.simulate_calls" (sumi (fun s -> s.n_simul));
  m "cost.simulate_s" (sumf (fun s -> s.t_simul));
  let hits, misses =
    List.fold_left
      (fun (h, mi) r ->
        let h', m' = Op_cost.stats r.op_cost in
        (h + h', mi + m'))
      (0, 0) runs
  in
  m "cost.opcost_hit_rate" (ratio (float_of_int hits) (float_of_int (hits + misses)));
  m "cost.simcache_hit_rate"
    (ratio (sumi (fun s -> s.n_sim_hit)) (sumi (fun s -> s.n_sim_hit + s.n_sim_miss)));
  m "analysis.bound_calls" (sumi (fun s -> s.n_bound_calls));
  m "analysis.bound_s" (sumf (fun s -> s.t_bound));
  m "analysis.prune_yield" (ratio (sumi (fun s -> s.n_pruned_lb)) (sumi (fun s -> s.n_bound_calls)));
  let busy = List.concat_map (fun r -> Array.to_list r.result.stats.domain_time) runs in
  m "par.busy_frac"
    (ratio (Measure.sum busy)
       (Measure.sum (List.map (fun r -> float_of_int r.jobs *. r.wall) runs)));
  (* per search, busiest over idlest worker; the worst search counts *)
  m "par.imbalance"
    (List.fold_left
       (fun acc r ->
         let d = r.result.stats.domain_time in
         if Array.length d = 0 then acc
         else
           let lo = Array.fold_left min infinity d and hi = Array.fold_left max 0.0 d in
           max acc (ratio hi lo))
       1.0 runs)

(* ------------------------------------------------------------------ *)
(* Per-call replays on sampled states                                    *)
(* ------------------------------------------------------------------ *)

(** Seconds per call of [f x]: calls are repeated until a batch takes
    at least 0.2 ms, so sub-microsecond calls still resolve; the best of
    three batches counts. *)
let seconds_per_call f x =
  let rec batch n =
    let (), dt = Measure.timed (fun () -> for _ = 1 to n do ignore (f x) done) in
    if dt >= 2e-4 then dt /. float_of_int n else batch (2 * n)
  in
  List.fold_left min infinity (List.init 3 (fun _ -> batch 1))

(** The median over the sample of {!seconds_per_call}, in
    microseconds, after one untimed warm-up pass. *)
let per_call (report : Report.t) name xs f =
  Span.with_ ~id:"replay" name @@ fun () ->
  List.iter (fun x -> ignore (f x)) xs;
  let best = seconds_per_call f in
  metric report name (Measure.median (List.map best xs) *. 1e6);
  Report.note report (name ^ " calls") (string_of_int (List.length xs))

let replay (report : Report.t) ~hw ~sched_states (states : Mstate.t list) =
  let oc = Op_cost.create hw in
  let per_call name xs f = per_call report name xs f in
  per_call "ir.hash_us" states (fun (s : Mstate.t) -> Wl_hash.hash s.graph);
  per_call "ftree.refresh_us" states (fun (s : Mstate.t) ->
      Ftree.refresh s.graph ~old_tree:s.ftree ~hotspots:s.hotspots);
  per_call "ftree.accounting_us" states (fun (s : Mstate.t) ->
      Ftree.accounting oc s.graph s.ftree);
  let with_acc = List.map (fun (s : Mstate.t) -> (s, Ftree.accounting oc s.graph s.ftree)) states in
  per_call "sched.schedule_us" with_acc (fun ((s : Mstate.t), (a : Ftree.accounting)) ->
      Reorder.schedule ~max_states:sched_states ~size_of:a.size_of s.graph);
  per_call "cost.simulate_us" with_acc (fun ((s : Mstate.t), (a : Ftree.accounting)) ->
      Simulator.run ~size_of:a.size_of ~cost_of:a.cost_of oc s.graph s.schedule);
  per_call "analysis.bound_us" with_acc (fun ((s : Mstate.t), (a : Ftree.accounting)) ->
      Membound.lower_bound ~size_of:a.size_of s.graph)

(* ------------------------------------------------------------------ *)
(* Models and baselines                                                  *)
(* ------------------------------------------------------------------ *)

(** Graph build, naive and POFO (at 0.6 of the naive peak) per model,
    each the median of five calls, summed over the models. *)
let models_and_baselines (report : Report.t) (models : (string * Zoo.scale) list) =
  let oc = Op_cost.create Hardware.default in
  let each f = Measure.sum (List.map f models) *. 1e3 in
  let graph (name, scale) = (Zoo.find name).build scale in
  metric report "models.build_ms"
    (each (fun m -> Span.with_ ~id:(fst m) "build" (fun () -> snd (Measure.median_time (fun () -> graph m)))));
  let graphs = List.map (fun m -> (m, graph m)) models in
  let on_graph f (m, g) = Span.with_ ~id:(fst m) "baseline" (fun () -> snd (Measure.median_time (fun () -> f g))) in
  metric report "baselines.naive_ms"
    (Measure.sum (List.map (on_graph (fun g -> ignore (Naive.run oc g))) graphs) *. 1e3);
  metric report "baselines.pofo_ms"
    (Measure.sum
       (List.map
          (on_graph (fun g ->
               let budget = int_of_float (0.6 *. float_of_int (Naive.run oc g).peak_mem) in
               ignore (Pofo.run oc g ~budget)))
          graphs)
    *. 1e3)

(* ------------------------------------------------------------------ *)
(* Frontier and serve                                                    *)
(* ------------------------------------------------------------------ *)

type reference = {
  key : Service.key;
  cache_key : int64;  (** the frontier cache's key *)
  frontier : Frontier.t;
  key_ms : float;  (** Zoo build + [Frontier_build.key]: what each hit repeats *)
  run : search_run;  (** the build's search *)
}

(** Build every key's frontier directly with [cached_or_build] into
    [dir] (empty), outside any daemon, and time the frontier and serve
    layers on them. *)
let frontiers (report : Report.t) ~dir (keys : Service.key list) =
  let refs =
    List.map
      (fun (k : Service.key) ->
        let hw = Hardware.find k.hw and config = Service.frontier_config k in
        let graph = (Zoo.find k.model).build k.scale in
        let op_cost = Op_cost.create hw in
        let (fr, how), wall =
          Span.with_ ~id:(Service.key_name k) "frontier-build" @@ fun () ->
          Measure.timed (fun () ->
              Frontier_build.cached_or_build ~config ~dir op_cost Service.frontier_mode graph)
        in
        let result =
          match how with
          | `Built r -> r
          | `Hit -> failwith "perfbench: reference frontier found in a fresh directory"
        in
        let cache_key, key_ms =
          Measure.median_time (fun () ->
              Frontier_build.key ~config Service.frontier_mode ~hw
                ((Zoo.find k.model).build k.scale))
        in
        { key = k; cache_key; frontier = fr; key_ms = key_ms *. 1e3;
          run = { result; wall; jobs = 1; op_cost } })
      keys
  in
  let m = metric report in
  m "frontier.build_s" (Measure.sum (List.map (fun r -> r.run.wall) refs));
  m "frontier.points" (float_of_int (List.fold_left (fun a r -> a + Frontier.size r.frontier) 0 refs));
  let scratch = Filename.concat dir "io" in
  let save_ms, load_ms =
    List.split
      (List.map
         (fun r ->
           let key = r.cache_key in
           let _, save = Measure.median_time (fun () -> Frontier_cache.save ~dir:scratch ~key r.frontier) in
           let loaded, load = Measure.median_time (fun () -> Frontier_cache.load ~dir:scratch ~key) in
           Report.check report ~what:(Service.key_name r.key ^ " frontier save/load")
             (match loaded with
             | Some fr when Frontier.points fr = Frontier.points r.frontier -> []
             | _ -> [ "the reloaded frontier differs from the saved one" ]);
           (save *. 1e3, load *. 1e3))
         refs)
  in
  m "frontier.save_ms" (Measure.median save_ms);
  m "frontier.load_ms" (Measure.median load_ms);
  (* a feasible answer decodes its schedule and an infeasible one does
     not, so each call takes the next budget of the ladder in turn *)
  m "frontier.query_us"
    (Measure.median
       (List.map
          (fun r ->
            let budgets =
              Array.map (fun ratio -> Frontier_build.budget_of_ratio r.frontier ~ratio) Service.ladder
            in
            let i = ref 0 in
            seconds_per_call
              (fun () ->
                i := (!i + 1) mod Array.length budgets;
                Frontier.query r.frontier ~budget:budgets.(!i))
              ())
          refs)
    *. 1e6);
  let r0 = List.hd refs in
  let req = Serve_protocol.Frontier (Service.request r0.key ~id:"q0" ~ratio:0.6) in
  let reply =
    Serve_protocol.Frontier_reply
      { fr_id = "q0"; fr_cache_hit = true; fr_points = Frontier.size r0.frontier;
        fr_budget = 1 lsl 40; fr_feasible = true; fr_peak = 1 lsl 39; fr_latency = 0.0123456789 }
  in
  m "serve.codec_us"
    (seconds_per_call
       (fun () ->
         ignore (Serve_protocol.command_of_string (Serve_protocol.command_to_string req));
         Serve_protocol.reply_of_string (Serve_protocol.reply_to_string reply))
       ()
    *. 1e6);
  refs

(** Every served answer must equal a direct query on its key's
    reference frontier. *)
let check_answers (report : Report.t) refs (st : Service.stream) =
  List.iter
    (fun (i, ratio, a) ->
      let k = st.keys.(i) in
      let r = List.find (fun r -> r.key = k) refs in
      Report.check report
        ~what:(Printf.sprintf "%s ratio %.1f vs reference" (Service.key_name k) ratio)
        (Check.against_frontier r.frontier ~ratio a))
    st.answers

(** The hit metrics of a stream: mean key cost per hit, and the residual
    hit latency after key, lookup and codec time. *)
let hit_costs (report : Report.t) refs (st : Service.stream) =
  let key_ms i = (List.find (fun r -> r.key = st.keys.(i)) refs).key_ms in
  let value name = List.assoc name report.Report.metrics in
  let fixed_ms = (value "frontier.query_us" +. value "serve.codec_us") /. 1e3 in
  metric report "serve.hit_key_ms"
    (Measure.sum (List.map (fun (i, _) -> key_ms i) st.hits)
    /. float_of_int (List.length st.hits));
  metric report "serve.hit_residual_ms"
    (Measure.median (List.map (fun (i, t) -> (t *. 1e3) -. key_ms i -. fixed_ms) st.hits))

(** A daemon over the reference directory answers [rounds] passes over
    the keys from its cache; they time the hit path. *)
let hit_probe (report : Report.t) ~dir ~rounds refs =
  let keys = Array.of_list (List.map (fun r -> r.key) refs) in
  let st = Service.new_stream keys in
  let d = Service.start ~dir in
  Fun.protect ~finally:(fun () -> Service.stop d) (fun () ->
      for round = 0 to rounds - 1 do
        Array.iteri
          (fun i _ ->
            Service.query report d st ~t0:0.0 ~expect_hit:true i
              Service.ladder.(round mod Array.length Service.ladder))
          keys
      done);
  check_answers report refs st;
  if not st.broken then hit_costs report refs st
