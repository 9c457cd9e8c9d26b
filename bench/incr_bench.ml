(** Incremental search core (the [incr] experiment): how much of a
    single-rewrite candidate's evaluation the O(Δ) structures save, and
    proof that they are trajectory-invisible.

    Part 1 — microbenchmark.  For every rewrite of the two smallest
    Table-2 workloads and a seeded Randnet, time the two per-candidate
    evaluation pipelines back to back:

    - scratch: {!Liveness.compute} + {!Membound.probe_create} + a full
      {!Reorder.schedule} of the child graph — what every candidate
      cost before the incremental core;
    - incremental: {!Liveness.delta_update} + {!Membound.probe_update}
      (falling back to the dense {!Membound.lower_bound} when the dirty
      cone exceeds the search's cap, exactly as the search does) + a
      windowed {!Incremental.reschedule} against the parent schedule.

    The headline number is the per-candidate speedup (the README quotes
    ≥3×; the schedule window dominates).  Every delta result is checked
    against the scratch oracle while timing is off.

    Part 2 — in-search A/B.  The same iteration-capped search with
    [config.incremental] on and off must return bit-identical best
    states (both bound paths are admissible, so only counters may
    differ); the cheap-tier configuration is reported alongside unless
    [--no-cheap-tier].

    With [--stats-json] the deterministic counters of both parts are
    written for the CI perf-smoke gate. *)

open Magis

let now () = Unix.gettimeofday ()

let rule_ctx g =
  let hot =
    Util.Int_set.of_list
      (List.filteri (fun i _ -> i mod 3 = 0) (Graph.topo_order g))
  in
  {
    Rule.hotspots = hot;
    frozen = Util.Int_set.empty;
    schedule_pos = (fun _ -> None);
    max_per_rule = 4;
    restrict_to_hotspots = false;
  }

let rewrites g =
  let ctx = rule_ctx g in
  List.concat_map
    (fun (r : Rule.t) -> r.apply ctx g)
    (Sched_rules.all @ Taso_rules.all)

(** The search's dirty-cone bail-out policy, mirrored here so the
    benchmark measures the pipeline the search actually runs. *)
let max_dirty n = n / 3

type micro = {
  m_name : string;
  m_rewrites : int;
  m_delta : int;  (** candidates served by the delta path *)
  m_bail : int;  (** candidates that fell back to the dense bound *)
  m_scratch_us : float;  (** mean scratch evaluation, µs/candidate *)
  m_incr_us : float;  (** mean incremental evaluation, µs/candidate *)
}

let micro_one name g =
  let size_of = Lifetime.default_size g in
  let lv = Liveness.compute g in
  let probe = Membound.probe_create ~sample:8 lv in
  let parent = Incremental.parent g (Reorder.schedule ~size_of g) in
  let all_rws = rewrites g in
  let cap = max_dirty (Graph.n_nodes g) in
  (* correctness first, untimed: every delta result must match the
     scratch oracle, and every spliced schedule must be legal *)
  let n_delta = ref 0 and n_bail = ref 0 in
  List.iter
    (fun (rw : Rule.rewrite) ->
      (match
         Liveness.delta_update ~max_dirty:cap lv rw.graph
           ~mutated:rw.touched_old
       with
      | Some (lv', delta) ->
          incr n_delta;
          let scratch = Liveness.compute rw.graph in
          if not (Liveness.equivalent lv' scratch) then
            failwith (name ^ ": delta_update diverged from scratch");
          let pb = Membound.probe_update probe lv' ~delta in
          let ps = Membound.probe_create ~sample:8 scratch in
          if Membound.probe_lower pb <> Membound.probe_lower ps then
            failwith (name ^ ": probe_update diverged from scratch")
      | None -> incr n_bail);
      let order, _ =
        Incremental.reschedule ~parent ~new_graph:rw.graph
          ~mutated_old:rw.touched_old
          ~size_of:(Lifetime.default_size rw.graph) ()
      in
      if not (Graph.is_valid_order rw.graph order) then
        failwith (name ^ ": incremental reschedule produced illegal order"))
    all_rws;
  (* timed: whole-pipeline cost per candidate over a deterministic
     subset (the scratch tier's full DP schedule costs seconds per
     candidate on the zoo models — timing every rewrite would blow the
     CI budget; correctness above still covers them all) *)
  let rws = Util.take 10 all_rws in
  let reps = 2 in
  let t0 = now () in
  for _ = 1 to reps do
    List.iter
      (fun (rw : Rule.rewrite) ->
        let scratch = Liveness.compute rw.graph in
        ignore (Membound.probe_lower (Membound.probe_create ~sample:8 scratch));
        ignore (Reorder.schedule ~size_of:(Lifetime.default_size rw.graph)
                  rw.graph))
      rws
  done;
  let t_scratch = now () -. t0 in
  let t0 = now () in
  for _ = 1 to reps do
    List.iter
      (fun (rw : Rule.rewrite) ->
        (match
           Liveness.delta_update ~max_dirty:cap lv rw.graph
             ~mutated:rw.touched_old
         with
        | Some (lv', delta) ->
            ignore (Membound.probe_lower (Membound.probe_update probe lv' ~delta))
        | None ->
            ignore
              (Membound.lower_bound
                 ~size_of:(Lifetime.default_size rw.graph)
                 ~sample:8 rw.graph));
        ignore
          (Incremental.reschedule ~parent ~new_graph:rw.graph
             ~mutated_old:rw.touched_old
             ~size_of:(Lifetime.default_size rw.graph) ()))
      rws
  done;
  let t_incr = now () -. t0 in
  let per t = t /. float_of_int (reps * max 1 (List.length rws)) *. 1e6 in
  {
    m_name = name;
    m_rewrites = List.length all_rws;
    m_delta = !n_delta;
    m_bail = !n_bail;
    m_scratch_us = per t_scratch;
    m_incr_us = per t_incr;
  }

(* ------------------------------------------------------------------ *)
(* Part 2: in-search A/B                                               *)
(* ------------------------------------------------------------------ *)

(** Latency mode: its δ-admission prunes on the {e memory} bound
    ([Prune_mem]), which is the probe the incremental structures
    accelerate — memory mode prunes on the latency bound and would
    leave the delta path cold. *)
let search_one (env : Common.env) g ~incremental ~cheap_tier =
  let config =
    { (Common.search_config env) with
      sim_cache = Some (Sim_cache.create ());
      time_budget = 1e9;
      max_iterations = min env.iters 30;
      incremental;
      cheap_tier }
  in
  Search.optimize_latency ~config env.cache ~mem_ratio:0.7 g

let run (env : Common.env) =
  Common.hr "Incremental search core: O(Δ) candidate evaluation";
  let lm =
    Transformer.build_lm
      { Transformer.batch = 8; seq_len = 32; hidden = 64; heads = 4;
        layers = 2; vocab = 128; dtype = Shape.F32 }
  in
  let subjects =
    [
      ("unet", Common.workload_graph env (Zoo.find "unet"));
      ("unet++", Common.workload_graph env (Zoo.find "unet++"));
      ("randnet", Randnet.build ~cfg:{ Randnet.default with seed = 1 } ());
      ("lm", lm);
    ]
  in
  let micros = List.map (fun (n, g) -> micro_one n g) subjects in
  Printf.printf "%-10s %6s %6s %6s %12s %12s %9s\n" "Model" "Rw" "Delta"
    "Bail" "Scratch µs" "Incr µs" "Speedup";
  List.iter
    (fun m ->
      Printf.printf "%-10s %6d %6d %6d %12.1f %12.1f %8.2fx\n" m.m_name
        m.m_rewrites m.m_delta m.m_bail m.m_scratch_us m.m_incr_us
        (m.m_scratch_us /. m.m_incr_us))
    micros;
  let tot_scratch = List.fold_left (fun a m -> a +. m.m_scratch_us) 0. micros in
  let tot_incr = List.fold_left (fun a m -> a +. m.m_incr_us) 0. micros in
  let speedup = tot_scratch /. tot_incr in
  Printf.printf "overall per-candidate evaluation speedup: %.2fx\n" speedup;
  (* in-search A/B on the LM benchmark, latency mode *)
  let ab_name = "lm" in
  let on = search_one env lm ~incremental:true ~cheap_tier:false in
  let off = search_one env lm ~incremental:false ~cheap_tier:false in
  let identical =
    on.Search.best.peak_mem = off.Search.best.peak_mem
    && on.best.latency = off.best.latency
    && on.best.schedule = off.best.schedule
  in
  Printf.printf
    "A/B %s (%d iterations): identical best %b; incremental run: %d/%d \
     bounds via delta, cut reuse %.0f%%, %d sched fallback(s), %.0f%% nodes \
     re-placed\n"
    ab_name on.stats.iterations identical on.stats.n_lv_delta
    on.stats.n_bound_calls
    (100.0 *. Search.cut_reuse_rate on.stats)
    on.stats.n_sched_fallback
    (100.0 *. Search.resched_frac on.stats);
  if not identical then
    failwith "incremental on/off diverged: the delta path is not invisible";
  let cheap =
    if env.no_cheap_tier then None
    else begin
      let r = search_one env lm ~incremental:true ~cheap_tier:true in
      Printf.printf
        "cheap tier: %d list-scheduled, %d promoted to exact, best %.1f MB\n"
        r.stats.n_cheap_sched r.stats.n_promoted
        (float_of_int r.best.peak_mem /. 1e6);
      Some r
    end
  in
  let micro_fields =
    List.concat_map
      (fun m ->
        let p = "micro_" ^ m.m_name ^ "_" in
        [
          (p ^ "rewrites", Json.Int m.m_rewrites);
          (p ^ "delta", Json.Int m.m_delta);
          (p ^ "bail", Json.Int m.m_bail);
          (* timing keys: reported, not gated *)
          (p ^ "t_scratch_us", Json.Float m.m_scratch_us);
          (p ^ "t_incr_us", Json.Float m.m_incr_us);
        ])
      micros
  in
  Common.write_stats_json env
    (micro_fields
    @ [
        ("speedup_overall", Json.Float speedup);
        ("ab_identical", Json.Bool identical);
        ("ab_iterations", Json.Int on.stats.iterations);
        ("ab_best_peak", Json.Int on.best.peak_mem);
        ("ab_n_bound_calls", Json.Int on.stats.n_bound_calls);
        ("ab_n_lv_delta", Json.Int on.stats.n_lv_delta);
        ("ab_n_cut_reused", Json.Int on.stats.n_cut_reused);
        ("ab_n_cut_recomputed", Json.Int on.stats.n_cut_recomputed);
        ("ab_n_sched_fallback", Json.Int on.stats.n_sched_fallback);
        ("ab_n_resched_nodes", Json.Int on.stats.n_resched_nodes);
        ("ab_n_sched_nodes", Json.Int on.stats.n_sched_nodes);
        ("ab_off_n_lv_delta", Json.Int off.stats.n_lv_delta);
        ("ab_off_n_bound_calls", Json.Int off.stats.n_bound_calls);
      ]
    @
    match cheap with
    | None -> []
    | Some r ->
        [
          ("cheap_n_sched", Json.Int r.stats.n_cheap_sched);
          ("cheap_n_promoted", Json.Int r.stats.n_promoted);
          ("cheap_best_peak", Json.Int r.best.peak_mem);
        ])
