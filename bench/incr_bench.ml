(** Per-candidate evaluation (the [incr] experiment): what the windowed
    reschedule saves over a full one, next to the bound probe that runs
    before both, and proof that bound pruning is trajectory-invisible.

    Part 1 — microbenchmark.  For every rewrite of the two smallest
    Table-2 workloads, a seeded Randnet and a small LM, time the
    per-candidate pipeline both ways:

    - scratch: the sampled {!Membound.lower_bound} probe + a full
      {!Reorder.schedule} of the child graph;
    - incremental: the same probe + a windowed {!Incremental.reschedule}
      against the parent schedule (what the search runs).

    Every spliced schedule is checked for legality while timing is off.

    Part 2 — in-search A/B.  The same iteration-capped latency-mode
    search with [config.prune_bounds] on and off must return
    bit-identical best states (the bound is admissible, so only
    counters may differ).

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

type micro = {
  m_name : string;
  m_rewrites : int;
  m_probe_us : float;  (** mean bound probe, µs/candidate *)
  m_scratch_us : float;  (** probe + full schedule, µs/candidate *)
  m_incr_us : float;  (** probe + windowed reschedule, µs/candidate *)
}

let micro_one name g =
  let parent =
    Incremental.parent g (Reorder.schedule ~size_of:(Lifetime.default_size g) g)
  in
  let all_rws = rewrites g in
  let windowed (rw : Rule.rewrite) =
    fst
      (Incremental.reschedule ~parent ~new_graph:rw.graph
         ~mutated_old:rw.touched_old
         ~size_of:(Lifetime.default_size rw.graph) ())
  in
  (* correctness first, untimed: every spliced schedule must be legal *)
  List.iter
    (fun (rw : Rule.rewrite) ->
      if not (Graph.is_valid_order rw.graph (windowed rw)) then
        failwith (name ^ ": incremental reschedule produced illegal order"))
    all_rws;
  (* timed over a deterministic subset (a full DP schedule costs seconds
     per candidate on the zoo models — timing every rewrite would blow
     the CI budget; correctness above still covers them all) *)
  let rws = Util.take 10 all_rws in
  let reps = 2 in
  let time f =
    let t0 = now () in
    for _ = 1 to reps do
      List.iter (fun rw -> ignore (Sys.opaque_identity (f rw))) rws
    done;
    (now () -. t0) /. float_of_int (reps * max 1 (List.length rws)) *. 1e6
  in
  let probe_us =
    time (fun (rw : Rule.rewrite) ->
        Membound.lower_bound ~size_of:(Lifetime.default_size rw.graph)
          ~sample:8 rw.graph)
  in
  let full_us =
    time (fun (rw : Rule.rewrite) ->
        Reorder.schedule ~size_of:(Lifetime.default_size rw.graph) rw.graph)
  in
  let windowed_us = time windowed in
  {
    m_name = name;
    m_rewrites = List.length all_rws;
    m_probe_us = probe_us;
    m_scratch_us = probe_us +. full_us;
    m_incr_us = probe_us +. windowed_us;
  }

(* ------------------------------------------------------------------ *)
(* Part 2: in-search A/B                                               *)
(* ------------------------------------------------------------------ *)

(** Latency mode: its δ-admission prunes on the memory bound, the probe
    timed above. *)
let search_one (env : Common.env) g ~prune_bounds =
  let config =
    { (Common.search_config env) with
      sim_cache = Some (Sim_cache.create ());
      time_budget = 1e9;
      max_iterations = min env.iters 30;
      prune_bounds }
  in
  Search.optimize_latency ~config env.cache ~mem_ratio:0.7 g

let run (env : Common.env) =
  Common.hr "Per-candidate evaluation: bound probe + windowed reschedule";
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
  Printf.printf "%-10s %6s %10s %12s %12s %9s\n" "Model" "Rw" "Probe µs"
    "Scratch µs" "Incr µs" "Speedup";
  List.iter
    (fun m ->
      Printf.printf "%-10s %6d %10.1f %12.1f %12.1f %8.2fx\n" m.m_name
        m.m_rewrites m.m_probe_us m.m_scratch_us m.m_incr_us
        (m.m_scratch_us /. m.m_incr_us))
    micros;
  let tot_scratch = List.fold_left (fun a m -> a +. m.m_scratch_us) 0. micros in
  let tot_incr = List.fold_left (fun a m -> a +. m.m_incr_us) 0. micros in
  let speedup = tot_scratch /. tot_incr in
  Printf.printf "overall per-candidate evaluation speedup: %.2fx\n" speedup;
  (* in-search A/B on the LM benchmark, latency mode *)
  let on = search_one env lm ~prune_bounds:true in
  let off = search_one env lm ~prune_bounds:false in
  let identical =
    on.Search.best.peak_mem = off.Search.best.peak_mem
    && on.best.latency = off.best.latency
    && on.best.schedule = off.best.schedule
  in
  Printf.printf
    "A/B lm (%d iterations): identical best %b; pruning run: %d/%d probes \
     pruned, %d sched fallback(s), %.0f%% nodes re-placed\n"
    on.stats.iterations identical on.stats.n_pruned_lb on.stats.n_bound_calls
    on.stats.n_sched_fallback
    (100.0 *. Search.resched_frac on.stats);
  if not identical then
    failwith "pruning on/off diverged: the bound probe is not admissible";
  let micro_fields =
    List.concat_map
      (fun m ->
        let p = "micro_" ^ m.m_name ^ "_" in
        [
          (p ^ "rewrites", Json.Int m.m_rewrites);
          (* timing keys: reported, not gated *)
          (p ^ "t_probe_us", Json.Float m.m_probe_us);
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
        ("ab_n_sched_fallback", Json.Int on.stats.n_sched_fallback);
        ("ab_n_resched_nodes", Json.Int on.stats.n_resched_nodes);
        ("ab_n_sched_nodes", Json.Int on.stats.n_sched_nodes);
      ])
