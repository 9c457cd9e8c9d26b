(** The traced run ([--trace 1]): the workload once untraced and once
    traced (the benchmark's spans plus the program's own {!Trace}
    spans), then the per-layer measurements.  [trace.overhead_frac]
    compares the workload's main number between the two. *)

open Magis

(** States replayed per search; the same on every commit whose search
    follows the same trajectory. *)
let sample = 12

let files workload seed =
  let base = Filename.concat "perfbench" (Filename.concat "results" (Printf.sprintf "%s-seed%d" workload seed)) in
  (base ^ "-spans.json", base ^ "-trace.json")

let traced f =
  Trace.enable ~capacity:(1 lsl 18) ();
  Fun.protect ~finally:Trace.disable f

let write_traces ~workload ~seed (report : Report.t) =
  Report.metric report "gc.top_heap_mb" (Measure.peak_heap_mb ());
  let spans, trace = files workload seed in
  Out_channel.with_open_bin spans (fun oc -> output_string oc (Json.to_string (Span.to_json ())));
  Out_channel.with_open_bin trace (fun oc -> output_string oc (Trace.to_chrome ()));
  List.iter
    (fun (name, n, total, self) ->
      Report.note report ("span " ^ name)
        (Printf.sprintf "%d calls, %.3f s total, %.3f s self" n total self))
    (Span.self_times ());
  Report.note report "spans" spans;
  Report.note report "program trace" trace

let overhead (report : Report.t) ~untraced ~traced =
  Report.metric report "trace.overhead_frac" ((traced /. untraced) -. 1.0)

let search_runs (w : Searches.workload) outs =
  List.map
    (fun (o : Searches.outcome) ->
      { Layers.result = o.result; wall = o.wall; jobs = w.jobs; op_cost = o.op_cost })
    outs

let searches (report : Report.t) ~workload ~seed (w : Searches.workload) =
  let preps, _ = Searches.setup w in
  let wall outs = Measure.sum (List.map (fun (o : Searches.outcome) -> o.wall) outs) in
  let plain = Searches.pass report w preps in
  Span.enable ();
  let outs = traced (fun () -> Searches.pass ~sample report w preps) in
  let sig_ = Searches.pass_signature w outs in
  Report.check report ~what:"determinism with tracing on"
    (if sig_ = Searches.pass_signature w plain then [] else [ "the traced searches diverged" ]);
  overhead report ~untraced:(wall plain) ~traced:(wall outs);
  Layers.from_searches report (search_runs w outs);
  Layers.replay report ~hw:Searches.hw ~sched_states:Search.default_config.sched_states
    (List.concat_map (fun (o : Searches.outcome) -> o.sampled) outs);
  Layers.models_and_baselines report
    (List.map (fun (m : Searches.model) -> (m.name, Zoo.Quick)) w.models);
  let dir = Service.fresh_dir () in
  Fun.protect ~finally:(fun () -> Service.rm_rf dir) (fun () ->
      let keys =
        List.map
          (fun (m : Searches.model) -> { Service.model = m.name; scale = Zoo.Quick; hw = "rtx3090"; cap = 8 })
          w.models
      in
      let refs = Layers.frontiers report ~dir keys in
      Layers.hit_probe report ~dir ~rounds:40 refs);
  Span.disable ();
  write_traces ~workload ~seed report

(* The traced service session against references built outside the
   daemon, then the per-layer measurements. *)
let service_layers (report : Report.t) ~workload ~seed ~plain:(plain, plain_reach)
    (st, reach) =
  let p50 (st : Service.stream) = Measure.median (List.map snd st.hits) in
  let sig_ = Service.signature st reach in
  Report.check report ~what:"determinism with tracing on"
    (if sig_ = Service.signature plain plain_reach then [] else [ "the traced answers differ" ]);
  overhead report ~untraced:(p50 plain) ~traced:(p50 st);
  let dir = Service.fresh_dir () in
  Fun.protect ~finally:(fun () -> Service.rm_rf dir) (fun () ->
      let refs = Layers.frontiers report ~dir (Array.to_list Service.keys) in
      Layers.check_answers report refs st;
      (* the small keys' builds, searched again with a sampling hook;
         the large key's states would dominate the replay time *)
      let samples =
        List.concat_map
          (fun (r : Layers.reference) ->
            let offer, sampled = Searches.reservoir ~size:sample ~seed:r.key.cap in
            let config =
              { (Service.frontier_config r.key) with
                harvest = Some (fun ~iteration:_ s -> offer s) }
            in
            let g = (Zoo.find r.key.model).build r.key.scale in
            let again =
              Span.with_ ~id:(Service.key_name r.key) "sample-search" @@ fun () ->
              Search.run ~config (Op_cost.create (Hardware.find r.key.hw)) Service.frontier_mode g
            in
            Report.check report ~what:(Service.key_name r.key ^ " sample search")
              (if again.best.schedule = r.run.result.best.schedule then []
               else [ "the sampling search diverged from the frontier build" ]);
            sampled ())
          (List.filter (fun (r : Layers.reference) -> r.key <> Service.large_key) refs)
      in
      Layers.from_searches report (List.map (fun (r : Layers.reference) -> r.run) refs);
      Layers.replay report ~hw:(Hardware.find "rtx3090") ~sched_states:0 samples;
      Layers.hit_costs report refs st);
  Layers.models_and_baselines report
    (List.sort_uniq compare
       (Array.to_list (Array.map (fun (k : Service.key) -> (k.model, k.scale)) Service.keys)));
  Span.disable ();
  write_traces ~workload ~seed report

let service (report : Report.t) ~workload ~seed ~seconds =
  let part = seconds /. 3.0 in
  let plain, plain_reach, _ = Service.session report ~seed:[| seed |] ~seconds:part in
  Span.enable ();
  let st, reach, _ = traced (fun () -> Service.session report ~seed:[| seed |] ~seconds:part) in
  if plain.broken || st.broken then begin
    Span.disable ();
    Report.note report "metrics" "none: a service session failed"
  end
  else service_layers report ~workload ~seed ~plain:(plain, plain_reach) (st, reach)
