(** The benchmark's own tests ([main.exe --selftest], a few seconds):
    BENCHMARK.json declares valid metrics, the output checks catch a
    corrupted best state and corrupted service answers, and a service
    stream whose queries fail still ends, with the failures counted. *)

open Magis

let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

(* Loading the contract validates every metric name and unit. *)
let benchmark_json () =
  match Spec.end_to_end () @ Spec.per_layer () with
  | exception Failure msg -> expect msg false
  | all ->
      expect "BENCHMARK.json: every metric name uses only [A-Za-z0-9_.-] and has a unit"
        (List.for_all (fun (m : Spec.metric) -> Spec.valid_name m.name && m.unit_ <> "") all);
      expect "BENCHMARK.json: setup_s is an end-to-end metric in seconds, lower is better"
        (List.exists
           (fun (m : Spec.metric) -> m.name = "setup_s" && m.unit_ = "s" && m.better = "lower")
           (Spec.end_to_end ()))

let corrupted_best_state () =
  let g = Zoo.unet.build Zoo.Quick in
  let hw = Hardware.default in
  let base = Simulator.run (Op_cost.create hw) g (Graph.topo_order g) in
  let limit = Check.Lat (base.latency *. 1.1) in
  let config = { Search.default_config with max_iterations = 4; time_budget = infinity } in
  let best = (Search.optimize_memory ~config (Op_cost.create hw) ~overhead:0.1 g).best in
  let caught what s = expect ("corrupted best state caught: " ^ what) (Check.best_state ~hw ~limit s <> []) in
  expect "the real best state passes" (Check.best_state ~hw ~limit best = []);
  caught "peak off by one byte" { best with peak_mem = best.peak_mem + 1 };
  caught "latency off by one ulp" { best with latency = Float.succ best.latency };
  caught "schedule reversed" { best with schedule = List.rev best.schedule };
  caught "over the latency limit" { best with latency = base.latency *. 2.0 }

let corrupted_answers () =
  let config = { Search.default_config with max_iterations = 4; sched_states = 0 } in
  let fr, _ =
    Frontier_build.build ~config (Op_cost.create Hardware.default)
      (Search.Min_memory { lat_limit = infinity })
      (Zoo.unet.build Zoo.Quick)
  in
  let answer ratio =
    let budget = Frontier_build.budget_of_ratio fr ~ratio in
    match Frontier_build.query_ratio fr ~ratio with
    | Some (p : Frontier.point) ->
        { Check.feasible = true; budget; peak = p.peak; latency = p.latency;
          points = Frontier.size fr }
    | None -> { Check.feasible = false; budget; peak = 0; latency = 0.0; points = Frontier.size fr }
  in
  let ladder = Array.to_list (Array.map (fun r -> (r, answer r)) Service.ladder) in
  expect "real answers pass"
    (List.for_all (fun (r, a) -> Check.answer a = [] && Check.against_frontier fr ~ratio:r a = []) ladder
    && Check.ladder ladder = []);
  let r, (a : Check.answer) = List.nth ladder 5 in
  expect "corrupted answer caught: latency changed"
    (Check.against_frontier fr ~ratio:r { a with latency = a.latency *. 0.5 } <> []);
  expect "corrupted answer caught: peak over budget"
    (Check.answer { a with feasible = true; peak = a.budget + 1 } <> []);
  expect "corrupted answer caught: hit differs from the miss"
    (Check.same ~what:"hit" a { a with peak = a.peak - 1 } <> []);
  let slower (r', (b : Check.answer)) = if r' = 1.0 then (r', { b with latency = b.latency *. 10.0; feasible = true }) else (r', b) in
  expect "corrupted answer caught: not monotone in the budget"
    (Check.ladder (List.map slower ladder) <> [])

(* A daemon that answers errors, and one that has died: the stream must
   end on its own, with the failures counted. *)
let failing_streams () =
  let bad_key = { Service.model = "no-such-model"; scale = Zoo.Quick; hw = "rtx3090"; cap = 2 } in
  let good_key = { bad_key with model = "UNet" } in
  let try_stream what ~kill keys =
    let dir = Service.fresh_dir () in
    let d = Service.start ~dir in
    let report = Report.create () in
    let st, dt =
      Fun.protect
        ~finally:(fun () -> if not kill then Service.stop d; Service.rm_rf dir)
        (fun () ->
          if kill then begin
            Serve_server.stop d.server;
            Domain.join d.domain
          end;
          Measure.timed (fun () -> Service.stream ~keys report d ~seed:[| 1 |] ~seconds:0.5))
    in
    if kill then Serve_client.close d.client;
    expect (what ^ ": the stream ends and counts the failure")
      (st.Service.broken && report.failed > 0 && dt < 5.0)
  in
  try_stream "error replies" ~kill:false [| good_key; bad_key |];
  try_stream "daemon gone" ~kill:true [| good_key |]

let run () =
  benchmark_json ();
  corrupted_best_state ();
  corrupted_answers ();
  failing_streams ();
  Printf.printf "%s\n" (if !failures = 0 then "selftest passed" else "selftest FAILED");
  exit (if !failures = 0 then 0 else 1)
