open Magis
open Helpers

let subject () =
  Transformer.build_lm
    { Transformer.batch = 8; seq_len = 32; hidden = 64; heads = 4;
      layers = 2; vocab = 128; dtype = Shape.F32 }

(* verify_states: every M-state the search accepts is run through the
   IR verifier and schedule checker (cheap at test scale) *)
let config budget =
  { Search.default_config with
    time_budget = budget; max_iterations = 200; verify_states = true }

let test_memory_mode_respects_constraint () =
  let c = cache () in
  let g = subject () in
  let base = Simulator.run c g (Graph.program_order g) in
  let r = Search.optimize_memory ~config:(config 2.0) c ~overhead:0.10 g in
  Alcotest.(check bool) "peak reduced" true (r.best.peak_mem < base.peak_mem);
  Alcotest.(check bool) "latency within 10%" true
    (r.best.latency <= base.latency *. 1.10 *. 1.0001);
  Alcotest.(check bool) "schedule valid" true
    (Graph.is_valid_order r.best.graph r.best.schedule)

let test_latency_mode_respects_constraint () =
  let c = cache () in
  let g = subject () in
  let base = Simulator.run c g (Graph.program_order g) in
  (* state verification roughly halves search throughput; give this
     constraint-tightest test a correspondingly larger budget (the
     iteration cap, not the wall clock, bounds it on fast machines) *)
  let r = Search.optimize_latency ~config:(config 16.0) c ~mem_ratio:0.7 g in
  let limit = int_of_float (float_of_int base.peak_mem *. 0.7) in
  Alcotest.(check bool) "memory within 70%" true (r.best.peak_mem <= limit);
  Alcotest.(check bool) "schedule valid" true
    (Graph.is_valid_order r.best.graph r.best.schedule)

let test_better_than_ordering () =
  let mk peak lat : Mstate.t =
    { graph = Graph.empty; ftree = Ftree.empty; schedule = [];
      peak_mem = peak; latency = lat; hotspots = Util.Int_set.empty;
      ftree_stale = false }
  in
  let mode = Search.Min_latency { mem_limit = 100 } in
  (* both under the limit: latency decides *)
  Alcotest.(check bool) "latency decides under limit" true
    (Search.better_than mode (mk 80 1.0) (mk 90 2.0));
  (* over the limit: memory decides *)
  Alcotest.(check bool) "memory decides over limit" true
    (Search.better_than mode (mk 150 5.0) (mk 200 1.0));
  (* under beats over *)
  Alcotest.(check bool) "under beats over" true
    (Search.better_than mode (mk 100 9.0) (mk 101 1.0))

let test_history_monotone () =
  let c = cache () in
  let g = subject () in
  let r = Search.optimize_memory ~config:(config 2.0) c ~overhead:0.10 g in
  (* the recorded history of bests never regresses in the objective *)
  let rec check = function
    | (_, p1, _) :: ((_, p2, _) :: _ as rest) ->
        Alcotest.(check bool) "peak non-increasing" true (p2 <= p1);
        check rest
    | _ -> ()
  in
  check r.history;
  Alcotest.(check bool) "history non-empty" true (r.history <> [])

let test_stats_populated () =
  let c = cache () in
  let g = subject () in
  let r = Search.optimize_memory ~config:(config 1.0) c ~overhead:0.10 g in
  let st = r.stats in
  Alcotest.(check bool) "iterations > 0" true (st.iterations > 0);
  Alcotest.(check bool) "transforms counted" true (st.n_transform > 0);
  Alcotest.(check bool) "schedules counted" true (st.n_sched > 0);
  Alcotest.(check bool) "simulations counted" true (st.n_simul > 0);
  Alcotest.(check bool) "hashes counted" true (st.n_hash > 0)

let test_ablation_settings_run () =
  let c = cache () in
  let g = subject () in
  List.iter
    (fun ablation ->
      let config = { (config 0.6) with ablation } in
      let r = Search.optimize_memory ~config c ~overhead:0.10 g in
      Alcotest.(check bool) "valid best schedule" true
        (Graph.is_valid_order r.best.graph r.best.schedule))
    [
      { Search.default_ablation with use_ftree_heuristic = false };
      { Search.default_ablation with restrict_sched_rules = false };
      { Search.default_ablation with max_level = 2 };
      { Search.default_ablation with max_level = 8 };
    ]

let test_deterministic () =
  let c = cache () in
  let g = subject () in
  let cfg = { (config 1e9) with max_iterations = 25 } in
  let r1 = Search.optimize_memory ~config:cfg c ~overhead:0.10 g in
  let r2 = Search.optimize_memory ~config:cfg c ~overhead:0.10 g in
  Alcotest.(check int) "same peak with iteration-bounded budget"
    r1.best.peak_mem r2.best.peak_mem

let test_latency_history_improves () =
  let c = cache () in
  let g = subject () in
  let base = Simulator.run c g (Graph.program_order g) in
  let r = Search.optimize_latency ~config:(config 2.0) c ~mem_ratio:0.8 g in
  let limit = int_of_float (float_of_int base.peak_mem *. 0.8) in
  (* once the budget is met, recorded bests have non-increasing latency *)
  let feasible =
    List.filter (fun (_, p, _) -> p <= limit) r.history
  in
  let rec check = function
    | (_, _, l1) :: ((_, _, l2) :: _ as rest) ->
        Alcotest.(check bool) "latency non-increasing" true (l2 <= l1 +. 1e-12);
        check rest
    | _ -> ()
  in
  check feasible

(* ------------------------------------------------------------------ *)
(* Trajectory pin                                                      *)
(* ------------------------------------------------------------------ *)

(** A fixed-iteration latency-mode search, recorded bit for bit: any
    change to hashing, cost lookup, scheduling or simulation that moves
    the trajectory shows up here.  [counts] are the [Search.stats] work
    counters in the order of {!pin_counts}; [n_hash] is left out, as it
    counts only real graph hashes and so depends on how much hashing is
    shared, not on the trajectory. *)
type pin = {
  model : string;
  peak : int;
  latency_bits : int64;
  digest : string;  (** MD5 of the best schedule, comma-separated ids *)
  history : (int * int64) list;  (** (peak, latency bits) per improvement *)
  counts : int list;
}

let pin_counts (s : Search.stats) =
  [ s.iterations; s.n_transform; s.n_sched; s.n_simul; s.n_filtered;
    s.n_sim_hit; s.n_sim_miss; s.n_bound_calls; s.n_pruned_lb; s.n_lv_delta;
    s.n_cut_reused; s.n_cut_recomputed; s.n_sched_fallback;
    s.n_resched_nodes; s.n_sched_nodes; s.n_cheap_sched; s.n_promoted ]

(* Quick models, latency mode at 0.6x the naive peak, 40 iterations *)
let pins =
  [
    {
      model = "UNet";
      peak = 70612420;
      latency_bits = 4570557244368514523L;
      digest = "cdd77054e260779eff8f7826a92586b1";
      history =
        [
          (123041216, 4567185208057299259L);
          (121992644, 4567316554580587414L);
          (114652608, 4567185208057299259L);
          (113604036, 4567185208057299259L);
          (113604036, 4567129906367630440L);
          (106264000, 4573320015657538747L);
          (105215428, 4573361521156887582L);
          (105215428, 4573218808544609901L);
          (95806148, 4575697544352595972L);
          (95787716, 4576102958174488521L);
          (66427652, 4576244772144228570L);
          (66436868, 4575592379009703299L);
          (71660864, 4574383453190088670L);
          (71660864, 4573612817157780184L);
          (71660864, 4573036005092807278L);
          (63272256, 4573008354247972869L);
          (67466692, 4572980703403138459L);
          (71660996, 4572386157045147586L);
          (71660996, 4572348173501000231L);
          (71660996, 4571177231225532958L);
          (71660996, 4571124873581717768L);
          (70612420, 4570557244368514523L);
        ];
      counts = [ 40; 949; 822; 822; 81; 0; 822; 868; 46; 153; 650; 574; 0; 46770; 119135; 0; 0 ];
    };
    {
      model = "BERT-base";
      peak = 345051140;
      latency_bits = 4581733148810027148L;
      digest = "f5df65111812bf38e48660a9393156fd";
      history =
        [
          (631315456, 4580824949607132681L);
          (618732544, 4580935927111453868L);
          (580980736, 4580824949607132681L);
          (580980736, 4580791407120766408L);
          (575740932, 4580902384625087595L);
          (568400896, 4580798958736913523L);
          (555817984, 4580909936241234710L);
          (550578180, 4582220385887491425L);
          (550578180, 4580765416250547250L);
          (436280320, 4581161606790388495L);
          (420551680, 4581383561799030871L);
          (414260224, 4581475985662761408L);
          (402741252, 4582027667000812817L);
          (392237060, 4581444272516992999L);
          (332468228, 4582391523632585339L);
          (332468228, 4581947613615300589L);
          (345051140, 4581940061999153474L);
          (357634052, 4581907350068323587L);
          (332468228, 4581889866947668969L);
          (345051140, 4581882315331521854L);
          (345051140, 4581733148810027148L);
        ];
      counts = [ 40; 1055; 714; 714; 106; 0; 714; 949; 235; 271; 1045; 1123; 0; 63852; 123529; 0; 0 ];
    };
  ]

let test_trajectory_pin () =
  List.iter
    (fun p ->
      let g = (Zoo.find p.model).build Zoo.Quick in
      List.iter
        (fun jobs ->
          let config =
            { Search.default_config with
              max_iterations = 40; time_budget = infinity; jobs }
          in
          let r = Search.optimize_latency ~config (cache ()) ~mem_ratio:0.6 g in
          let what = Printf.sprintf "%s jobs=%d" p.model jobs in
          let b = r.best in
          Alcotest.(check int) (what ^ ": best peak") p.peak b.peak_mem;
          Alcotest.(check int64) (what ^ ": latency bits") p.latency_bits
            (Int64.bits_of_float b.latency);
          Alcotest.(check string) (what ^ ": schedule digest") p.digest
            (Digest.to_hex
               (Digest.string
                  (String.concat "," (List.map string_of_int b.schedule))));
          Alcotest.(check (list (pair int int64))) (what ^ ": history")
            p.history
            (List.map (fun (_, pk, l) -> (pk, Int64.bits_of_float l)) r.history);
          Alcotest.(check (list int)) (what ^ ": stats counts") p.counts
            (pin_counts r.stats))
        [ 1; 2 ])
    pins

let suite =
  [
    tc "memory mode respects constraint" test_memory_mode_respects_constraint;
    tc "latency-mode history improves" test_latency_history_improves;
    tc "latency mode respects constraint" test_latency_mode_respects_constraint;
    tc "BetterThan ordering" test_better_than_ordering;
    tc "history monotone" test_history_monotone;
    tc "stats populated" test_stats_populated;
    tc "ablation settings run" test_ablation_settings_run;
    tc "deterministic under iteration budget" test_deterministic;
    tc "trajectory pinned at 40 iterations" test_trajectory_pin;
  ]
