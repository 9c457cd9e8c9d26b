(** Incremental search core: the O(Δ) structures must be invisible.

    Property tests asserting (1) {!Liveness.delta_update} ≡ a scratch
    {!Liveness.compute} and {!Membound.probe_update} ≡ a scratch
    {!Membound.probe_create} across seeded rewrite sequences on three
    Randnets and the two smallest zoo models; (2) the delta-encoded
    {!Sim_cache} round-trips schedules bit-identically; (3) a search
    with [config.incremental] on or off finds bit-identical best
    states; (4) the cheap tier only ever surfaces exactly-evaluated,
    legal best states; (5) {!Listsched} emits valid, deterministic
    orders; (6) {!Incremental.reschedule} reports fallbacks without
    discarding the attempted window. *)

open Magis
open Helpers

(* ------------------------------------------------------------------ *)
(* delta_update / probe_update vs. scratch                             *)
(* ------------------------------------------------------------------ *)

let rule_ctx g =
  let hot =
    Util.Int_set.of_list
      (List.filteri (fun i _ -> i mod 3 = 0) (Graph.topo_order g))
  in
  {
    Rule.hotspots = hot;
    frozen = Util.Int_set.empty;
    schedule_pos = (fun _ -> None);
    max_per_rule = 3;
    restrict_to_hotspots = false;
  }

(** All rewrites of [g] under the full rule set, a few per rule. *)
let rewrites g =
  let ctx = rule_ctx g in
  List.concat_map
    (fun (r : Rule.t) -> r.apply ctx g)
    (Sched_rules.all @ Taso_rules.all)

(** Check one delta step against the scratch oracle; returns the
    updated analysis so sequences can chain delta-on-delta (slot holes,
    slot reuse, capacity growth). *)
let check_delta what lv probe (rw : Rule.rewrite) =
  match Liveness.delta_update lv rw.graph ~mutated:rw.touched_old with
  | None -> Alcotest.failf "%s: delta_update bailed without max_dirty" what
  | Some (lv', delta) ->
      let scratch = Liveness.compute rw.graph in
      Alcotest.(check bool)
        (what ^ ": delta ≡ scratch liveness")
        true
        (Liveness.equivalent lv' scratch);
      let probe' = Membound.probe_update probe lv' ~delta in
      Alcotest.(check int)
        (what ^ ": probe_update ≡ probe_create")
        (Membound.probe_lower (Membound.probe_create ~sample:8 scratch))
        (Membound.probe_lower probe');
      (lv', probe')

let check_model what g =
  let lv0 = Liveness.compute g in
  let probe0 = Membound.probe_create ~sample:8 lv0 in
  let n_checked = ref 0 in
  (* level 1: every rewrite of the root, each checked against scratch *)
  let level1 = rewrites g in
  List.iter
    (fun rw ->
      incr n_checked;
      ignore (check_delta what lv0 probe0 rw))
    level1;
  (* level 2 and 3: follow one seeded trajectory, chaining the delta
     result forward so later updates run against a delta-built parent *)
  let pick seed l = List.nth l (seed mod List.length l) in
  let rec descend depth seed g lv probe =
    if depth > 0 then
      match rewrites g with
      | [] -> ()
      | l ->
          let rw : Rule.rewrite = pick seed l in
          incr n_checked;
          let lv', probe' = check_delta what lv probe rw in
          descend (depth - 1) ((seed * 7) + 3) rw.graph lv' probe'
  in
  descend 2 1 g lv0 probe0;
  descend 2 5 g lv0 probe0;
  Alcotest.(check bool) (what ^ ": exercised") true (!n_checked > 10)

let test_delta_randnets () =
  List.iter
    (fun seed ->
      let g =
        Randnet.build ~cfg:{ Randnet.default with seed } ()
      in
      check_model (Printf.sprintf "randnet-%d" seed) g)
    [ 1; 2; 3 ]

let test_delta_zoo () =
  List.iter
    (fun name ->
      let w = Zoo.find name in
      check_model w.name (w.build Zoo.Quick))
    Zoo.smoke_pair

(** The [max_dirty] cap returns [None] rather than a wrong analysis,
    and a cap of [max_int] never bails. *)
let test_delta_max_dirty () =
  let g = lm_small () in
  let lv = Liveness.compute g in
  List.iter
    (fun (rw : Rule.rewrite) ->
      (match Liveness.delta_update ~max_dirty:0 lv rw.graph
               ~mutated:rw.touched_old
       with
      | None -> ()
      | Some _ ->
          (* only possible when the rewrite dirtied nothing at all *)
          ());
      match Liveness.delta_update lv rw.graph ~mutated:rw.touched_old with
      | None -> Alcotest.fail "uncapped delta_update bailed"
      | Some (lv', _) ->
          Alcotest.(check bool) "capped≡uncapped when both succeed" true
            (Liveness.equivalent lv' (Liveness.compute rw.graph)))
    (rewrites g)

(* ------------------------------------------------------------------ *)
(* Sim_cache delta round-trip                                          *)
(* ------------------------------------------------------------------ *)

(** Seeded schedule-like int lists sharing prefixes/suffixes with a
    parent, plus adversarial cases (empty, disjoint, identical). *)
let test_sim_cache_roundtrip () =
  let cache = Sim_cache.create () in
  let rng = Random.State.make [| 42 |] in
  let value sched =
    {
      Sim_cache.schedule = sched;
      peak_mem = List.fold_left ( + ) 0 sched;
      latency = float_of_int (List.length sched);
      hotspots = List.filter (fun v -> v mod 3 = 0) sched;
    }
  in
  let cases = ref [] in
  let add_case ?parent key sched =
    Sim_cache.add ?parent cache key (value sched);
    cases := (key, sched) :: !cases
  in
  let parent = List.init 40 (fun i -> i) in
  add_case 1L parent;
  (* middle rewritten, ends shared *)
  add_case ~parent 2L (List.init 40 (fun i -> if i >= 10 && i < 14 then 100 + i else i));
  (* insertion (longer than parent) and deletion (shorter) *)
  add_case ~parent 3L (List.init 43 (fun i -> if i >= 20 && i < 23 then 200 + i else if i >= 23 then i - 3 else i));
  add_case ~parent 4L (List.init 37 (fun i -> if i < 18 then i else i + 3));
  (* disjoint, identical, empty, singleton *)
  add_case ~parent 5L (List.init 40 (fun i -> 1000 + i));
  add_case ~parent 6L parent;
  add_case ~parent 7L [];
  add_case ~parent 8L [ 7 ];
  (* random windows against random parents *)
  for k = 0 to 19 do
    let n = 10 + Random.State.int rng 50 in
    let p = List.init n (fun _ -> Random.State.int rng 500) in
    let lo = Random.State.int rng n in
    let hi = lo + Random.State.int rng (n - lo) in
    let child =
      List.mapi (fun i v -> if i >= lo && i < hi then v + 1000 else v) p
    in
    add_case ~parent:p (Int64.of_int (100 + (2 * k))) p;
    add_case ~parent:p (Int64.of_int (101 + (2 * k))) child
  done;
  List.iter
    (fun (key, sched) ->
      match Sim_cache.find cache key with
      | None -> Alcotest.failf "entry %Ld lost" key
      | Some v ->
          Alcotest.(check (list int))
            (Printf.sprintf "entry %Ld round-trips bit-identically" key)
            sched v.Sim_cache.schedule;
          Alcotest.(check int) "peak survives" (List.fold_left ( + ) 0 sched)
            v.Sim_cache.peak_mem)
    !cases;
  let fulls, deltas = Sim_cache.delta_stats cache in
  Alcotest.(check bool) "some entries stored as deltas" true (deltas > 0);
  Alcotest.(check bool) "some entries stored in full" true (fulls > 0);
  Alcotest.(check bool) "resident footprint accounted" true
    (Sim_cache.resident_ints cache > 0)

(* ------------------------------------------------------------------ *)
(* Search A/B: incremental on/off is invisible                         *)
(* ------------------------------------------------------------------ *)

let ab_config incremental =
  {
    Search.default_config with
    time_budget = 1e9;
    max_iterations = 20;
    verify_states = true;
    incremental;
  }

let check_incremental_invisible what ~mode_fn g =
  let r_on = mode_fn ~config:(ab_config true) g in
  let r_off = mode_fn ~config:(ab_config false) g in
  Alcotest.(check int) (what ^ ": identical peak") r_off.Search.best.peak_mem
    r_on.Search.best.peak_mem;
  Alcotest.(check (float 0.0)) (what ^ ": identical latency")
    r_off.best.latency r_on.best.latency;
  Alcotest.(check (list int)) (what ^ ": identical schedule")
    r_off.best.schedule r_on.best.schedule;
  Alcotest.(check bool) (what ^ ": structurally identical") true
    (Wl_hash.equal_structure r_off.best.graph r_on.best.graph);
  Alcotest.(check int) (what ^ ": off-run never deltas") 0
    r_off.stats.n_lv_delta;
  r_on

let test_incremental_invisible () =
  let c = cache () in
  let g =
    Randnet.build ~cfg:{ Randnet.default with cells = 1; nodes_per_cell = 4; seed = 1 } ()
  in
  ignore
    (check_incremental_invisible "randnet min-mem"
       ~mode_fn:(fun ~config g ->
         Search.optimize_memory ~config c ~overhead:0.10 g)
       g);
  let r =
    check_incremental_invisible "lm min-lat"
      ~mode_fn:(fun ~config g ->
        Search.optimize_latency ~config c ~mem_ratio:0.7 g)
      (lm_small ())
  in
  Alcotest.(check bool) "incremental path exercised" true
    (r.stats.n_lv_delta > 0)

(* ------------------------------------------------------------------ *)
(* Cheap tier                                                          *)
(* ------------------------------------------------------------------ *)

let test_cheap_tier_exact_best () =
  let c = cache () in
  let config =
    {
      Search.default_config with
      time_budget = 1e9;
      max_iterations = 20;
      verify_states = true;
      cheap_tier = true;
    }
  in
  let r = Search.optimize_latency ~config c ~mem_ratio:0.7 (lm_small ()) in
  let best = r.Search.best in
  schedule_clean ~what:"cheap-tier best schedule" best.graph best.schedule;
  (* the best state must carry exact-tier numbers: re-simulating its
     own schedule reproduces them bit-identically *)
  let re = Mstate.evaluate c best.graph best.ftree best.schedule in
  Alcotest.(check int) "peak is exact" re.Mstate.peak_mem best.peak_mem;
  Alcotest.(check (float 0.0)) "latency is exact" re.Mstate.latency
    best.latency;
  Alcotest.(check bool) "cheap tier exercised" true
    (r.stats.n_cheap_sched > 0)

(* ------------------------------------------------------------------ *)
(* List scheduler                                                      *)
(* ------------------------------------------------------------------ *)

let test_listsched_valid_deterministic () =
  let c = cache () in
  List.iter
    (fun (what, g) ->
      let cost_of v = Op_cost.node_cost c g v in
      let s1 = Listsched.schedule ~cost_of g in
      let s2 = Listsched.schedule ~cost_of g in
      Alcotest.(check (list int)) (what ^ ": deterministic") s1 s2;
      schedule_clean ~what:(what ^ ": valid") g s1;
      Alcotest.(check int)
        (what ^ ": complete")
        (Graph.n_nodes g) (List.length s1))
    [
      ("lm", lm_small ());
      ("unet", (Zoo.find "unet").build Zoo.Quick);
      ("randnet", Randnet.build ~cfg:{ Randnet.default with seed = 4 } ());
    ]

(* ------------------------------------------------------------------ *)
(* Reschedule fallback reporting                                       *)
(* ------------------------------------------------------------------ *)

let test_fallback_reports_window () =
  let g, _, _, _, _ = chain3 () in
  let size_of = Lifetime.default_size g in
  (* no old schedule: the fallback must still report a usable window
     covering the whole new order, not a discarded interval *)
  let order, st =
    Incremental.reschedule ~parent:(Incremental.parent g []) ~new_graph:g
      ~mutated_old:(int_set [ 0 ]) ~size_of ()
  in
  Alcotest.(check bool) "fallback flagged" true st.Incremental.fallback;
  Alcotest.(check (pair int int)) "window spans the full schedule"
    (0, List.length order)
    st.Incremental.interval;
  Alcotest.(check int) "everything rescheduled" (List.length order)
    st.Incremental.rescheduled;
  schedule_clean ~what:"fallback schedule" g order;
  (* a clean splice reports a proper sub-window and no fallback *)
  let base = Reorder.schedule ~size_of g in
  let order2, st2 =
    Incremental.reschedule ~parent:(Incremental.parent g base) ~new_graph:g
      ~mutated_old:(int_set [ List.nth base 1 ]) ~size_of ()
  in
  Alcotest.(check bool) "no fallback on a clean splice" false
    st2.Incremental.fallback;
  schedule_clean ~what:"spliced schedule" g order2

let suite =
  [
    Alcotest.test_case "delta vs scratch: randnets" `Quick test_delta_randnets;
    Alcotest.test_case "delta vs scratch: zoo" `Quick test_delta_zoo;
    Alcotest.test_case "delta max_dirty cap" `Quick test_delta_max_dirty;
    Alcotest.test_case "sim-cache delta round-trip" `Quick
      test_sim_cache_roundtrip;
    Alcotest.test_case "incremental on/off invisible" `Quick
      test_incremental_invisible;
    Alcotest.test_case "cheap tier surfaces exact bests" `Quick
      test_cheap_tier_exact_best;
    Alcotest.test_case "list scheduler valid + deterministic" `Quick
      test_listsched_valid_deterministic;
    Alcotest.test_case "reschedule fallback reporting" `Quick
      test_fallback_reports_window;
  ]
