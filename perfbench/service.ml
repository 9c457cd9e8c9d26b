(** The frontier-service workload: an in-process daemon on a Unix
    socket, one client connection sending a seeded closed-loop stream of
    frontier queries.  Each key misses once (the daemon builds, saves
    and fsyncs its frontier); every later query on it is a hit. *)

open Magis
module P = Serve_protocol

type key = { model : string; scale : Zoo.scale; hw : string; cap : int }

(* Small Quick keys, plus one large key whose graph makes every hit
   rebuild and hash 1776 nodes. *)
let small_keys =
  List.concat_map
    (fun model ->
      List.map (fun hw -> { model; scale = Zoo.Quick; hw; cap = 8 }) [ "rtx3090"; "a100" ])
    [ "UNet"; "BERT-base"; "ResNet-50" ]

let large_key = { model = "GPT-Neo"; scale = Zoo.Full; hw = "rtx3090"; cap = 2 }
let keys = Array.of_list (small_keys @ [ large_key ])
let large_share = 0.25
let ladder = [| 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 |]

let key_name k =
  Printf.sprintf "%s%s@%s" k.model (if k.scale = Zoo.Full then "(full)" else "") k.hw

(** The search configuration and mode the daemon builds a key's
    frontier with. *)
let frontier_config k =
  { Search.default_config with sched_states = 0; max_iterations = k.cap }

let frontier_mode = Search.Min_memory { lat_limit = infinity }

let request k ~id ~ratio =
  {
    (P.frontier_request ~id ~model:k.model) with
    f_scale = k.scale;
    f_hw = k.hw;
    f_budget_ratio = ratio;
    f_max_iterations = k.cap;
    f_sched_states = 0;
  }

(* ------------------------------------------------------------------ *)
(* Daemon                                                               *)
(* ------------------------------------------------------------------ *)

type daemon = {
  server : Serve_server.t;
  domain : unit Domain.t;
  client : Serve_client.t;
}

let sock_counter = ref 0

(** Start a daemon with one worker over [dir] and connect to it. *)
let start ~dir =
  incr sock_counter;
  (* relative, so the path stays under the Unix-socket length limit *)
  let sock = Filename.concat dir (Printf.sprintf "s%d.sock" !sock_counter) in
  let cfg =
    {
      Serve_server.default_config with
      addr = P.Unix_sock sock;
      workers = 1;
      ckpt_dir = dir;
      verbose = false;
    }
  in
  let server = Serve_server.create cfg in
  let domain = Domain.spawn (fun () -> Serve_server.run server) in
  let deadline = Measure.now () +. 10.0 in
  while (not (Sys.file_exists sock)) && Measure.now () < deadline do
    Unix.sleepf 0.001
  done;
  { server; domain; client = Serve_client.connect ~retries:100 cfg.addr }

let stop d =
  Serve_server.stop d.server;
  Serve_client.close d.client;
  Domain.join d.domain

let rec rm_rf p =
  match Sys.is_directory p with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p

(* ------------------------------------------------------------------ *)
(* The query stream                                                     *)
(* ------------------------------------------------------------------ *)

type stream = {
  keys : key array;
  mutable n : int;  (** completed queries *)
  mutable wall : float;
  mutable hits : (int * float) list;  (** (key, seconds), newest first *)
  mutable misses : (int * float) list;
  mutable warm_at : float option;  (** seconds until every key was served *)
  mutable misses_to_warm : int;
  mutable warm_n : int;  (** queries completed by then *)
  first : (int * float, Check.answer) Hashtbl.t;
      (** first answer per (key, ratio) *)
  mutable answers : (int * float * Check.answer) list;
  mutable broken : bool;  (** a query failed; the session ends *)
}

let new_stream keys =
  { keys; n = 0; wall = 0.0; hits = []; misses = []; warm_at = None;
    misses_to_warm = 0; warm_n = 0; first = Hashtbl.create 64; answers = [];
    broken = false }

(** One query, checked.  A failed check, an error reply or a client
    exception (the daemon died, or sent garbage) counts as one failed
    operation and marks the stream [broken]. *)
let query (report : Report.t) d st ~t0 ~expect_hit i ratio =
  let id = Printf.sprintf "q%d" st.n in
  let k = st.keys.(i) in
  let what = Printf.sprintf "query %s %s ratio %.1f" id (key_name k) ratio in
  let check problems =
    if problems <> [] then st.broken <- true;
    Report.check report ~what problems
  in
  match
    Span.with_ ~id "query" @@ fun () ->
    Measure.timed (fun () -> Serve_client.frontier d.client (request k ~id ~ratio))
  with
  | exception ((End_of_file | P.Invalid _ | Unix.Unix_error _ | Sys_error _) as e) ->
      check [ "client: " ^ Printexc.to_string e ]
  | P.Frontier_reply r, dt ->
      st.n <- st.n + 1;
      let a = Check.answer_of_reply r in
      let seen = List.exists (fun (j, _) -> j = i) st.misses in
      let problems =
        Check.answer a
        @ (match Hashtbl.find_opt st.first (i, ratio) with
          | Some f -> Check.same ~what:"repeated answer" f a
          | None -> Hashtbl.replace st.first (i, ratio) a; [])
        @
        match (r.fr_cache_hit, seen || expect_hit) with
        | true, true | false, false -> []
        | true, false -> [ "first query of a fresh key answered as a hit" ]
        | false, true -> [ "key missed again after its frontier was built" ]
      in
      if r.fr_cache_hit then st.hits <- (i, dt) :: st.hits
      else begin
        st.misses <- (i, dt) :: st.misses;
        if List.length st.misses = Array.length st.keys then begin
          st.warm_at <- Some (Measure.now () -. t0);
          st.misses_to_warm <- List.length st.misses;
          st.warm_n <- st.n
        end
      end;
      st.answers <- (i, ratio, a) :: st.answers;
      check problems
  | r, _ ->
      st.n <- st.n + 1;
      check [ "unexpected reply " ^ P.reply_to_string r ]

(** The stream's hard limit, as a multiple of its [seconds]: a key that
    is never served ends the stream then, as a failure. *)
let deadline_factor = 3.0

(** Closed loop over the seeded stream for [seconds], and on until
    every key has been served and 100 queries have followed; about
    [large_share] of the queries go to the last key.  The stream ends
    early at the first failed query, and at [deadline_factor] ×
    [seconds] in any case. *)
let stream ?(keys = keys) (report : Report.t) d ~seed ~seconds =
  let rng = Random.State.make seed in
  let st = new_stream keys in
  let n_small = Array.length keys - 1 in
  let t0 = Measure.now () in
  let continue () =
    let t = Measure.now () -. t0 in
    (not st.broken)
    && (t < seconds
       || ((st.warm_at = None || st.n - st.warm_n < 100) && t < deadline_factor *. seconds))
  in
  while continue () do
    let i =
      if n_small = 0 || Random.State.float rng 1.0 < large_share then n_small
      else Random.State.int rng n_small
    in
    let ratio = ladder.(Random.State.int rng (Array.length ladder)) in
    query report d st ~t0 ~expect_hit:false i ratio
  done;
  st.wall <- Measure.now () -. t0;
  if st.warm_at = None && not st.broken then begin
    st.broken <- true;
    Report.check report ~what:"stream"
      [ Printf.sprintf "some key was never served in %.0f s" st.wall ]
  end;
  st

(** After the stream: every key answers the whole ladder (all hits),
    consistently with the stream and monotone in the budget.  Returns
    each key's memory reach: smallest answered peak / baseline peak.
    The sweep's answers join [st.answers]; its counts and times stay out
    of the stream's. *)
let sweep (report : Report.t) d st =
  let sw = { st with hits = [] } in
  let reach =
    Array.mapi
      (fun i _ ->
        Array.iter
          (fun ratio ->
            if not sw.broken then query report d sw ~t0:0.0 ~expect_hit:true i ratio)
          ladder;
        let mine =
          List.filter_map
            (fun (j, r, a) -> if j = i then Some (r, a) else None)
            sw.answers
          |> List.sort_uniq compare
        in
        Report.check report ~what:(key_name st.keys.(i) ^ " ladder") (Check.ladder mine);
        match Hashtbl.find_opt st.first (i, 1.0) with
        | None -> nan
        | Some (f : Check.answer) ->
            let base = f.budget in
            List.fold_left
              (fun acc (_, (a : Check.answer)) ->
                if a.feasible then min acc (float_of_int a.peak /. float_of_int base)
                else acc)
              1.0 mine)
      st.keys
  in
  st.answers <- sw.answers;
  st.broken <- sw.broken;
  Array.to_list reach

let signature st reach =
  String.concat ";"
    (List.mapi (fun i r -> Printf.sprintf "%s:%h" (key_name st.keys.(i)) r) reach
    @ List.map
        (fun ((i, ratio), (a : Check.answer)) ->
          Printf.sprintf "%d/%.1f:%b/%d/%d/%h/%d" i ratio a.feasible a.budget a.peak
            a.latency a.points)
        (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.first [])))

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)
(* ------------------------------------------------------------------ *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let results = Filename.concat "perfbench" "results" in
  if not (Sys.file_exists results) then Sys.mkdir results 0o755;
  let d = Filename.concat results (Printf.sprintf "tmp%d-%d" (Unix.getpid ()) !tmp_counter) in
  rm_rf d;
  Sys.mkdir d 0o755;
  d

(** Daemon start and connect, [reps] times over a fresh cache
    directory; the last daemon is kept.  Returns it, its directory and
    the median set-up seconds. *)
let setup ?(reps = 5) () =
  let dir = fresh_dir () in
  let rec go n acc =
    let d, dt = Measure.timed (fun () -> start ~dir) in
    if n = 1 then (d, Measure.median (dt :: acc))
    else begin
      stop d;
      go (n - 1) (dt :: acc)
    end
  in
  let d, setup_s = go reps [] in
  (d, dir, setup_s)

(** One stream on a fresh daemon: set-up, stream, ladder sweep, stop.
    [seed] seeds the stream; a broken stream skips the sweep. *)
let session ?reps (report : Report.t) ~seed ~seconds =
  let d, dir, setup_s = setup ?reps () in
  let st, reach =
    Fun.protect
      ~finally:(fun () -> stop d; rm_rf dir)
      (fun () ->
        let st = stream report d ~seed ~seconds in
        (st, if st.broken then [] else sweep report d st))
  in
  (st, reach, setup_s)

let ms_of xs = List.map (fun (_, t) -> t *. 1e3) xs

(** Sessions per run: each pays every key's miss once, so the miss
    times are medians over sessions. *)
let sessions = 3

(** The sessions of a run, ending after the first broken one, and
    whether all of them ran whole. *)
let sessions_of report ~seed ~seconds =
  let rec go k acc =
    if k = sessions then (List.rev acc, true)
    else
      let ((st, _, _) as r) =
        session ~reps:3 report ~seed:[| seed; k |] ~seconds:(seconds /. float_of_int sessions)
      in
      if st.broken then (List.rev (r :: acc), false) else go (k + 1) (r :: acc)
  in
  go 0 []

(** The end-to-end metrics of a run whose sessions all ran whole. *)
let metrics (report : Report.t) runs =
  (* the stream's key order depends on the seed, the answers do not *)
  let sigs = List.map (fun (st, reach, _) -> signature st reach) runs in
  List.iter
    (fun s ->
      Report.check report ~what:"determinism across sessions"
        (if s = List.hd sigs then [] else [ "the answers differ between sessions" ]))
    (List.tl sigs);
  let sts = List.map (fun (st, _, _) -> st) runs in
  let med f = Measure.median (List.map f sts) in
  let m = Report.metric report in
  let hit_ms = List.concat_map (fun st -> ms_of st.hits) sts in
  let warm st = Option.get st.warm_at in
  m "setup_s" (Measure.median (List.map (fun (_, _, s) -> s) runs));
  m "search_s" (med (fun st -> Measure.sum (List.map snd st.misses)));
  m "time_to_target_s" (med warm);
  m "iters_to_target" (float_of_int (List.hd sts).misses_to_warm);
  (* closed-loop throughput of the warm service *)
  m "ops_per_s"
    (float_of_int (List.fold_left (fun a st -> a + st.n - st.warm_n) 0 sts)
    /. Measure.sum (List.map (fun st -> st.wall -. warm st) sts));
  m "quality_ratio" (Measure.geomean (let _, reach, _ = List.hd runs in reach));
  m "op_p50_ms" (Measure.quantile 0.5 hit_ms);
  m "op_p90_ms" (Measure.quantile 0.9 hit_ms);
  Report.note report "op" "one frontier query answered from the cache";
  Report.note report "op_samples" (string_of_int (List.length hit_ms));
  Report.note report "miss_p50_ms"
    (Printf.sprintf "%.3f" (Measure.median (List.concat_map (fun st -> ms_of st.misses) sts)));
  Report.note report "session search_s"
    (String.concat " "
       (List.map (fun st -> Printf.sprintf "%.3f" (Measure.sum (List.map snd st.misses))) sts));
  Report.note report "peak_heap_mb" (Printf.sprintf "%.1f" (Measure.peak_heap_mb ()))

let run (report : Report.t) ~seed ~seconds =
  match sessions_of report ~seed ~seconds with
  | runs, true -> metrics report runs
  | _, false -> Report.note report "metrics" "none: a service session failed"
