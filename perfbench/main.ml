(** The repository's benchmark.

    {v
    main.exe --workload <latency-parity|memory-sweep|frontier-service>
             --seed <n> --seconds <s> --trace <0|1>
    main.exe --selftest
    v}

    Prints the run's provenance and every metric by name with its unit,
    then, as the last line of standard output, one JSON object
    [{"correct", "attempted", "failed", "metrics"}].  With [--trace 0]
    the metrics are the end-to-end ones, with [--trace 1] the per-layer
    ones (see perfbench/README.md).  Exits 1 when any output check
    failed. *)

open Magis

let results_dir = Filename.concat "perfbench" "results"

let usage () =
  prerr_endline
    "usage: main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
    \       main.exe --selftest";
  exit 2

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* The commit, when the checkout is a git work tree. *)
let commit () =
  let read f = In_channel.with_open_bin f In_channel.input_all |> String.trim in
  match read (Filename.concat ".git" "HEAD") with
  | exception Sys_error _ -> "unknown (not a git checkout)"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | exception Sys_error _ -> r
      | h -> h)
  | h -> h

let provenance () =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("commit", commit ());
  ]

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v) else Json.Float v

let result_line (report : Report.t) =
  Json.Obj
    [
      ("correct", Json.Bool (report.failed = 0));
      ("attempted", Json.Int report.attempted);
      ("failed", Json.Int report.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Json.Obj
                   [ ("value", json_number v); ("unit", Json.String (Spec.unit_of name)) ] ))
             (Report.metrics report)) );
    ]

let run ~workload ~seed ~seconds ~trace =
  mkdir_p results_dir;
  let report = Report.create () in
  let prov = provenance () in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) prov;
  Printf.printf "# workload %s, seed %d, %g s, trace %b\n%!" workload seed seconds trace;
  (match (workload, trace) with
  | "latency-parity", false -> Searches.run report ~seconds Searches.latency_parity
  | "memory-sweep", false -> Searches.run report ~seconds Searches.memory_sweep
  | "frontier-service", false -> Service.run report ~seed ~seconds
  | "latency-parity", true -> Traced.searches report ~workload ~seed Searches.latency_parity
  | "memory-sweep", true -> Traced.searches report ~workload ~seed Searches.memory_sweep
  | "frontier-service", true -> Traced.service report ~workload ~seed ~seconds
  | _ -> usage ());
  let expected = List.map (fun (x : Spec.metric) -> x.name) (if trace then Spec.per_layer () else Spec.end_to_end ()) in
  Report.check report ~what:"metric set"
    (List.filter_map
       (fun name -> if List.mem_assoc name report.metrics then None else Some ("missing " ^ name))
       expected);
  (match workload with
  | "latency-parity" | "memory-sweep" ->
      Printf.printf "# seed unused: the search workloads are deterministic by construction\n"
  | _ -> ());
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) (List.rev report.notes);
  Printf.printf "# failed_frac = %g (%d of %d checked operations)\n"
    (float_of_int report.failed /. float_of_int (max 1 report.attempted))
    report.failed report.attempted;
  List.iter
    (fun (name, v) -> Printf.printf "%-26s %14.6g %s\n" name v (Spec.unit_of name))
    (Report.metrics report);
  let line = Json.to_string (result_line report) in
  Out_channel.with_open_bin
    (Filename.concat results_dir
       (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (Bool.to_int trace)))
    (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("provenance", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) prov));
                ("result", result_line report) ])));
  print_endline line;
  exit (if report.failed = 0 && report.attempted > 0 then 0 else 1)

let () =
  (* a write to a dead daemon's socket raises EPIPE instead of killing the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | "--selftest" :: rest -> parse (("selftest", "1") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  if List.mem_assoc "selftest" opts then Selftest.run ()
  else
    match
      ( get "workload",
        int_of_string_opt (get "seed"),
        float_of_string_opt (get "seconds"),
        get "trace" )
    with
    | workload, Some seed, Some seconds, ("0" | "1" as t)
      when List.mem workload (Spec.workloads ()) && seconds > 0.0 ->
        run ~workload ~seed ~seconds ~trace:(t = "1")
    | _ -> usage ()
