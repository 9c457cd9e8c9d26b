(** The benchmark's contract, read from [BENCHMARK.json] at the root of
    the checkout: the workloads, and the metrics each run prints with
    their units. *)

type metric = { name : string; unit_ : string; better : string }

(** Metric names may only use letters, digits, [_], [.] and [-]. *)
let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

type t = {
  workloads : string list;
  end_to_end : metric list;  (** printed by every workload with [--trace 0] *)
  per_layer : metric list;  (** printed by every workload with [--trace 1] *)
}

let bad fmt = Printf.ksprintf (fun m -> failwith ("BENCHMARK.json: " ^ m)) fmt

let parse text =
  let open Magis.Json in
  let j = of_string text in
  let entries k =
    match Option.bind (member k j) to_list with
    | Some l -> l
    | None -> bad "no %s list" k
  in
  let str k e =
    match member k e with Some (String s) -> s | _ -> bad "an entry has no string %s" k
  in
  let metric e =
    let m = { name = str "name" e; unit_ = str "unit" e; better = str "better" e } in
    if not (valid_name m.name) then bad "metric name %S uses more than [A-Za-z0-9_.-]" m.name;
    if m.unit_ = "" then bad "metric %s has no unit" m.name;
    m
  in
  let t =
    {
      workloads = List.map (str "name") (entries "workloads");
      end_to_end = List.map metric (entries "end_to_end");
      per_layer = List.map metric (entries "per_layer");
    }
  in
  let names = List.map (fun m -> m.name) (t.end_to_end @ t.per_layer) in
  if List.length (List.sort_uniq compare names) <> List.length names then
    bad "a metric name is used twice";
  t

let spec =
  lazy (parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all))

let workloads () = (Lazy.force spec).workloads
let end_to_end () = (Lazy.force spec).end_to_end
let per_layer () = (Lazy.force spec).per_layer

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end () @ per_layer ()) with
  | Some x -> x.unit_
  | None -> invalid_arg ("perfbench: undeclared metric " ^ name)
