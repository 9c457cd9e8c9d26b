(** Output checks.  Each returns the list of problems found (empty when
    the output is right); every problem counts as one failed operation. *)

open Magis

type limit = Mem of int | Lat of float

(** A search's best state must be a well-formed graph with a legal
    schedule, meet its limit, and re-simulate to exactly the peak and
    latency the search reported. *)
let best_state ~hw ~limit (s : Mstate.t) =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  (match Diagnostic.errors (Verify.graph s.graph) with
  | [] -> ()
  | d -> add "IR verifier: %s" (Diagnostic.report_to_string d));
  (match Diagnostic.errors (Sched_check.schedule s.graph s.schedule) with
  | [] -> ()
  | d -> add "schedule checker: %s" (Diagnostic.report_to_string d));
  (match limit with
  | Mem m when s.peak_mem > m -> add "peak %d B over the limit %d B" s.peak_mem m
  | Lat l when s.latency > l -> add "latency %h s over the limit %h s" s.latency l
  | _ -> ());
  (let oc = Op_cost.create hw in
   match
     let acc = Ftree.accounting oc s.graph s.ftree in
     let r =
       Simulator.run ~size_of:acc.size_of ~cost_of:acc.cost_of oc s.graph
         s.schedule
     in
     (r.peak_mem, r.latency +. acc.extra_latency)
   with
   | exception e -> add "re-simulation raised %s" (Printexc.to_string e)
   | peak, lat ->
       if peak <> s.peak_mem then
         add "re-simulated peak %d B, reported %d B" peak s.peak_mem;
       if lat <> s.latency then
         add "re-simulated latency %h s, reported %h s" lat s.latency);
  List.rev !errs

(** The parts of a frontier reply the client can check. *)
type answer = {
  feasible : bool;
  budget : int;
  peak : int;
  latency : float;
  points : int;
}

let answer_of_reply (a : Serve_protocol.frontier_answer) =
  {
    feasible = a.fr_feasible;
    budget = a.fr_budget;
    peak = a.fr_peak;
    latency = a.fr_latency;
    points = a.fr_points;
  }

let pp_answer a =
  Printf.sprintf "{feasible %b; budget %d; peak %d; latency %h; points %d}"
    a.feasible a.budget a.peak a.latency a.points

(** A single answer: a chosen point fits its budget. *)
let answer a =
  if a.feasible && a.peak > a.budget then
    [ Printf.sprintf "answer peak %d B over its budget %d B" a.peak a.budget ]
  else []

(** One key's answers, as [(ratio, answer)] pairs, must be monotone in
    the budget: a larger budget never loses feasibility or gets a slower
    point, and every answer sees the same frontier. *)
let ladder answers =
  let sorted = List.sort (fun (r, _) (r', _) -> compare r r') answers in
  let rec go acc = function
    | (r, a) :: ((r', b) :: _ as rest) ->
        let bad fmt = Printf.ksprintf (fun m -> m :: acc) fmt in
        let acc =
          if b.budget < a.budget then bad "budget shrinks from %.2f to %.2f" r r'
          else if a.feasible && not b.feasible then
            bad "feasible at %.2f but not at %.2f" r r'
          else if a.feasible && b.latency > a.latency then
            bad "latency grows from %.2f to %.2f" r r'
          else if a.points <> b.points then
            bad "frontier size changes between %.2f and %.2f" r r'
          else acc
        in
        go acc rest
    | _ -> List.rev acc
  in
  go [] sorted

(** A later answer for a key and ratio must equal the first one. *)
let same ~what first a =
  if first = a then []
  else [ Printf.sprintf "%s %s differs from %s" what (pp_answer a) (pp_answer first) ]

(** An answer must equal a direct query on the reference frontier. *)
let against_frontier fr ~ratio a =
  let budget = Frontier_build.budget_of_ratio fr ~ratio in
  let expect =
    match Frontier_build.query_ratio fr ~ratio with
    | Some (p : Frontier.point) ->
        { feasible = true; budget; peak = p.peak; latency = p.latency;
          points = Frontier.size fr }
    | None ->
        { feasible = false; budget; peak = 0; latency = 0.0;
          points = Frontier.size fr }
  in
  same ~what:"served answer" expect a
