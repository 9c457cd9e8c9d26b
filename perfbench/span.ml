(** The benchmark's own spans, recorded around its calls into the
    program in the traced run.  A span has a name, start, end and the
    span that encloses it; all spans of one search or one query share an
    id.  Spans stay in memory and are written out when the run ends. *)

type t = {
  name : string;
  id : string;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  start : float;
  mutable stop : float;
}

let on = ref false
let recorded : t list ref = ref [] (* newest first *)
let count = ref 0
let stack : int list ref = ref []

let enable () =
  on := true;
  recorded := [];
  count := 0;
  stack := []

let disable () = on := false

(** [with_ ~id name f] runs [f], recording a span around it while
    recording is enabled.  Only the main domain records. *)
let with_ ~id name f =
  if not !on then f ()
  else begin
    let idx = !count in
    incr count;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let sp = { name; id; parent; start = Measure.now (); stop = nan } in
    recorded := sp :: !recorded;
    stack := idx :: !stack;
    Fun.protect
      ~finally:(fun () ->
        sp.stop <- Measure.now ();
        stack := List.tl !stack)
      f
  end

let all () = Array.of_list (List.rev !recorded)

(** Per span name: calls, total seconds and self seconds (duration minus
    the time its child spans cover), sorted by self time, largest
    first. *)
let self_times () =
  let a = all () in
  let child = Array.make (Array.length a) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then
        child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start))
    a;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let d = s.stop -. s.start in
      let n, tot, self =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace tbl s.name (n + 1, tot +. d, self +. d -. child.(i)))
    a;
  Hashtbl.fold (fun k (n, tot, self) acc -> (k, n, tot, self) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let to_json () =
  let module J = Magis.Json in
  let a = all () in
  let t0 = if Array.length a = 0 then 0.0 else a.(0).start in
  J.List
    (Array.to_list
       (Array.mapi
          (fun i s ->
            J.Obj
              [
                ("index", J.Int i);
                ("name", J.String s.name);
                ("id", J.String s.id);
                ("parent", J.Int s.parent);
                ("start_s", J.Float (s.start -. t0));
                ("end_s", J.Float (s.stop -. t0));
              ])
          a))
