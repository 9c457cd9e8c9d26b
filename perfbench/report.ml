(** What one run found: checked operations, failures and metrics. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float) list;  (** newest first *)
  mutable notes : (string * string) list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; metrics = []; notes = [] }

(** One checked operation; any problem makes it a failure. *)
let check t ~what problems =
  t.attempted <- t.attempted + 1;
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    List.iter (fun p -> Printf.eprintf "FAIL %s: %s\n%!" what p) problems
  end

let metric t name v =
  ignore (Spec.unit_of name);
  t.metrics <- (name, v) :: List.remove_assoc name t.metrics

let note t key v = t.notes <- (key, v) :: t.notes
let metrics t = List.rev t.metrics
