(** Incremental scheduling (Algorithm 2): after a transformation, only a
    window of the previous schedule around the rewritten region is
    re-scheduled; the window is widened to narrow-waist cut points using
    the paper's empirical thresholds. *)

open Magis_ir
module Int_set = Util.Int_set

type stats = {
  interval : int * int;
      (** [beg, end) window in the old schedule.  When the splice failed
          and full scheduling ran, this is still the window that was
          {e attempted} (or [(0, n)] when no window could be computed),
          so callers can locate the rewrite either way. *)
  rescheduled : int;  (** number of nodes actually rescheduled *)
  fallback : bool;
      (** true when splicing failed (or was impossible) and the whole
          graph was rescheduled from scratch; surfaced as the
          [n_sched_fallback] search counter and the
          ["search.sched_fallbacks"] metric *)
}

(** Per-parent context shared by every reschedule against one parent
    state: built once per popped parent, immutable afterwards. *)
type parent = private {
  graph : Graph.t;
  schedule : int list;
  psi : int array;  (** [schedule] as an array *)
  nw : int array;  (** {!Partition.nw_table}[ graph] *)
}

(** [parent graph schedule] builds the context (one narrow-waist pass). *)
val parent : Graph.t -> int list -> parent

(** The paper's [ExtendBound] (clamped to the schedule). *)
val extend_bound : parent -> int -> int -> int

(** The paper's [GetRescheduleInterval]. *)
val get_reschedule_interval : parent -> int list -> int * int

(** Splice a re-scheduled window into the parent's schedule; falls back
    to full scheduling when splicing fails. *)
val reschedule :
  ?max_states:int ->
  parent:parent ->
  new_graph:Graph.t ->
  mutated_old:Int_set.t ->
  size_of:(int -> int) ->
  unit ->
  int list * stats
