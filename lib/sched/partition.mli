(** Narrow-waist analysis and graph partitioning (§6.1). *)

open Magis_ir
module Int_set = Util.Int_set

(** Weights and graph outputs: never freed, ignored when cutting. *)
val pinned : Graph.t -> int -> bool

(** Narrow-waist value [nw(v) = |V| - |anc(v)| - |des(v)| - 1] of every
    node, in an array indexed by node id (length {!Graph.id_bound}); one
    bitset pass over the graph. *)
val nw_table : Graph.t -> int array

(** Cut each weakly-connected component where the dependence frontier
    narrows to at most [max_crossing] live tensors (linear-time
    equivalent of cutting at nw <= 1); blocks are returned in a
    dependency-compatible order. *)
val partition : ?max_crossing:int -> Graph.t -> Int_set.t -> Int_set.t list
