(** Clocks and summary statistics shared by the workloads. *)

let now = Unix.gettimeofday

(** [timed f] is [(f (), seconds f took)]. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(** Linear-interpolation quantile ([q] in [0, 1]) of a non-empty list. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile of an empty sample";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum = List.fold_left ( +. ) 0.0

let geomean xs =
  exp (sum (List.map log xs) /. float_of_int (List.length xs))

(** Median over [reps] runs of [f]'s wall time, after one untimed warm-up
    call; the value of the last call is returned too. *)
let median_time ?(reps = 5) f =
  ignore (f ());
  let last = ref None in
  let ts =
    List.init reps (fun _ ->
        let v, dt = timed f in
        last := Some v;
        dt)
  in
  (Option.get !last, median ts)

(** Top of the major heap so far, in MB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6
