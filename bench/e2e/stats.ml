(* Order statistics over timing samples.

   Quantiles use the mid-distribution function (Parzen): each distinct
   value sits at the midpoint of its probability step, and quantiles
   interpolate linearly between those points. On distinct samples this
   is the Hazen rule (the median of an even count is the mean of the
   middle two); on tied samples, such as latencies stamped by a
   microsecond clock, the estimate still moves smoothly as the share of
   samples on each tick changes, instead of jumping a whole tick. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Distinct values of a sorted array with their mid-distribution
   positions: value j sits at (samples below it + half its own) / n. *)
let mid_points a =
  let n = Array.length a in
  let points = ref [] and i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j < n && a.(!j) = a.(!i) do incr j done;
    let below = Float.of_int !i and own = Float.of_int (!j - !i) in
    points := (a.(!i), (below +. (own /. 2.)) /. Float.of_int n) :: !points;
    i := !j
  done;
  Array.of_list (List.rev !points)

let quantile_of_points pts q =
  let k = Array.length pts in
  if q <= snd pts.(0) then fst pts.(0)
  else if q >= snd pts.(k - 1) then fst pts.(k - 1)
  else begin
    let j = ref 0 in
    while snd pts.(!j + 1) < q do incr j done;
    let v0, m0 = pts.(!j) and v1, m1 = pts.(!j + 1) in
    v0 +. ((q -. m0) /. (m1 -. m0) *. (v1 -. v0))
  end

(* [quantile xs] sorts once and answers any number of quantiles. *)
let quantile xs =
  if Array.length xs = 0 then invalid_arg "Stats.quantile: no samples";
  quantile_of_points (mid_points (sorted xs))

let median xs = quantile xs 0.5

(* The ladder a tail percentile is picked from. *)
let ladder = [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]

(* The highest percentile on the ladder that still has at least ten
   samples beyond it; [None] when even the median has fewer. The
   epsilon keeps float error in [n *. (1 -. p)] from losing a sample
   (100 samples put exactly 10 beyond p90). *)
let tail_percentile n =
  List.fold_left
    (fun best p ->
      if Float.of_int n *. (1. -. p) +. 1e-9 >= 10. then Some p else best)
    None ladder

type summary = {
  count : int;
  median : float;
  q1 : float;
  q3 : float;
  p90 : float;
  tail : (float * float) option;  (** (percentile, value) *)
}

let summarize xs =
  let q = quantile xs in
  {
    count = Array.length xs;
    median = q 0.5;
    q1 = q 0.25;
    q3 = q 0.75;
    p90 = q 0.9;
    tail = Option.map (fun p -> (p, q p)) (tail_percentile (Array.length xs));
  }

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no values"
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. Float.of_int (List.length xs))
