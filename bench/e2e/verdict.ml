(* Parent-versus-change verdicts for one (metric, workload) over paired
   runs. The rule:

   - improved: at least ten pairs, the change wins at least nine tenths
     of them (ties count for neither side), and the medians differ by
     more than the parent's own interquartile range;
   - unresolved: the parent's spread (IQR over median) is wider than the
     metric's bound, unless every change run reads better than every
     parent run (then unchanged) or every one reads worse and the median
     moved past the bound (then worse);
   - worse: the change's median is worse than the parent's by more than
     the bound;
   - unchanged: otherwise. *)

type t = Improved | Unchanged | Worse | Unresolved

let name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type side = { median : float; q1 : float; q3 : float }

type row = {
  parent : side;
  change : side;
  pairs : int;
  win_share : float;  (** change wins over pairs, ties counting for neither *)
  worse_by : float;  (** signed: > 0 means the change's median is worse *)
  verdict : t;
}

let side xs =
  let s = Stats.summarize xs in
  { median = s.Stats.median; q1 = s.Stats.q1; q3 = s.Stats.q3 }

let judge ~(better : Catalog.better) ~bound ~parent ~change =
  let pairs = min (Array.length parent) (Array.length change) in
  if pairs = 0 then invalid_arg "Verdict.judge: no pairs";
  (* [gain a b] > 0 when [b] reads better than [a]. *)
  let gain a b = match better with Catalog.Lower -> a -. b | Catalog.Higher -> b -. a in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if gain parent.(i) change.(i) > 0. then incr wins
  done;
  let p = side parent and c = side change in
  let scale = Float.abs p.median in
  let worse_by = gain c.median p.median /. if scale = 0. then 1. else scale in
  let spread = if scale = 0. then 0. else (p.q3 -. p.q1) /. scale in
  let every cmp = Array.for_all (fun x -> Array.for_all (fun y -> cmp (gain y x)) parent) change in
  let all_better = every (fun g -> g > 0.) and all_worse = every (fun g -> g < 0.) in
  let verdict =
    if
      pairs >= 10
      && Float.of_int !wins >= 0.9 *. Float.of_int pairs
      && worse_by < 0.
      && Float.abs (c.median -. p.median) > p.q3 -. p.q1
    then Improved
    else if spread > bound then
      if all_better then Unchanged
      else if all_worse && worse_by > bound then Worse
      else Unresolved
    else if worse_by > bound then Worse
    else Unchanged
  in
  {
    parent = p;
    change = c;
    pairs;
    win_share = Float.of_int !wins /. Float.of_int pairs;
    worse_by;
    verdict;
  }

(* Comparing BENCH_e2e.json documents. *)

module Json = Blink_telemetry.Json

let metric_value doc ~workload ~metric =
  Option.bind (Json.member "workloads" doc) (fun w ->
      Option.bind (Json.member workload w) (fun r ->
          Option.bind (Json.member "metrics" r) (fun ms ->
              Option.bind (Json.member metric ms) (fun m ->
                  Option.bind (Json.member "value" m) Json.to_float))))

type outcome =
  | Judged of row
  | Missing of { parent : int; change : int }
      (** how many documents of each side hold the value *)

(* One outcome per (end-to-end metric, workload) that any document
   holds: a verdict when every document on both sides holds it, and
   [Missing] otherwise, so a change run that crashed or skipped a
   workload can never pass as unchanged. *)
let compare_docs ~parent ~change =
  List.concat_map
    (fun (m : Catalog.metric) ->
      List.filter_map
        (fun workload ->
          let values docs =
            Array.of_list
              (List.filter_map (fun d -> metric_value d ~workload ~metric:m.Catalog.name) docs)
          in
          let p = values parent and c = values change in
          if Array.length p = 0 && Array.length c = 0 then None
          else if Array.length p < List.length parent || Array.length c < List.length change
          then Some (m, workload, Missing { parent = Array.length p; change = Array.length c })
          else
            Some
              ( m,
                workload,
                Judged (judge ~better:m.Catalog.better ~bound:m.Catalog.bound ~parent:p ~change:c)
              ))
        Catalog.workloads)
    Catalog.end_to_end
