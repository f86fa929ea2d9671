(* Unit tests of the benchmark's own statistics, span ledger and
   parent/change comparator, and of its metric catalog against
   BENCHMARK.json. *)

open Bench_e2e
module Json = Blink_telemetry.Json

let feq = Alcotest.float 1e-12

(* ---------------------------------------------------------------- *)
(* Percentiles *)

let test_tail_percentile () =
  let check n want =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n = %d" n) want
      (Stats.tail_percentile n)
  in
  check 0 None;
  check 19 None;
  check 20 (Some 0.5);
  check 99 (Some 0.5);
  check 100 (Some 0.9);
  check 999 (Some 0.9);
  check 1000 (Some 0.99);
  check 10_000 (Some 0.999);
  check 100_000 (Some 0.9999)

let test_quantiles_distinct () =
  let q = Stats.quantile [| 4.; 1.; 3.; 2. |] in
  Alcotest.check feq "median of an even count" 2.5 (q 0.5);
  Alcotest.check feq "below the first midpoint" 1. (q 0.1);
  Alcotest.check feq "above the last midpoint" 4. (q 0.9);
  (* Hazen: sample i (1-based) of n sits at (i - 0.5) / n. *)
  let xs = Array.init 100 (fun i -> Float.of_int (i + 1)) in
  Alcotest.check feq "p90 of 1..100" 90.5 (Stats.quantile xs 0.9)

let test_quantiles_ties () =
  (* Six samples on tick 1 and four on tick 2: tick 1 sits at 0.3, tick
     2 at 0.8, so the median lies 0.2 / 0.5 of the way between them. *)
  let xs = Array.append (Array.make 6 1.) (Array.make 4 2.) in
  Alcotest.check feq "median between ticks" 1.4 (Stats.median xs);
  (* One more sample on tick 2 moves the median a little, not a tick. *)
  let ys = Array.append xs [| 2. |] in
  let m = Stats.median ys in
  Alcotest.(check bool) "median moves smoothly" true (m > 1.4 && m < 1.6)

let test_summary () =
  let s = Stats.summarize (Array.init 200 (fun i -> Float.of_int i)) in
  Alcotest.(check int) "count" 200 s.Stats.count;
  Alcotest.check feq "median" 99.5 s.Stats.median;
  Alcotest.(check (option (pair (float 0.) (float 1e-9))))
    "tail is p90 at 200 samples" (Some (0.9, 179.5)) s.Stats.tail

(* ---------------------------------------------------------------- *)
(* Ledger *)

(* A clock that reads whatever the test last set. *)
let fake_clock () =
  let t = ref 0. in
  ((fun () -> !t), fun v -> t := v)

let self_of name spans =
  let self = Ledger.self_times spans in
  let total = ref 0. in
  Array.iteri (fun i s -> if s.Ledger.name = name then total := !total +. self.(i)) spans;
  !total

let test_nested_self_time () =
  let clock, set = fake_clock () in
  let led = Ledger.create ~clock () in
  set 0.;
  Ledger.span led ~request:7 "op" (fun () ->
      set 1.;
      Ledger.span led "a" (fun () -> set 4.);
      set 5.;
      Ledger.span led "b" (fun () ->
          set 6.;
          Ledger.span led "c" (fun () -> set 8.);
          set 9.);
      set 10.);
  let spans = Ledger.spans led in
  Alcotest.check feq "op" 3. (self_of "op" spans);
  Alcotest.check feq "a" 3. (self_of "a" spans);
  Alcotest.check feq "b" 2. (self_of "b" spans);
  Alcotest.check feq "c" 2. (self_of "c" spans);
  Alcotest.(check (list int))
    "children inherit the request id" [ 7; 7; 7; 7 ]
    (Array.to_list (Array.map (fun s -> s.Ledger.request) spans));
  Alcotest.(check (list (pair string (float 1e-12))))
    "self time by name" [ ("op", 3.); ("a", 3.); ("b", 2.); ("c", 2.) ]
    (Ledger.self_by_name spans)

let test_overlapping_children () =
  let span name parent start stop =
    { Ledger.name; request = 0; parent; start; stop }
  in
  (* Children [2, 6] and [4, 12] cover [2, 10] of the parent [0, 10]. *)
  let spans = [| span "op" (-1) 0. 10.; span "x" 0 2. 6.; span "y" 0 4. 12. |] in
  Alcotest.check feq "union, clipped to the parent" 2. (Ledger.self_times spans).(0)

let test_relabel () =
  let clock, set = fake_clock () in
  let led = Ledger.create ~clock () in
  let x =
    Ledger.span led "store.lookup" ~relabel:(fun x -> if x > 1 then "codegen.build" else "store.lookup")
      (fun () ->
        set 1.;
        2)
  in
  Alcotest.(check int) "result passes through" 2 x;
  Alcotest.(check string) "renamed from the result" "codegen.build" (Ledger.spans led).(0).Ledger.name

let test_residual () =
  let clock, set = fake_clock () in
  let led = Ledger.create ~clock () in
  let op start layer_for =
    set start;
    Ledger.span led "op" (fun () ->
        Ledger.span led "layer" (fun () -> set (start +. layer_for));
        set (start +. 10.))
  in
  op 0. 9.;
  op 10. 7.;
  set 20.;
  Ledger.span led "setup" (fun () -> set 50.);
  let spans = Ledger.spans led in
  (* 1 + 3 unattributed seconds of 20 traced op seconds; the setup tree
     is left out. *)
  Alcotest.check feq "residual" 0.2 (Ledger.residual_frac ~root:"op" spans);
  Alcotest.check feq "layers plus residual make the op time" 20.
    (List.fold_left (fun acc (_, s) -> acc +. s) 0. (Ledger.self_by_name ~root:"op" spans))

(* ---------------------------------------------------------------- *)
(* Comparator *)

let runs ~scale = Array.init 10 (fun i -> 10. *. scale *. (1. +. (0.002 *. Float.of_int (((i * 7) mod 5) - 2))))

let verdict ?(better = Catalog.Lower) ?(bound = 0.1) parent change =
  (Verdict.judge ~better ~bound ~parent ~change).Verdict.verdict

let check_verdict msg want got =
  Alcotest.(check string) msg (Verdict.name want) (Verdict.name got)

let test_verdicts () =
  let base = runs ~scale:1. in
  check_verdict "identical runs" Verdict.Unchanged (verdict base base);
  check_verdict "1.5x slower" Verdict.Worse (verdict base (runs ~scale:1.5));
  check_verdict "0.7x time, every pair won" Verdict.Improved (verdict base (runs ~scale:0.7));
  check_verdict "within the bound" Verdict.Unchanged (verdict base (runs ~scale:1.05));
  check_verdict "higher is better: 20% lower throughput" Verdict.Worse
    (verdict ~better:Catalog.Higher base (runs ~scale:0.8));
  check_verdict "higher is better: 1.3x throughput" Verdict.Improved
    (verdict ~better:Catalog.Higher base (runs ~scale:1.3));
  check_verdict "fewer than ten pairs never improve" Verdict.Unchanged
    (verdict (Array.sub base 0 5) (Array.sub (runs ~scale:0.7) 0 5))

let test_noisy_parent () =
  (* The parent's own IQR is a third of its median, wider than the
     bound. *)
  let noisy = [| 6.; 8.; 8.; 9.; 10.; 10.; 11.; 12.; 12.; 14. |] in
  let shifted = Array.map (fun x -> x *. 1.15) noisy in
  check_verdict "15% shift inside the noise" Verdict.Unresolved (verdict noisy shifted);
  let far = Array.map (fun x -> x +. 20.) noisy in
  check_verdict "every change run worse than every parent run" Verdict.Worse (verdict noisy far);
  let faster = Array.map (fun x -> x /. 4.) noisy in
  check_verdict "every change run better" Verdict.Improved (verdict noisy faster)

(* A BENCH_e2e.json document holding [op_p50_ms] for each given
   workload. *)
let doc values =
  Json.Obj
    [
      ( "workloads",
        Json.Obj
          (List.map
             (fun (w, v) ->
               (w, Json.Obj [ ("metrics", Json.Obj [ ("op_p50_ms", Json.Obj [ ("value", Json.float v) ]) ]) ]))
             values) );
    ]

let outcome_names rows =
  List.map
    (fun ((m : Catalog.metric), w, o) ->
      ( m.Catalog.name ^ "/" ^ w,
        match o with Verdict.Judged r -> Verdict.name r.Verdict.verdict | Verdict.Missing _ -> "missing" ))
    rows

let test_missing_workload () =
  let docs workloads =
    List.map (fun v -> doc (List.map (fun w -> (w, v)) workloads)) (Array.to_list (runs ~scale:1.))
  in
  let rows = Alcotest.(list (pair string string)) in
  let both = docs [ "allreduce-data"; "service" ] in
  (* The last change run lost service: that row is missing, not judged. *)
  let change = List.filteri (fun i _ -> i < 9) both @ [ doc [ ("allreduce-data", 10.) ] ] in
  Alcotest.check rows "one change run without service"
    [ ("op_p50_ms/allreduce-data", "unchanged"); ("op_p50_ms/service", "missing") ]
    (outcome_names (Verdict.compare_docs ~parent:both ~change));
  (* A workload no document holds gets no row. *)
  let one = docs [ "allreduce-data" ] in
  Alcotest.check rows "absent on both sides"
    [ ("op_p50_ms/allreduce-data", "unchanged") ]
    (outcome_names (Verdict.compare_docs ~parent:one ~change:one))

(* ---------------------------------------------------------------- *)
(* Catalog against BENCHMARK.json *)

let benchmark_json () =
  match Json.parse (In_channel.with_open_text "../../../BENCHMARK.json" In_channel.input_all) with
  | Ok doc -> doc
  | Error e -> Alcotest.fail e

let field key doc = Option.get (Json.member key doc)
let str key doc = Option.get (Json.to_str (field key doc))
let num key doc = Option.get (Json.to_float (field key doc))

let better_name = function Catalog.Lower -> "lower" | Catalog.Higher -> "higher"

let test_catalog_matches () =
  let doc = benchmark_json () in
  let metrics key = Json.to_list (field key doc) in
  let described (m : Catalog.metric) =
    (m.Catalog.name, m.Catalog.unit, better_name m.Catalog.better)
  in
  let listed j = (str "name" j, str "unit" j, str "better" j) in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (List.map described Catalog.end_to_end)
    (List.map listed (metrics "end_to_end"));
  Alcotest.(check (list (float 0.))) "bounds"
    (List.map (fun m -> m.Catalog.bound) Catalog.end_to_end)
    (List.map (num "bound") (metrics "end_to_end"));
  Alcotest.check triple "per_layer" (List.map described Catalog.per_layer)
    (List.map listed (metrics "per_layer"));
  Alcotest.(check (list string)) "workloads" Catalog.workloads
    (List.map (str "name") (Json.to_list (field "workloads" doc)));
  Alcotest.check feq "run_seconds" (Float.of_int Catalog.run_seconds) (num "run_seconds" doc)

let () =
  Alcotest.run "bench_e2e"
    [
      ( "e2e stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "quantiles of distinct samples" `Quick test_quantiles_distinct;
          Alcotest.test_case "quantiles of tied samples" `Quick test_quantiles_ties;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
      ( "e2e ledger",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_nested_self_time;
          Alcotest.test_case "overlapping children" `Quick test_overlapping_children;
          Alcotest.test_case "relabel" `Quick test_relabel;
          Alcotest.test_case "residual" `Quick test_residual;
        ] );
      ( "e2e compare",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "noisy parent" `Quick test_noisy_parent;
          Alcotest.test_case "missing workload" `Quick test_missing_workload;
        ] );
      ("e2e catalog", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalog_matches ]);
    ]
