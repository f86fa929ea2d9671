(* The scenario library both front ends run: fault steps pick the replan
   path they report, a cold step agrees with a fresh handle, the
   cold/warm/contingency drill reproduces the verdicts BENCH_cluster.json
   and BENCH_failover.json pin, and the tournament's differential holds
   for every backend at the rates the bench records. *)

module Server = Blink_topology.Server
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Scheduler = Blink_cluster.Scheduler
module Scenario = Blink_scenario.Scenario

let quad = [| 0; 1; 2; 3 |]
let elems = 1_000_000

let path =
  Alcotest.testable
    (fun ppf p -> Format.pp_print_string ppf (Scenario.path_name p))
    ( = )

let planned gpus =
  let h = Blink.create Server.dgx1v ~gpus in
  ignore (Blink.plan h Plan.All_reduce ~elems);
  h

let lines s =
  List.length (List.filter (( <> ) "") (String.split_on_char '\n' s))

(* ---------------------------------------------------------------- *)

let test_inputs () =
  Alcotest.(check int) "100 MB of fp32" 25_000_000 (Scenario.elems_of_mb 100.);
  let inputs = Scenario.rank_inputs ~ranks:3 ~elems:5 in
  Alcotest.(check (array (float 0.)))
    "rank 2" [| 3.; 6.; 9.; 1.; 4. |] inputs.(2);
  let runs = ref 0 in
  let wall, words = Scenario.per_run ~runs:4 (fun () -> incr runs) in
  Alcotest.(check int) "calls" 4 !runs;
  Alcotest.(check bool) "non-negative" true (wall >= 0. && words >= 0.)

let test_ring_coverage () =
  let handle = Blink.create Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  let ring c =
    Scenario.ring_gbps ~mbytes:16. Server.dgx1v ~gpus:[| 1; 4; 5; 6 |]
      (Blink.fabric handle) c
  in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Plan.collective_name c) true
        (match ring c with Some g -> g > 0. | None -> false))
    Plan.[ Broadcast; All_reduce; Gather ];
  List.iter
    (fun c ->
      Alcotest.(check bool) (Plan.collective_name c) true (ring c = None))
    Plan.[ All_gather; Reduce_scatter ]

(* ---------------------------------------------------------------- *)

let test_step_path () =
  let fault = Scenario.Fail_link (0, 1) in
  let warm = Scenario.apply (planned quad) ~elems fault in
  Alcotest.check path "default" `Warm warm.Scenario.path;
  let cold = Scenario.apply ~replan:`Cold (planned quad) ~elems fault in
  Alcotest.check path "cold" `Cold cold.Scenario.path;
  let cont = planned quad in
  ignore
    (Blink.prewarm ~contingencies:`All cont [ (Plan.All_reduce, elems) ]);
  let swapped = Scenario.apply cont ~elems fault in
  Alcotest.check path "prewarmed" `Contingency swapped.Scenario.path;
  Alcotest.(check int) "one hit" 1 (Scenario.contingency_hits cont);
  Alcotest.(check (float 0.))
    "contingency = cold" cold.Scenario.rate_gbps swapped.Scenario.rate_gbps

let test_cold_step_fresh () =
  let handle = planned quad in
  let step =
    Scenario.apply ~replan:`Cold handle ~elems (Scenario.Degrade (0, 2, 0.5))
  in
  let fresh = Scenario.fresh_check handle ~elems in
  Alcotest.(check bool) "matches" true fresh.Scenario.matches;
  Alcotest.(check (float 0.))
    "makespan" step.Scenario.makespan_s fresh.Scenario.fresh_makespan_s

let test_partition_raises () =
  let island = Blink.create ~root:2 Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  match Scenario.apply island ~elems (Scenario.Fail_link (1, 5)) with
  | _ -> Alcotest.fail "partition not detected"
  | exception Blink.Partitioned { unreachable; _ } ->
      Alcotest.(check (list int)) "unreachable" [ 1 ] unreachable

let test_drill () =
  let d = Scenario.drill Server.dgx1v ~gpus:(Array.init 8 Fun.id) ~elems in
  let cold = d.Scenario.cold
  and warm = d.Scenario.warm
  and cont = d.Scenario.contingency in
  Alcotest.(check (pair int int)) "link" (0, 1) d.Scenario.link;
  Alcotest.check path "cold path" `Cold cold.Scenario.path;
  Alcotest.check path "warm path" `Warm warm.Scenario.path;
  Alcotest.check path "contingency path" `Contingency cont.Scenario.path;
  Alcotest.(check (float 1e-9)) "cold rate" 69.875 cold.Scenario.rate_gbps;
  Alcotest.(check (float 1e-9)) "warm rate" 64.5 warm.Scenario.rate_gbps;
  Alcotest.(check (float 0.))
    "contingency rate = cold" cold.Scenario.rate_gbps cont.Scenario.rate_gbps;
  Alcotest.(check (float 0.))
    "contingency makespan = cold" cold.Scenario.makespan_s
    cont.Scenario.makespan_s;
  Alcotest.(check int) "prewarmed" 1 d.Scenario.prewarmed_plans

(* ---------------------------------------------------------------- *)

let trees = function
  | None -> 0
  | Some p -> List.length p.Blink_core.Treegen.trees

let test_tournament_quad () =
  let rows =
    Scenario.tournament ~mbytes:100. Server.dgx1v ~gpus:[| 1; 4; 5; 6 |]
  in
  let expect =
    [
      ("treegen", 40.8, 32.8, 2, 2);
      ("lp-flow", 40.8, 32.8, 2, 2);
    ]
  in
  Alcotest.(check (list string))
    "backends"
    (List.map (fun (n, _, _, _, _) -> n) expect)
    (List.map (fun r -> r.Scenario.backend) rows);
  List.iter2
    (fun (name, bcast, allred, bt, at) (r : Scenario.row) ->
      Alcotest.(check bool) (name ^ " feasible") true r.feasible;
      Alcotest.(check bool) (name ^ " data") true r.data_ok;
      Alcotest.(check (float 0.05)) (name ^ " bcast") bcast r.broadcast_gbps;
      Alcotest.(check (float 0.05)) (name ^ " allred") allred r.all_reduce_gbps;
      Alcotest.(check int) (name ^ " btrees") bt (trees r.directed);
      Alcotest.(check int) (name ^ " atrees") at (trees r.undirected))
    expect rows;
  let out =
    Format.asprintf "%a"
      (fun ppf rows -> Scenario.pp_tournament ppf ~label:"quad" rows)
      rows
  in
  Alcotest.(check int) "header + one line per backend"
    (1 + List.length rows) (lines out)

let contains s sub =
  match Str.search_forward (Str.regexp_string sub) s 0 with
  | _ -> true
  | exception Not_found -> false

let test_service_printer () =
  let r = Scheduler.run_service ~servers:4 ~n_jobs:40 () in
  let out = Format.asprintf "%a" Scenario.pp_service r in
  List.iter
    (fun sub -> Alcotest.(check bool) sub true (contains out sub))
    [ "shared store:"; "observatory"; "stragglers:"; "verification:" ];
  Alcotest.(check bool)
    "tenant and observatory line per tenant" true
    (lines out >= 2 * List.length r.Scheduler.tenants)

let test_analysis_printer () =
  let handle = Blink.create Server.dgx1v ~gpus:quad in
  let r = Blink_core.Analysis.analyze handle Plan.All_reduce ~elems in
  let out = Format.asprintf "%a" Scenario.pp_analysis r in
  List.iter
    (fun sub -> Alcotest.(check bool) sub true (contains out sub))
    [ "edge-cut bound"; "critical path:"; "on the chain" ];
  let phases = Format.asprintf "%a" Scenario.pp_phases (Blink_core.Analysis.phases handle) in
  Alcotest.(check bool) "phases" true (contains phases "mwu");
  Alcotest.(check string) "no phases" ""
    (Format.asprintf "%a" Scenario.pp_phases [])

let () =
  Alcotest.run "scenario"
    [
      ( "inputs",
        [
          Alcotest.test_case "inputs and per-run" `Quick test_inputs;
          Alcotest.test_case "ring coverage" `Quick test_ring_coverage;
        ] );
      ( "failover",
        [
          Alcotest.test_case "step path" `Quick test_step_path;
          Alcotest.test_case "cold step = fresh" `Quick test_cold_step_fresh;
          Alcotest.test_case "partition raises" `Quick test_partition_raises;
          Alcotest.test_case "drill dgx1v-8" `Quick test_drill;
        ] );
      ( "tournament",
        [
          Alcotest.test_case "dgx1v quad rows" `Quick test_tournament_quad;
        ] );
      ( "printers",
        [
          Alcotest.test_case "service report" `Quick test_service_printer;
          Alcotest.test_case "analysis" `Quick test_analysis_printer;
        ] );
    ]
