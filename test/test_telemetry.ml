(* Telemetry: registry semantics, both exporters parsed back, and the
   instrumented pipeline end to end (Blink handle -> plan -> execute). *)

module Telemetry = Blink_telemetry.Telemetry
module Json = Blink_telemetry.Json
module Metrics = Blink_telemetry.Metrics
module Server = Blink_topology.Server
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Critical_path = Blink_sim.Critical_path
module Engine = Blink_sim.Engine

let gpus = [| 1; 4; 5; 6 |]

(* Deterministic clock: strictly increasing 1 ms ticks. *)
let ticking_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 0.001;
    !t

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.str "engine.runs");
        ("value", Json.int 42);
        ("ratio", Json.float 0.125);
        ("flags", Json.List [ Json.Bool true; Json.Null ]);
        ("escaped", Json.str "a\"b\\c\n\t");
      ]
  in
  let reparsed = Json.parse_exn (Json.to_string v) in
  Alcotest.(check bool) "roundtrip" true (reparsed = v);
  Alcotest.(check bool) "trailing garbage rejected" true
    (Result.is_error (Json.parse "{} x"));
  Alcotest.(check bool) "bad syntax rejected" true
    (Result.is_error (Json.parse "{\"a\":}"));
  (* Non-finite floats must still print as valid JSON. *)
  let nan_doc = Json.to_string (Json.List [ Json.Num Float.nan ]) in
  Alcotest.(check bool) "nan prints as null" true
    (Json.parse_exn nan_doc = Json.List [ Json.Null ])

let test_json_parse_result () =
  (* The result-returning parser is the primary API: no exceptions leak
     out of it, and its error strings are positioned and prefixed. *)
  (match Json.parse_result "[1, 2, 3]" with
  | Ok v ->
      Alcotest.(check bool) "parses" true
        (v = Json.List [ Json.Num 1.; Json.Num 2.; Json.Num 3. ])
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg);
  (match Json.parse_result "[1, 2," with
  | Ok _ -> Alcotest.fail "truncated document accepted"
  | Error msg ->
      Alcotest.(check bool) "error carries the Json.parse prefix" true
        (String.length msg > 11 && String.sub msg 0 11 = "Json.parse:"));
  Alcotest.(check bool) "empty input is an error, not an exception" true
    (Result.is_error (Json.parse_result ""));
  (* The raising wrapper fails with the very same message. *)
  let msg =
    match Json.parse_result "{\"a\" 1}" with
    | Error m -> m
    | Ok _ -> Alcotest.fail "missing colon accepted"
  in
  Alcotest.check_raises "parse_exn raises the result's message" (Failure msg)
    (fun () -> ignore (Json.parse_exn "{\"a\" 1}"))

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry () =
  let r = Metrics.create () in
  Metrics.incr r "hits";
  Metrics.incr r ~by:4 "hits";
  Alcotest.(check int) "counter" 5 (Metrics.counter_value r "hits");
  Alcotest.(check int) "missing counter is 0" 0 (Metrics.counter_value r "nope");
  Metrics.incr r ~labels:[ ("collective", "all_reduce") ] "ops";
  Alcotest.(check int) "labels partition series" 0 (Metrics.counter_value r "ops");
  Metrics.set r "chunk" 7.;
  Metrics.set r "chunk" 9.;
  Alcotest.(check (option (float 0.))) "gauge overwrites" (Some 9.)
    (Metrics.gauge_value r "chunk");
  Metrics.observe r "lat" 0.5;
  Metrics.observe r "lat" 1.5;
  (match Metrics.histogram_snapshot r "lat" with
  | Some h ->
      Alcotest.(check int) "histogram count" 2 h.Metrics.count;
      Alcotest.(check (float 1e-9)) "histogram sum" 2.0 h.Metrics.sum
  | None -> Alcotest.fail "histogram missing");
  Alcotest.(check bool) "kind mismatch raises" true
    (match Metrics.incr r "chunk" with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_disabled_noop () =
  let t = Telemetry.disabled in
  Telemetry.incr t "x";
  Telemetry.set_gauge t "y" 1.;
  Telemetry.observe t "z" 1.;
  Telemetry.span t ~start:0. "s";
  Alcotest.(check bool) "not enabled" false (Telemetry.enabled t);
  Alcotest.(check int) "counter stays 0" 0 (Telemetry.counter_value t "x");
  let doc = Json.parse_exn (Telemetry.metrics_json_string t) in
  Alcotest.(check int) "empty counters" 0
    (List.length (Json.to_list (Option.get (Json.member "counters" doc))))

(* ------------------------------------------------------------------ *)
(* Pipeline -> metrics snapshot *)

let run_pipeline ?(trace = false) ?(runs = 3) () =
  let telemetry = Telemetry.create ~trace ~clock:(ticking_clock ()) () in
  let handle = Blink.create ~telemetry Server.dgx1v ~gpus in
  for _ = 1 to runs do
    let plan = Blink.plan handle Plan.All_reduce ~elems:100_000 in
    ignore (Plan.execute ~data:false plan)
  done;
  (telemetry, handle)

let counter_in_doc doc name =
  Json.to_list (Option.get (Json.member "counters" doc))
  |> List.filter_map (fun c ->
         match (Json.member "name" c, Json.member "value" c) with
         | Some n, Some v when Json.to_str n = Some name ->
             Option.map int_of_float (Json.to_float v)
         | _ -> None)
  |> List.fold_left ( + ) 0

let test_metrics_snapshot () =
  let telemetry, handle = run_pipeline ~runs:3 () in
  let doc = Json.parse_exn (Telemetry.metrics_json_string telemetry) in
  let stats = Blink.plan_cache_stats handle in
  Alcotest.(check int) "cache hits: accessor vs exporter" stats.Blink.hits
    (counter_in_doc doc "plan.cache.hits");
  Alcotest.(check int) "cache misses: accessor vs exporter" stats.Blink.misses
    (counter_in_doc doc "plan.cache.misses");
  Alcotest.(check int) "2 hits after 3 identical plans" 2 stats.Blink.hits;
  Alcotest.(check int) "1 compile" 1 stats.Blink.misses;
  Alcotest.(check int) "3 engine runs" 3 (counter_in_doc doc "engine.runs");
  Alcotest.(check bool) "mwu rounds recorded" true
    (counter_in_doc doc "treegen.mwu.rounds" > 0);
  Alcotest.(check bool) "miad probed" true
    (counter_in_doc doc "miad.iterations" > 0);
  (* Per-resource utilization gauges folded in from the engine trace. *)
  let gauges = Json.to_list (Option.get (Json.member "gauges" doc)) in
  let utilizations =
    List.filter
      (fun g ->
        Json.member "name" g
        |> Option.map (fun n -> Json.to_str n = Some "engine.resource.utilization")
        |> Option.value ~default:false)
      gauges
  in
  Alcotest.(check bool) "per-resource utilization gauges present" true
    (List.length utilizations > 0)

let test_plan_cache_eviction () =
  let telemetry = Telemetry.create () in
  let handle =
    Blink.create ~telemetry ~max_cached_plans:2 Server.dgx1v ~gpus
  in
  let chunk_elems = 4096 in
  List.iter
    (fun elems -> ignore (Blink.plan ~chunk_elems handle Plan.All_reduce ~elems))
    [ 10_000; 20_000; 30_000; 10_000 ];
  (* 3 distinct keys through a 2-entry cache: the first key was evicted,
     so re-requesting it misses again. *)
  let stats = Blink.plan_cache_stats handle in
  Alcotest.(check int) "all four calls missed" 4 stats.Blink.misses;
  Alcotest.(check int) "evictions counted" 2
    (Telemetry.counter_value telemetry "plan.cache.evictions")

(* ------------------------------------------------------------------ *)
(* Chrome exporter *)

let test_chrome_trace () =
  let telemetry, _ = run_pipeline ~trace:true ~runs:2 () in
  let doc = Json.parse_exn (Telemetry.chrome_json telemetry) in
  let events = Json.to_list doc in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  let complete =
    List.filter
      (fun e -> Json.member "ph" e |> Option.map Json.to_str = Some (Some "X"))
      events
  in
  let names =
    List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_str)
      complete
  in
  let has prefix =
    List.exists (fun n -> String.length n >= String.length prefix
                          && String.sub n 0 (String.length prefix) = prefix)
      names
  in
  (* Planning spans of every stage AND engine op slices, one document. *)
  List.iter
    (fun p -> Alcotest.(check bool) ("span " ^ p) true (has p))
    [ "treegen.pack"; "treegen.ilp"; "codegen.all_reduce"; "miad.tune";
      "plan.build"; "plan.execute"; "engine.run"; "xfer#" ];
  (* Timestamps: non-negative, finite durations, sorted by start. *)
  let ts_of e = Option.get (Option.bind (Json.member "ts" e) Json.to_float) in
  let prev = ref neg_infinity in
  List.iter
    (fun e ->
      let ts = ts_of e in
      let dur = Option.get (Option.bind (Json.member "dur" e) Json.to_float) in
      Alcotest.(check bool) "ts >= 0" true (ts >= 0.);
      Alcotest.(check bool) "dur >= 0 and finite" true
        (dur >= 0. && Float.is_finite dur);
      Alcotest.(check bool) "sorted by ts" true (ts >= !prev);
      prev := ts)
    complete;
  (* The two time domains land on distinct Chrome processes. *)
  let pid_of e = Option.bind (Json.member "pid" e) Json.to_float in
  Alcotest.(check bool) "planning process present" true
    (List.exists (fun e -> pid_of e = Some 0.) complete);
  Alcotest.(check bool) "engine process present" true
    (List.exists (fun e -> pid_of e = Some 1.) complete)

(* ------------------------------------------------------------------ *)
(* No resources (a trivial topology): an empty link table, so no
   bottleneck, and no crash *)

let test_bottleneck_empty () =
  let prog = Blink_sim.Program.create () in
  let result = Engine.run ~resources:[||] prog in
  let a = Critical_path.attribute ~resources:[||] prog result in
  Alcotest.(check int) "empty link table" 0 (List.length a.Critical_path.links);
  Alcotest.(check int) "no bottleneck" (-1)
    (Critical_path.utilization ~resources:[||] result [||])

(* One fold: the gauges every instrumented execute publishes are the
   link table [Critical_path.attribute] reports, bit for bit, and the
   bottleneck gauge is its head. *)
let test_gauges_equal_link_table () =
  let telemetry = Telemetry.create () in
  let handle = Blink.create ~telemetry Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
  List.iter
    (fun c ->
      let name = Plan.collective_name c in
      let plan = Blink.plan ~chunk_elems:32_768 handle c ~elems:262_144 in
      let timing = (Plan.execute ~data:false plan).Plan.timing in
      let a =
        Critical_path.attribute ~resources:plan.Plan.resources
          plan.Plan.program timing
      in
      let bits x = Int64.bits_of_float x in
      let gauge metric r =
        Option.get
          (Telemetry.gauge_value telemetry
             ~labels:[ ("resource", string_of_int r) ]
             metric)
      in
      Alcotest.(check int) (name ^ ": one row per resource")
        (Array.length plan.Plan.resources)
        (List.length a.Critical_path.links);
      List.iter
        (fun (l : Critical_path.link_report) ->
          let r = l.Critical_path.resource in
          let row = Printf.sprintf "%s resource %d" name r in
          Alcotest.(check int64) (row ^ " busy_s")
            (bits l.Critical_path.busy_s)
            (bits (gauge "engine.resource.busy_s" r));
          Alcotest.(check int64) (row ^ " utilization")
            (bits l.Critical_path.utilization)
            (bits (gauge "engine.resource.utilization" r)))
        a.Critical_path.links;
      Alcotest.(check (option (float 0.)))
        (name ^ ": bottleneck is the head")
        (Some (Float.of_int (List.hd a.Critical_path.links).Critical_path.resource))
        (Telemetry.gauge_value telemetry "engine.bottleneck_resource"))
    Plan.[ All_reduce; Broadcast; Reduce; Gather; All_gather; Reduce_scatter ]

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip and errors" `Quick test_json_roundtrip;
          Alcotest.test_case "parse_result" `Quick test_json_parse_result;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters, gauges, histograms" `Quick test_registry;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "metrics snapshot vs plan cache" `Quick
            test_metrics_snapshot;
          Alcotest.test_case "chrome trace merged timeline" `Quick
            test_chrome_trace;
        ] );
      ( "cache",
        [
          Alcotest.test_case "fifo eviction counted" `Quick
            test_plan_cache_eviction;
        ] );
      ( "trace",
        [
          Alcotest.test_case "bottleneck on empty resources" `Quick
            test_bottleneck_empty;
          Alcotest.test_case "gauges equal the link table" `Quick
            test_gauges_equal_link_table;
        ] );
    ]
