(* The end-to-end benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
     runs one workload in this process and prints its metrics by name
     with units. The last line of stdout is one JSON object with the keys
     correct, attempted, failed and metrics: the end-to-end metrics with
     --trace 0, the per-layer metrics with --trace 1. [--out] also writes
     the workload's full record (both metric sets, sample statistics,
     op counts and the traced spans).

   main.exe run --seed N [--workload NAME]... [--seconds S]
     runs every workload (or the named ones) in its own child process,
     one at a time, traced, and writes BENCH_e2e.json and the Chrome
     trace BENCH_e2e_trace.json.

   main.exe compare --parent FILE... --change FILE...
     pairs the BENCH_e2e.json files of two commits run by run and prints
     a verdict per (end-to-end metric, workload); exits 1 on a worse or
     missing one. --selftest checks the comparator on synthetic runs
     instead. *)

open Bench_e2e
module Json = Blink_telemetry.Json

let refuse_parallel_domains () =
  match Sys.getenv_opt "BLINK_DOMAINS" with
  | Some s -> (
      match Blink_parallel.Pool.parse_domains s with
      | Ok n when n > 1 ->
          Printf.eprintf
            "e2e: BLINK_DOMAINS=%s asks for %d domains; the benchmark runs \
             every workload on one domain, unset it or set it to 1\n"
            s n;
          exit 2
      | Ok _ | Error _ -> ())
  | None -> ()

let nproc () =
  let fallback = Domain.recommended_domain_count () in
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, int_of_string_opt (String.trim line)) with
      | Unix.WEXITED 0, Some n -> n
      | _ -> fallback)
  | exception Unix.Unix_error _ -> fallback

let host () =
  Json.Obj
    [
      ("nproc", Json.int (nproc ()));
      ("recommended_domains", Json.int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.str Sys.ocaml_version);
      ("word_size", Json.int Sys.word_size);
    ]

(* ------------------------------------------------------------------ *)
(* One workload in this process. *)

let e2e_values (o : Workloads.outcome) =
  let s = o.Workloads.ops in
  [
    ("setup_s", Stats.median o.Workloads.setup_times);
    ("op_p50_ms", s.Stats.median *. 1e3);
    ("op_p90_ms", o.Workloads.op_tail *. 1e3);
    ("ops_per_s", o.Workloads.ops_per_s);
    ("heap_peak_mb", o.Workloads.heap_peak_mb);
    ("sim_gbps", o.Workloads.sim_gbps);
  ]

(* Every catalogued per-layer metric, 0. where the workload's layers did
   no work. A name outside the catalog is a benchmark bug. *)
let layer_values (o : Workloads.outcome) =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Catalog.metric) -> m.Catalog.name = name) Catalog.per_layer)
      then failwith ("e2e: uncatalogued per-layer metric " ^ name))
    o.Workloads.layers;
  List.map
    (fun (m : Catalog.metric) ->
      (m.Catalog.name, Option.value ~default:0. (List.assoc_opt m.Catalog.name o.Workloads.layers)))
    Catalog.per_layer

let with_units metrics values =
  List.map
    (fun (m : Catalog.metric) ->
      let v = List.assoc m.Catalog.name values in
      if not (Float.is_finite v) then
        failwith (Printf.sprintf "e2e: %s is not finite" m.Catalog.name);
      (m, v))
    metrics

let metrics_json values =
  Json.Obj
    (List.map
       (fun ((m : Catalog.metric), v) ->
         (m.Catalog.name, Json.Obj [ ("value", Json.float v); ("unit", Json.str m.Catalog.unit) ]))
       values)

(* The result line: printed with every digit ([%.17g]) rather than
   through [Json], which rounds to 12. *)
let result_line ~correct ~attempted ~failed values =
  let metric ((m : Catalog.metric), v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Catalog.name v m.Catalog.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric values))

let summary_json ~unit_scale (s : Stats.summary) =
  Json.Obj
    ([
       ("count", Json.int s.Stats.count);
       ("median", Json.float (s.Stats.median *. unit_scale));
       ("q1", Json.float (s.Stats.q1 *. unit_scale));
       ("q3", Json.float (s.Stats.q3 *. unit_scale));
       ("p90", Json.float (s.Stats.p90 *. unit_scale));
     ]
    @
    match s.Stats.tail with
    | Some (p, v) -> [ ("tail_percentile", Json.float p); ("tail", Json.float (v *. unit_scale)) ]
    | None -> [])

let drive ~workload ~seed ~seconds ~trace ~out =
  refuse_parallel_domains ();
  let run =
    match List.assoc_opt workload Workloads.all with
    | Some f -> f
    | None ->
        Printf.eprintf "e2e: unknown workload %S (one of: %s)\n" workload
          (String.concat ", " Catalog.workloads);
        exit 2
  in
  let t0 = Unix.gettimeofday () in
  let o = run { Workloads.seed; seconds; trace } in
  let wall = Unix.gettimeofday () -. t0 in
  let e2e = with_units Catalog.end_to_end (e2e_values o) in
  let layers = if trace then with_units Catalog.per_layer (layer_values o) else [] in
  Printf.printf "%s  seed %d  %d ops  %s\n" workload seed o.Workloads.attempted
    (if o.Workloads.correct then "outputs correct" else "OUTPUTS WRONG");
  List.iter
    (fun ((m : Catalog.metric), v) -> Printf.printf "  %-34s %14.6g %s\n" m.Catalog.name v m.Catalog.unit)
    (e2e @ layers);
  Option.iter
    (fun file ->
      let record =
        Json.Obj
          [
            ("wall_s", Json.float wall);
            ("counts", Json.Obj (List.map (fun (k, n) -> (k, Json.int n)) o.Workloads.counts));
            ("correct", Json.Bool o.Workloads.correct);
            ("attempted", Json.int o.Workloads.attempted);
            ("failed", Json.int o.Workloads.failed);
            ("op_ms", summary_json ~unit_scale:1e3 o.Workloads.ops);
            ("setup_s", summary_json ~unit_scale:1. (Stats.summarize o.Workloads.setup_times));
            ("metrics", metrics_json e2e);
            ("per_layer", metrics_json layers);
            ( "spans",
              let spans = o.Workloads.spans in
              let origin = if Array.length spans = 0 then 0. else spans.(0).Ledger.start in
              Json.List (Ledger.chrome_events ~pid:0 ~origin spans) );
          ]
      in
      Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string record)))
    out;
  print_endline
    (result_line ~correct:o.Workloads.correct ~attempted:o.Workloads.attempted
       ~failed:o.Workloads.failed
       (if trace then layers else e2e))

(* ------------------------------------------------------------------ *)
(* run: every workload in its own child process. *)

let member_exn key doc =
  match Json.member key doc with
  | Some v -> v
  | None -> failwith ("e2e: record without " ^ key)

let run_all ~seed ~seconds ~names =
  refuse_parallel_domains ();
  let names = if names = [] then Catalog.workloads else names in
  let records =
    List.map
      (fun name ->
        let out = Printf.sprintf "BENCH_e2e_%s.json" name in
        let args =
          [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
             "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "1"; "--out"; out |]
        in
        Printf.eprintf "e2e: running %s\n%!" name;
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
        (match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> ()
        | _ ->
            Printf.eprintf "e2e: workload %s failed\n" name;
            exit 1);
        let record = Json.parse_exn (In_channel.with_open_text out In_channel.input_all) in
        Sys.remove out;
        (name, record))
      names
  in
  let without_spans = function
    | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "spans") fields)
    | j -> j
  in
  let doc =
    Json.Obj
      [
        ("benchmark", Json.str "e2e");
        ("seed", Json.int seed);
        ("seconds", Json.float seconds);
        ("host", host ());
        ("workloads", Json.Obj (List.map (fun (n, r) -> (n, without_spans r)) records));
      ]
  in
  Out_channel.with_open_text "BENCH_e2e.json" (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  let events =
    List.concat
      (List.mapi
         (fun pid (name, r) ->
           Json.Obj
             [
               ("name", Json.str "process_name");
               ("ph", Json.str "M");
               ("pid", Json.int pid);
               ("args", Json.Obj [ ("name", Json.str name) ]);
             ]
           :: List.map
                (function
                  | Json.Obj fields ->
                      Json.Obj
                        (List.map (fun (k, v) -> if k = "pid" then (k, Json.int pid) else (k, v)) fields)
                  | e -> e)
                (Json.to_list (member_exn "spans" r)))
         records)
  in
  Out_channel.with_open_text "BENCH_e2e_trace.json" (fun oc ->
      output_string oc (Json.to_string (Json.Obj [ ("traceEvents", Json.List events) ])));
  Printf.printf "%-16s %-14s %16s  %s\n" "workload" "metric" "value" "unit";
  let ok = ref true in
  List.iter
    (fun (name, r) ->
      if member_exn "correct" r <> Json.Bool true then ok := false;
      List.iter
        (fun (m : Catalog.metric) ->
          let v = member_exn "value" (member_exn m.Catalog.name (member_exn "metrics" r)) in
          Printf.printf "%-16s %-14s %16.6g  %s\n" name m.Catalog.name
            (Option.value ~default:nan (Json.to_float v))
            m.Catalog.unit)
        Catalog.end_to_end)
    records;
  print_endline "wrote BENCH_e2e.json and BENCH_e2e_trace.json";
  if not !ok then begin
    prerr_endline "e2e: a workload's outputs were wrong";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* compare: paired parent/change runs. *)

let outcome_name = function
  | Verdict.Judged r -> Verdict.name r.Verdict.verdict
  | Verdict.Missing _ -> "missing"

let print_rows rows =
  Printf.printf "%-13s %-15s %-30s %-30s %5s %8s  %s\n" "metric" "workload"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "worse" "verdict";
  List.iter
    (fun ((m : Catalog.metric), workload, outcome) ->
      match outcome with
      | Verdict.Judged r ->
          let side (s : Verdict.side) =
            Printf.sprintf "%.5g [%.5g, %.5g]" s.Verdict.median s.Verdict.q1 s.Verdict.q3
          in
          Printf.printf "%-13s %-15s %-30s %-30s %4.0f%% %+7.1f%%  %s\n" m.Catalog.name workload
            (side r.Verdict.parent) (side r.Verdict.change)
            (100. *. r.Verdict.win_share) (100. *. r.Verdict.worse_by)
            (outcome_name outcome)
      | Verdict.Missing { parent; change } ->
          Printf.printf "%-13s %-15s %-30s %-30s %5s %8s  %s\n" m.Catalog.name workload
            (Printf.sprintf "in %d file(s)" parent)
            (Printf.sprintf "in %d file(s)" change)
            "" "" (outcome_name outcome))
    rows

let failing (_, _, outcome) =
  match outcome with
  | Verdict.Judged r -> r.Verdict.verdict = Verdict.Worse
  | Verdict.Missing _ -> true

(* Ten synthetic runs of one workload, [op_p50_ms] jittered by under 1%. *)
let synthetic ~scale =
  List.init 10 (fun i ->
      let v = 10. *. scale *. (1. +. (0.002 *. Float.of_int (((i * 7) mod 5) - 2))) in
      Json.Obj
        [
          ( "workloads",
            Json.Obj
              [
                ( "allreduce-data",
                  Json.Obj
                    [ ("metrics", Json.Obj [ ("op_p50_ms", Json.Obj [ ("value", Json.float v) ]) ]) ]
                );
              ] );
        ])

let selftest () =
  let outcome ~change =
    match Verdict.compare_docs ~parent:(synthetic ~scale:1.) ~change with
    | [ (_, _, o) ] -> o
    | _ -> failwith "e2e compare selftest: expected exactly one row"
  in
  let slower = outcome ~change:(synthetic ~scale:1.5) in
  let same = outcome ~change:(synthetic ~scale:1.) in
  (* The last change run lost the workload. *)
  let dropped =
    outcome
      ~change:(List.filteri (fun i _ -> i < 9) (synthetic ~scale:1.) @ [ Json.Obj [ ("workloads", Json.Obj []) ] ])
  in
  Printf.printf
    "1.5x op_p50_ms slowdown: %s (want worse)\nidentical runs: %s (want unchanged)\n\
     workload missing from one change run: %s (want missing)\n"
    (outcome_name slower) (outcome_name same) (outcome_name dropped);
  match (slower, same, dropped) with
  | Verdict.Judged s, Verdict.Judged u, Verdict.Missing _
    when s.Verdict.verdict = Verdict.Worse && u.Verdict.verdict = Verdict.Unchanged ->
      ()
  | _ -> exit 1

let compare_files ~parent ~change =
  let load f =
    match Json.parse (In_channel.with_open_text f In_channel.input_all) with
    | Ok d -> d
    | Error e ->
        Printf.eprintf "e2e: %s: %s\n" f e;
        exit 2
  in
  if parent = [] || List.length parent <> List.length change then begin
    prerr_endline "e2e compare: give the same number (at least one) of --parent and --change files";
    exit 2
  end;
  let rows = Verdict.compare_docs ~parent:(List.map load parent) ~change:(List.map load change) in
  print_rows rows;
  if List.exists failing rows then exit 1

(* ------------------------------------------------------------------ *)

open Cmdliner

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Seed the workload inputs are generated from.")

let seconds =
  Arg.(
    value
    & opt float (Float.of_int Catalog.run_seconds)
    & info [ "seconds" ] ~docv:"S" ~doc:"Length of each workload's untraced loop.")

let workload_term =
  let workload =
    Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1" ~doc:"Also run the traced pass and report per-layer metrics.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write the full record here.")
  in
  Term.(
    const (fun workload seed seconds trace out -> drive ~workload ~seed ~seconds ~trace ~out)
    $ workload $ seed $ seconds $ trace $ out)

let run_cmd =
  let names =
    Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"NAME" ~doc:"Run only this workload (repeatable).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the workloads in child processes and write BENCH_e2e.json.")
    Term.(const (fun seed seconds names -> run_all ~seed ~seconds ~names) $ seed $ seconds $ names)

let compare_cmd =
  let files name doc = Arg.(value & opt_all file [] & info [ name ] ~docv:"FILE" ~doc) in
  let selftest_flag = Arg.(value & flag & info [ "selftest" ] ~doc:"Check the comparator on synthetic runs.") in
  Cmd.v
    (Cmd.info "compare" ~doc:"Verdicts for paired parent/change BENCH_e2e.json files.")
    Term.(
      const (fun parent change self ->
          if self then selftest () else compare_files ~parent ~change)
      $ files "parent" "A parent run's BENCH_e2e.json (repeatable, in pair order)."
      $ files "change" "The change's run paired with the parent file at the same position."
      $ selftest_flag)

let () =
  exit
    (Cmd.eval
       (Cmd.group ~default:workload_term
          (Cmd.info "main" ~doc:"Blink end-to-end benchmark")
          [ run_cmd; compare_cmd ]))
