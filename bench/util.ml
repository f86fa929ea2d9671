(* Shared helpers for the figure-reproduction harness. *)

module Fabric = Blink_topology.Fabric
module Alloc = Blink_topology.Alloc
module Blink = Blink_core.Blink
module E = Blink_sim.Engine

(* Chunk policy used uniformly across methods in the figures: 1 MiB for
   large buffers, shrinking for small ones so every transfer still
   pipelines. *)
let chunk_for elems = Blink.heuristic_chunk ~elems

let heading fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "\n=== %s ===\n%!" s)
    fmt

let row fmt = Printf.printf fmt

let gbps ~elems (r : E.result) = Blink.algbw_gbps ~elems r

let time_fabric fabric prog =
  E.run ~resources:(Fabric.resources fabric) prog

(* ------------------------------------------------------------------ *)
(* Versioned bench artifacts: every BENCH_*.json goes through one writer
   that stamps the schema version and enough host metadata to judge
   whether two artifacts are comparable (same schema, same word size,
   same compiler) before the regression gate diffs them. *)

module Json = Blink_telemetry.Json

let schema_version = 2

let host_metadata () =
  Json.Obj
    [
      ("hostname", Json.str (Unix.gethostname ()));
      ("os_type", Json.str Sys.os_type);
      ("ocaml_version", Json.str Sys.ocaml_version);
      ("word_size", Json.int Sys.word_size);
      ("recommended_domains", Json.int (Domain.recommended_domain_count ()));
    ]

let bench_file suite = Printf.sprintf "BENCH_%s.json" suite

(* Suites whose artifact was written this run, so [guard_artifact] knows
   whether a dying suite already left its evidence behind. *)
let written : (string, unit) Hashtbl.t = Hashtbl.create 8

let write_bench_json ~suite fields =
  let file = bench_file suite in
  let doc =
    Json.Obj
      (("schema_version", Json.int schema_version)
      :: ("suite", Json.str suite)
      :: ("host", host_metadata ())
      :: fields)
  in
  let oc = open_out file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Hashtbl.replace written suite ();
  row "  wrote %s\n" file

(* CI uploads BENCH_*.json to explain gate failures — so a suite that
   dies on an exception *before* its write (the gates themselves all
   write first, then [exit 1]) must still leave an artifact. The stub
   records the abort and the exception; the non-zero exit still fails
   the job. *)
let guard_artifact ~suite f =
  Hashtbl.remove written suite;
  try f ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    if not (Hashtbl.mem written suite) then
      write_bench_json ~suite
        [
          ("aborted", Json.Bool true);
          ("error", Json.str (Printexc.to_string e));
        ];
    Printexc.raise_with_backtrace e bt

(* A gate: report and exit 1 when [cond] holds. Suites write their
   artifact first, so a failed gate still leaves the evidence behind. *)
let fail_if cond fmt =
  Printf.ksprintf
    (fun msg ->
      if cond then (
        prerr_string msg;
        exit 1))
    fmt

let geomean = function
  | [] -> nan
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. Float.of_int (List.length xs))

let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let idx = int_of_float (p *. Float.of_int (n - 1)) in
      List.nth sorted idx

let config_label gpus = Alloc.to_string (Array.to_list gpus)
