(* blink: command-line front end.

   $ blink topo    --server dgx1v --gpus 1,4,5,6
   $ blink plan    --server dgx1v --gpus 1,4,5,6 --undirected
   $ blink bench   --server dgx1v --gpus 1,4,5,6 --collective allreduce --mbytes 500
   $ blink train   --server dgx1v --gpus 1,4,5,6 --model resnet50
   $ blink trace   all_reduce --server dgx1v --gpus 1,4,5,6
   $ blink analyze all_reduce --server dgx1v --mbytes 500
   $ blink metrics --server dgx1v --gpus 1,4,5,6 --runs 3 --deterministic
   $ blink replay  all_reduce --server dgx1v --gpus 1,4,5,6 --runs 100
   $ blink prewarm --server dgx1v --gpus 0,1,2,3 --domains 4 --sizes 1,16,64
   $ blink failover --server dgx1v --fail-link 5,6 --degrade 0,3,0.5
   $ blink cluster --jobs 40000 --servers 64 --service --straggler 3,2.0
   $ blink tournament --server dgx1v --gpus 0,1,2,3,4,5,6,7 --mbytes 100 *)

open Cmdliner
module Server = Blink_topology.Server
module Alloc = Blink_topology.Alloc
module Fabric = Blink_topology.Fabric
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Treegen = Blink_core.Treegen
module Telemetry = Blink_telemetry.Telemetry
module Ring = Blink_baselines.Ring
module Codegen = Blink_collectives.Codegen
module Models = Blink_dnn.Models
module Training = Blink_dnn.Training
module Scheduler = Blink_cluster.Scheduler
module Analysis = Blink_core.Analysis
module Recorder = Blink_sim.Recorder
module Critical_path = Blink_sim.Critical_path

(* --------------------------- shared options --------------------------- *)

let server_conv =
  let parse = function
    | "dgx1p" | "dgx-1p" -> Ok Server.dgx1p
    | "dgx1v" | "dgx-1v" -> Ok Server.dgx1v
    | "dgx2" | "dgx-2" -> Ok Server.dgx2
    | s -> Error (`Msg (Printf.sprintf "unknown server %S (dgx1p|dgx1v|dgx2)" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf s.Server.name)

let server_arg =
  Arg.(value & opt server_conv Server.dgx1v & info [ "server" ] ~docv:"MACHINE"
         ~doc:"Machine model: dgx1p, dgx1v or dgx2.")

let gpus_conv =
  let parse s =
    try
      Ok (String.split_on_char ',' s |> List.map int_of_string |> Array.of_list)
    with _ -> Error (`Msg "expected a comma-separated GPU list, e.g. 1,4,5,6")
  in
  Arg.conv
    ( parse,
      fun ppf gpus ->
        Format.pp_print_string ppf
          (String.concat "," (List.map string_of_int (Array.to_list gpus))) )

let gpus_arg =
  Arg.(value & opt gpus_conv [| 0; 1; 2; 3; 4; 5; 6; 7 |]
       & info [ "gpus" ] ~docv:"IDS" ~doc:"Allocated GPU ids, e.g. 1,4,5,6.")

let mbytes_arg =
  Arg.(value & opt float 500. & info [ "mbytes" ] ~docv:"MB" ~doc:"Buffer size in MB.")

(* ------------------------------- topo -------------------------------- *)

let topo server gpus =
  Format.printf "%a@." Server.pp server;
  let list = Array.to_list gpus in
  Format.printf "allocation {%s}: NVLink-%s@." (Alloc.to_string list)
    (if Alloc.nvlink_connected server list then "connected" else "DISCONNECTED");
  Array.iter
    (fun u ->
      let links =
        Array.to_list gpus
        |> List.filter_map (fun v ->
               if v <> u then
                 match Server.pair_links server u v with
                 | Some (kind, k) ->
                     Some (Printf.sprintf "%d (%dx %s)" v k
                             (Blink_topology.Link.to_string kind))
                 | None -> None
               else None)
      in
      Format.printf "  gpu %d -> %s@." u
        (if links = [] then "(no NVLink peers in allocation)"
         else String.concat ", " links))
    gpus;
  if server.Server.nvswitch = None then begin
    let g = Server.nvlink_digraph server ~gpus in
    if Blink_graph.Digraph.is_connected_from g ~root:0 then begin
      let root = Treegen.best_root g in
      Format.printf "optimal broadcast rate from gpu %d: %.1f GB/s@."
        gpus.(root)
        (Blink_graph.Maxflow.broadcast_rate g ~root)
    end
  end;
  let unique = Alloc.unique_configs server ~sizes:[ 3; 4; 5; 6; 7; 8 ] in
  Format.printf "(%s has %d unique connected 3-8 GPU configurations)@."
    server.Server.name (List.length unique)

let topo_cmd =
  Cmd.v (Cmd.info "topo" ~doc:"Probe a machine's interconnect for an allocation")
    Term.(const topo $ server_arg $ gpus_arg)

(* ------------------------------- plan -------------------------------- *)

let plan server gpus undirected =
  let g = Server.nvlink_digraph server ~gpus in
  let root = Treegen.best_root g in
  let packing =
    if undirected then Treegen.plan_undirected g ~root else Treegen.plan g ~root
  in
  Format.printf "%a@." Treegen.pp packing;
  List.iteri
    (fun i t ->
      let hops =
        List.map
          (fun id ->
            let e = Blink_graph.Digraph.edge g id in
            Printf.sprintf "%d->%d" gpus.(e.Blink_graph.Digraph.src)
              gpus.(e.Blink_graph.Digraph.dst))
          t.Treegen.edges
      in
      Format.printf "  tree %d (%.1f GB/s): %s@." i t.Treegen.weight
        (String.concat " " hops))
    packing.Treegen.trees

let undirected_arg =
  Arg.(value & flag & info [ "undirected" ]
       ~doc:"Pack undirected (duplex-link) trees, the AllReduce model.")

let plan_cmd =
  Cmd.v (Cmd.info "plan" ~doc:"Run TreeGen (MWU packing + ILP minimization)")
    Term.(const plan $ server_arg $ gpus_arg $ undirected_arg)

(* ------------------------------- bench ------------------------------- *)

let collective_arg =
  Arg.(value & opt (enum [ ("broadcast", `Broadcast); ("allreduce", `All_reduce);
                           ("gather", `Gather); ("allgather", `All_gather) ])
         `All_reduce
       & info [ "collective" ] ~docv:"OP" ~doc:"broadcast|allreduce|gather|allgather")

let bench server gpus collective mbytes =
  let handle = Blink.create server ~gpus in
  let elems = int_of_float (mbytes *. 1e6 /. Blink.bytes_per_elem) in
  let chunk = Blink.heuristic_chunk ~elems in
  let plan_collective =
    match collective with
    | `Broadcast -> Plan.Broadcast
    | `All_reduce -> Plan.All_reduce
    | `Gather -> Plan.Gather
    | `All_gather -> Plan.All_gather
  in
  let plan = Blink.plan ~chunk_elems:chunk handle plan_collective ~elems in
  let blink =
    Blink.algbw_gbps ~elems (Plan.execute ~data:false plan).Plan.timing
  in
  Format.printf "blink: %.1f GB/s@." blink;
  if server.Server.nvswitch = None then begin
    let channels = Ring.nccl_channels server ~gpus in
    let spec = Codegen.spec ~chunk_elems:chunk (Blink.fabric handle) in
    let prog, _ =
      match collective with
      | `Broadcast -> Ring.broadcast spec ~root:(Blink.root handle) ~elems ~channels
      | `All_reduce -> Ring.all_reduce spec ~elems ~channels
      | `Gather | `All_gather -> Ring.gather spec ~root:(Blink.root handle) ~elems ~channels
    in
    let nccl = Blink.algbw_gbps ~elems (Blink.time handle prog) in
    Format.printf "nccl-style rings (%s): %.1f GB/s   -> blink is %.2fx@."
      (match channels.Ring.cls with
      | Fabric.Pcie -> "pcie fallback"
      | Fabric.Nv -> "nvlink"
      | Fabric.Net -> "network")
      nccl (blink /. nccl)
  end

let bench_cmd =
  Cmd.v (Cmd.info "bench" ~doc:"Time a collective on the simulated interconnect")
    Term.(const bench $ server_arg $ gpus_arg $ collective_arg $ mbytes_arg)

(* ------------------------------- train ------------------------------- *)

let model_arg =
  Arg.(value & opt (enum (List.map (fun m -> (m.Models.name, m)) Models.all))
         Models.resnet50
       & info [ "model" ] ~docv:"MODEL" ~doc:"alexnet|resnet18|resnet50|vgg16")

let train server gpus model =
  let handle = Blink.create server ~gpus in
  let fabric = Blink.fabric handle in
  let blink_backend = Training.plan_backend handle in
  let channels = Ring.nccl_channels server ~gpus in
  let nccl_backend =
    Training.memoized_backend ~label:"nccl" (fun bytes ->
        let elems = max 64 (int_of_float (bytes /. Training.bytes_per_elem)) in
        let spec =
          Codegen.spec ~chunk_elems:(Blink.heuristic_chunk ~elems) fabric
        in
        let prog, _ = Ring.all_reduce spec ~elems ~channels in
        (Blink.time handle prog).Blink_sim.Engine.makespan)
  in
  let show label backend =
    let it = Training.iteration model backend in
    Format.printf "%-8s iteration %.1f ms (compute %.1f + exposed comm %.1f, overhead %.1f%%)@."
      label it.Training.iteration_ms it.Training.compute_ms
      it.Training.exposed_comm_ms (Training.overhead_percent it);
    it
  in
  let nccl = show "nccl" nccl_backend in
  let blink = show "blink" blink_backend in
  Format.printf "blink reduces iteration time by %.1f%%, hides %.1f%% of exposed comm@."
    (Training.speedup_percent ~baseline:nccl blink)
    (Training.comm_reduction_percent ~baseline:nccl blink)

let train_cmd =
  Cmd.v (Cmd.info "train" ~doc:"Model a data-parallel training iteration")
    Term.(const train $ server_arg $ gpus_arg $ model_arg)

(* --------------------------- trace / metrics --------------------------- *)

let plan_collective_conv =
  let parse = function
    | "all_reduce" | "allreduce" -> Ok Plan.All_reduce
    | "broadcast" -> Ok Plan.Broadcast
    | "reduce" -> Ok Plan.Reduce
    | "gather" -> Ok Plan.Gather
    | "all_gather" | "allgather" -> Ok Plan.All_gather
    | "reduce_scatter" | "reducescatter" -> Ok Plan.Reduce_scatter
    | s ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown collective %S \
                (all_reduce|broadcast|reduce|gather|all_gather|reduce_scatter)"
               s))
  in
  Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf (Plan.collective_name c))

let trace_collective_arg =
  Arg.(value & pos 0 plan_collective_conv Plan.All_reduce
       & info [] ~docv:"COLLECTIVE"
           ~doc:"all_reduce|broadcast|reduce|gather|all_gather|reduce_scatter")

let small_mbytes_arg =
  Arg.(value & opt float 64. & info [ "mbytes" ] ~docv:"MB"
       ~doc:"Buffer size in MB.")

(* Full pipeline under one tracing telemetry handle: handle creation runs
   TreeGen, the uncached plan lookup runs MIAD tuning + CodeGen, and the
   execute replays the program through the engine — so the exported
   timeline carries the planning spans (wall clock) next to the engine's
   per-op slices (simulated time). *)
let trace collective server gpus mbytes out =
  let telemetry = Telemetry.create ~trace:true () in
  let handle = Blink.create ~telemetry server ~gpus in
  let elems = int_of_float (mbytes *. 1e6 /. Blink.bytes_per_elem) in
  let plan = Blink.plan handle collective ~elems in
  let exec = Plan.execute ~data:false plan in
  let result = exec.Plan.timing in
  Format.printf "%s of %.0f MB: makespan %.3f ms (%.1f GB/s), chunk %d elems@."
    (Plan.collective_name collective) mbytes
    (result.Blink_sim.Engine.makespan *. 1e3)
    (Blink.algbw_gbps ~elems result)
    plan.Plan.chunk_elems;
  let attribution =
    Critical_path.attribute ~resources:plan.Plan.resources plan.Plan.program
      result
  in
  List.iteri
    (fun i (l : Critical_path.link_report) ->
      if i < 5 then
        Format.printf "  resource %d: %.0f%% utilized@." l.Critical_path.resource
          (100. *. l.Critical_path.utilization))
    attribution.Critical_path.links;
  let oc = open_out out in
  output_string oc (Telemetry.chrome_json telemetry);
  close_out oc;
  Format.printf
    "chrome trace written to %s (load in Perfetto / chrome://tracing): \
     planning spans on the wall-clock track, engine ops on the \
     simulated-time track@."
    out

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the full plan+execute pipeline and export a merged Chrome trace")
    Term.(const trace $ trace_collective_arg $ server_arg $ gpus_arg
          $ small_mbytes_arg
          $ Arg.(value & opt string "blink_trace.json"
                 & info [ "out" ] ~docv:"FILE" ~doc:"Output JSON path."))

(* ------------------------------ analyze ------------------------------ *)

(* Why does this collective take the time it takes? One timing pass,
   attributed: the bottleneck links (utilization/slack), the critical-path
   op chain, achieved rate vs the topology's edge-cut bound, and the
   planner's phase timers that decompose the replan cost. *)
let analyze collective server gpus mbytes flight =
  let telemetry = Telemetry.create () in
  let handle = Blink.create ~telemetry server ~gpus in
  let elems = int_of_float (mbytes *. 1e6 /. Blink.bytes_per_elem) in
  let r = Analysis.analyze handle collective ~elems in
  Format.printf "%s of %.0f MB on %s {%s}: makespan %.3f ms (chunk %d elems)@."
    (Plan.collective_name collective)
    mbytes server.Server.name
    (Alloc.to_string (Array.to_list gpus))
    (r.Analysis.makespan_s *. 1e3)
    r.Analysis.chunk_elems;
  Format.printf
    "achieved %.1f GB/s vs %.1f GB/s edge-cut bound: %.1f%% of what the \
     topology permits@."
    r.Analysis.achieved_gbps r.Analysis.bound_gbps
    (100. *. r.Analysis.efficiency);
  Format.printf "bottleneck link(s), the run's rate-defining set:@.";
  List.iter
    (fun l ->
      Format.printf "  %-22s %5.1f%% utilized, %.3f ms slack%s@."
        l.Analysis.li_label
        (100. *. l.Analysis.li_utilization)
        (l.Analysis.li_slack_s *. 1e3)
        (if l.Analysis.li_on_critical_path then "  [on critical path]" else ""))
    r.Analysis.bottlenecks;
  Format.printf
    "critical path: %d ops — transfer %.3f ms, compute %.3f ms, delay %.3f \
     ms, wait %.3f ms@."
    r.Analysis.critical_ops
    (r.Analysis.transfer_s *. 1e3)
    (r.Analysis.compute_s *. 1e3)
    (r.Analysis.delay_s *. 1e3)
    (r.Analysis.wait_s *. 1e3);
  List.iteri
    (fun i (label, s) ->
      if i < 3 then
        Format.printf "  %d. %-22s %.3f ms on the chain@." (i + 1) label
          (s *. 1e3))
    r.Analysis.critical_resources;
  (match Analysis.phases handle with
  | [] -> ()
  | phases ->
      Format.printf "planner phases (this handle's replan cost, decomposed):@.";
      List.iter
        (fun (p : Analysis.phase) ->
          Format.printf "  %-22s %2d call(s) %8.2f ms@." p.Analysis.phase
            p.Analysis.calls
            (p.Analysis.total_s *. 1e3))
        phases);
  match flight with
  | None -> ()
  | Some path ->
      (* The cached plan's flight recorder was populated by the timing
         pass analyze just ran; replay it into a tracing registry and
         export the Chrome view. *)
      let plan = Blink.plan handle collective ~elems in
      let recorder = plan.Plan.recorder in
      let tracer = Telemetry.create ~trace:true () in
      let slices = Recorder.dump_slices recorder tracer in
      let oc = open_out path in
      output_string oc (Telemetry.chrome_json tracer);
      close_out oc;
      Format.printf
        "flight recorder: %d events captured (%d dropped), %d slices \
         written to %s@."
        (Recorder.recorded recorder)
        (Recorder.dropped recorder)
        slices path

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Attribute a collective's makespan: bottleneck links, critical \
          path, achieved rate vs the topology's edge-cut bound, and the \
          planner phase breakdown")
    Term.(const analyze $ trace_collective_arg $ server_arg $ gpus_arg
          $ mbytes_arg
          $ Arg.(value & opt (some string) None
                 & info [ "flight" ] ~docv:"FILE"
                     ~doc:"Also dump the plan's flight-recorder ring as a \
                           Chrome trace to $(docv)."))

let metrics collective server gpus mbytes runs out deterministic =
  let telemetry =
    (* A constant clock makes every wall-time histogram observe zero, so
       two runs of the same workload produce byte-identical snapshots
       (the series themselves are emitted in sorted order). *)
    if deterministic then Telemetry.create ~clock:(fun () -> 0.) ()
    else Telemetry.create ()
  in
  let handle = Blink.create ~telemetry server ~gpus in
  let elems = int_of_float (mbytes *. 1e6 /. Blink.bytes_per_elem) in
  for _ = 1 to max 1 runs do
    let plan = Blink.plan handle collective ~elems in
    ignore (Plan.execute ~data:false plan)
  done;
  let stats = Blink.plan_cache_stats handle in
  Format.eprintf "%d runs of %s: plan cache %d hits / %d misses@."
    runs (Plan.collective_name collective) stats.Blink.hits stats.Blink.misses;
  let json = Telemetry.metrics_json_string telemetry in
  match out with
  | None -> print_string json; print_newline ()
  | Some path ->
      let oc = open_out path in
      output_string oc json;
      close_out oc;
      Format.eprintf "metrics snapshot written to %s@." path

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a collective repeatedly and print the telemetry metrics snapshot")
    Term.(const metrics $ trace_collective_arg $ server_arg $ gpus_arg
          $ small_mbytes_arg
          $ Arg.(value & opt int 3 & info [ "runs" ] ~docv:"N"
                 ~doc:"Plan+execute repetitions (repeats hit the plan cache).")
          $ Arg.(value & opt (some string) None
                 & info [ "out" ] ~docv:"FILE"
                     ~doc:"Write the JSON here instead of stdout.")
          $ Arg.(value & flag
                 & info [ "deterministic" ]
                     ~doc:"Freeze the telemetry clock so two runs of the \
                           same workload produce byte-identical snapshots \
                           (wall-time histograms observe zero)."))

(* ------------------------------ replay ------------------------------- *)

(* Steady-state cost of re-executing one compiled plan: per-execute wall
   clock and minor-heap words over N pooled replays, plus the prepares/
   runs counters showing the schedule was lowered once. *)
let replay collective server gpus mbytes runs data =
  let telemetry = Telemetry.create () in
  let handle = Blink.create ~telemetry server ~gpus in
  let elems = int_of_float (mbytes *. 1e6 /. Blink.bytes_per_elem) in
  let plan = Blink.plan handle collective ~elems in
  let inputs =
    Array.init plan.Plan.n_ranks (fun r ->
        Array.init elems (fun i -> Float.of_int (((i * 3) + (r * 7)) mod 11)))
  in
  (* Reload every rank's input each iteration, as a training loop would:
     this is the steady state the pooled memory is built for. *)
  let load mem (layout : Codegen.layout) =
    Array.iteri
      (fun r values ->
        Blink_sim.Semantics.write mem ~node:r ~buf:layout.Codegen.data.(r)
          values)
      inputs
  in
  let exec () =
    if data then ignore (Plan.execute ~load plan)
    else ignore (Plan.execute ~data:false plan)
  in
  exec ();
  (* warm: sizes the pool, compiles the data kernels *)
  let runs = max 1 runs in
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    exec ()
  done;
  let words = (Gc.minor_words () -. w0) /. Float.of_int runs in
  let wall = (Unix.gettimeofday () -. t0) /. Float.of_int runs in
  Format.printf "%s of %.0f MB, %d steady-state executes (%s pass)@."
    (Plan.collective_name collective) mbytes runs
    (if data then "timing+data" else "timing-only");
  Format.printf "  per execute: %.3f ms wall, %.0f minor words@."
    (wall *. 1e3) words;
  Format.printf "  simulated makespan %.3f ms, chunk %d elems@."
    ((Plan.execute ~data:false plan).Plan.timing.Blink_sim.Engine.makespan
    *. 1e3)
    plan.Plan.chunk_elems;
  Format.printf
    "  engine.prepares %d vs engine.runs %d (schedule lowered once, \
     replayed thereafter)@."
    (Telemetry.counter_value telemetry "engine.prepares")
    (Telemetry.counter_value telemetry "engine.runs")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Measure steady-state plan re-execution cost (wall + allocation)")
    Term.(const replay $ trace_collective_arg $ server_arg $ gpus_arg
          $ small_mbytes_arg
          $ Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N"
                 ~doc:"Steady-state executes to average over.")
          $ Arg.(value & opt bool true
                 & info [ "data" ] ~docv:"BOOL"
                     ~doc:"Include the data-replay pass (false = timing \
                           only, the allocation-free fast path)."))

(* ------------------------------ prewarm ------------------------------ *)

module Pool = Blink_parallel.Pool

(* Batch-compile the plan cache across domains, then show the pool gauges
   and cache counters the run produced — the CLI face of [Blink.prewarm]. *)
let prewarm server gpus domains async mbytes_list =
  let telemetry = Telemetry.create () in
  let handle = Blink.create ~telemetry server ~gpus in
  let keys =
    List.concat_map
      (fun mb ->
        let elems = int_of_float (mb *. 1e6 /. Blink.bytes_per_elem) in
        [ (Plan.All_reduce, elems); (Plan.Broadcast, elems) ])
      mbytes_list
  in
  let pool = Pool.create ?domains ~telemetry () in
  let t0 = Unix.gettimeofday () in
  let built =
    if async then begin
      (* Overlap demo: submit the pipeline, keep the calling domain busy
         with plan replays (the training-loop stand-in), then redeem. *)
      let job = Blink.prewarm_async ~pool handle keys in
      let live = Blink.create server ~gpus in
      let plan = Blink.plan live Plan.All_reduce ~elems:262_144 in
      let replays = ref 0 in
      let t_fg = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t_fg < 0.05 do
        ignore (Blink_core.Plan.execute ~data:false plan);
        incr replays
      done;
      let n = Blink.prewarm_await handle job in
      Format.printf "foreground replayed %d plans while prewarm ran@."
        !replays;
      n
    end
    else Blink.prewarm ~pool handle keys
  in
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "prewarmed %d plans (%d keys) in %.1f ms on %d domain(s)%s@."
    built (List.length keys) (dt *. 1e3) (Pool.domains pool)
    (if async then " [async]" else "");
  Format.printf "pool: %d tasks, busy peak %d@." (Pool.tasks_run pool)
    (Pool.busy_peak pool);
  Pool.shutdown pool;
  let stats = Blink.plan_cache_stats handle in
  Format.printf "plan cache now: %d hits / %d misses@." stats.Blink.hits
    stats.Blink.misses;
  (* Prove the point: every prewarmed key is now a cache hit. *)
  List.iter (fun (c, elems) -> ignore (Blink.plan handle c ~elems)) keys;
  let stats' = Blink.plan_cache_stats handle in
  Format.printf "after re-requesting all keys: %d hits / %d misses@."
    stats'.Blink.hits stats'.Blink.misses

let mbytes_list_arg =
  Arg.(value
       & opt (list float) [ 1.; 4.; 16.; 64. ]
       & info [ "sizes" ] ~docv:"MB,MB,..."
           ~doc:"Buffer sizes in MB to prewarm (AllReduce and Broadcast each).")

let domains_arg =
  Arg.(value
       & opt (some int) None
       & info [ "domains" ] ~docv:"N"
           ~doc:"Pool size (default: BLINK_DOMAINS or the recommended \
                 domain count).")

let async_arg =
  Arg.(value & flag
       & info [ "async" ]
           ~doc:"Pipeline the prewarm behind foreground plan replays \
                 (Blink.prewarm_async / prewarm_await) instead of blocking.")

let prewarm_cmd =
  Cmd.v
    (Cmd.info "prewarm"
       ~doc:"Batch-compile the plan cache across domains (Blink.prewarm)")
    Term.(const prewarm $ server_arg $ gpus_arg $ domains_arg $ async_arg
          $ mbytes_list_arg)

(* ------------------------------ failover ----------------------------- *)

let link_pair_conv =
  let parse s =
    match String.split_on_char ',' s |> List.map int_of_string with
    | [ u; v ] -> Ok (u, v)
    | _ | (exception _) ->
        Error (`Msg "expected a GPU pair, e.g. --fail-link 5,6")
  in
  Arg.conv (parse, fun ppf (u, v) -> Format.fprintf ppf "%d,%d" u v)

let degrade_conv =
  let parse s =
    match String.split_on_char ',' s with
    | [ u; v; f ] -> (
        try Ok (int_of_string u, int_of_string v, float_of_string f)
        with _ -> Error (`Msg "expected GPU,GPU,FACTOR, e.g. --degrade 0,3,0.5"))
    | _ -> Error (`Msg "expected GPU,GPU,FACTOR, e.g. --degrade 0,3,0.5")
  in
  Arg.conv (parse, fun ppf (u, v, f) -> Format.fprintf ppf "%d,%d,%g" u v f)

(* Report faults to a live handle one at a time, printing the replan cost
   and the surviving packing rate after each, then prove the end state
   matches a fresh handle built directly on the degraded fabric. A fault
   that partitions the allocation exits with the typed error's report. *)
let failover server gpus mbytes fail_links degrades fail_gpus cold
    contingencies =
  let telemetry = Telemetry.create () in
  let handle = Blink.create ~telemetry server ~gpus in
  let elems = int_of_float (mbytes *. 1e6 /. Blink.bytes_per_elem) in
  let sim_ms h =
    let plan = Blink.plan h Plan.All_reduce ~elems in
    (Plan.execute ~data:false plan).Plan.timing.Blink_sim.Engine.makespan
    *. 1e3
  in
  Format.printf "healthy: %.1f GB/s packing rate, %.3f ms all_reduce of %.0f MB@."
    (Blink.all_reduce_rate handle) (sim_ms handle) mbytes;
  let replan = if cold then `Cold else `Warm in
  if contingencies then begin
    let t0 = Unix.gettimeofday () in
    let n =
      Blink.prewarm ~contingencies:`All handle [ (Plan.All_reduce, elems) ]
    in
    Format.printf "prewarmed %d one-link-down contingency plan(s) in %.1f ms@."
      n
      ((Unix.gettimeofday () -. t0) *. 1e3)
  end;
  let mutations =
    List.map (fun (u, v) -> (Printf.sprintf "fail-link %d-%d" u v,
                             fun () -> Blink.fail_link ~replan handle ~u ~v))
      fail_links
    @ List.map (fun (u, v, f) -> (Printf.sprintf "degrade %d-%d to %g" u v f,
                                  fun () ->
                                    Blink.degrade_link ~replan handle ~u ~v
                                      ~factor:f))
        degrades
    @ List.map (fun g -> (Printf.sprintf "fail-gpu %d" g,
                          fun () -> Blink.fail_gpu handle ~gpu:g))
        fail_gpus
  in
  if mutations = [] then
    Format.printf "(no faults requested: pass --fail-link, --degrade or \
                   --fail-gpu)@."
  else begin
    try
      List.iter
        (fun (label, apply) ->
          let hits0 =
            Telemetry.counter_value telemetry "plan.contingency.hits"
          in
          let t0 = Unix.gettimeofday () in
          apply ();
          let dt = Unix.gettimeofday () -. t0 in
          let path =
            if Telemetry.counter_value telemetry "plan.contingency.hits"
               > hits0
            then "contingency"
            else if cold then "cold"
            else "warm"
          in
          Format.printf "%-22s replanned in %6.1f ms (%s): %.1f GB/s, %.3f \
                         ms all_reduce@."
            label (dt *. 1e3) path (Blink.all_reduce_rate handle)
            (sim_ms handle))
        mutations;
      Format.printf "counters: fault.injected %d, plan.cache.invalidations %d@."
        (Telemetry.counter_value telemetry "fault.injected")
        (Telemetry.counter_value telemetry "plan.cache.invalidations");
      (* Cross-check: a handle born on the degraded fabric agrees.
         Cold (and contingency-served) replans must match bit for bit;
         a warm replan keeps surviving trees, so its packing may
         legitimately trade some rate for the sub-10ms replan, and the
         comparison is informational. *)
      let fresh =
        Blink.create ~link_faults:(Blink.link_faults handle) server
          ~gpus:(Blink.gpus handle)
      in
      let agree =
        Blink.all_reduce_rate fresh = Blink.all_reduce_rate handle
        && sim_ms fresh = sim_ms handle
      in
      if agree then
        Format.printf "fresh handle on the degraded fabric matches exactly@."
      else if cold then begin
        Format.printf "fresh handle on the degraded fabric DIVERGES (bug)@.";
        exit 1
      end
      else
        Format.printf
          "fresh handle on the degraded fabric: %.1f GB/s vs %.1f GB/s warm \
           (surviving trees kept; pass --cold for bit-identity)@."
          (Blink.all_reduce_rate fresh)
          (Blink.all_reduce_rate handle)
    with Blink.Partitioned { alive; unreachable } ->
      Format.printf
        "fabric partitioned: gpus {%s} can no longer reach {%s}; \
         shrink the allocation (e.g. --gpus %s) or repair the link@."
        (String.concat "," (List.map string_of_int alive))
        (String.concat "," (List.map string_of_int unreachable))
        (String.concat "," (List.map string_of_int alive));
      exit 2
  end

let failover_cmd =
  Cmd.v
    (Cmd.info "failover"
       ~doc:"Inject link/GPU faults into a live handle and watch it replan")
    Term.(const failover $ server_arg $ gpus_arg $ small_mbytes_arg
          $ Arg.(value & opt_all link_pair_conv []
                 & info [ "fail-link" ] ~docv:"U,V"
                     ~doc:"Mark the U-V NVLink pair down (repeatable).")
          $ Arg.(value & opt_all degrade_conv []
                 & info [ "degrade" ] ~docv:"U,V,F"
                     ~doc:"Degrade the U-V pair to fraction F of its \
                           bandwidth (repeatable).")
          $ Arg.(value & opt_all int []
                 & info [ "fail-gpu" ] ~docv:"G"
                     ~doc:"Drop GPU G from the allocation (repeatable).")
          $ Arg.(value & flag
                 & info [ "cold" ]
                     ~doc:"Replan each fault from scratch instead of the \
                           warm incremental path.")
          $ Arg.(value & flag
                 & info [ "prewarm-contingencies" ]
                     ~doc:"Precompute every one-link-down plan before \
                           injecting faults, so a matching failure is a \
                           cache swap."))

(* ------------------------------ cluster ------------------------------ *)

let straggler_conv =
  let parse s =
    match String.split_on_char ',' s with
    | [ t; f ] -> (
        try Ok (int_of_string t, float_of_string f)
        with _ -> Error (`Msg "expected TENANT,FACTOR, e.g. --straggler 3,2.0"))
    | _ -> Error (`Msg "expected TENANT,FACTOR, e.g. --straggler 3,2.0")
  in
  Arg.conv (parse, fun ppf (t, f) -> Format.fprintf ppf "%d,%g" t f)

let cluster jobs servers service tenants quota_frac max_plans verify_every
    straggler straggler_epsilon =
  if not service then begin
    let stats =
      Scheduler.simulate ~servers (Scheduler.generate_trace ~n_jobs:jobs ())
    in
    Format.printf "%d multi-GPU jobs, %d fragmented across servers, %d rejected@."
      stats.Scheduler.multi_gpu_jobs stats.Scheduler.fragmented_jobs stats.Scheduler.rejected;
    for g = 1 to 8 do
      Format.printf "  %d GPUs/server: %5.1f%%@." g (100. *. Scheduler.fraction stats g)
    done
  end
  else begin
    let r =
      Scheduler.run_service ~servers ~n_tenants:tenants ~quota_frac
        ?max_store_plans:max_plans ~verify_every ?straggler
        ~straggler_epsilon ~n_jobs:jobs ()
    in
    let st = r.Scheduler.store in
    Format.printf
      "%d jobs over %d tenants: %d admitted, %d rejected (capacity), %d \
       rejected (quota)@."
      r.Scheduler.jobs tenants r.Scheduler.admitted_jobs
      r.Scheduler.rejected_capacity_jobs r.Scheduler.rejected_quota_jobs;
    Format.printf "slices: %d planned, %d single-gpu, %d pcie-only@."
      r.Scheduler.planned_slices r.Scheduler.single_gpu_slices
      r.Scheduler.pcie_slices;
    Format.printf
      "shared store: %d hits / %d misses (%.1f%% cross-job hit rate), %d \
       unique fingerprints, %d live plans, %d evictions@."
      st.Blink_store.Store.hits st.Blink_store.Store.misses
      (100. *. r.Scheduler.hit_rate)
      r.Scheduler.unique_fingerprints st.Blink_store.Store.entries
      st.Blink_store.Store.evictions;
    Format.printf "throughput: %.0f jobs/s (%.2f s wall), fairness %.3f@."
      r.Scheduler.jobs_per_second r.Scheduler.wall_seconds
      r.Scheduler.fairness;
    List.iter
      (fun t ->
        Format.printf
          "  tenant %d: %4d submitted, %4d admitted, %3d/%3d rejected \
           (cap/quota), %10.0f gpu-s@."
          t.Scheduler.tenant t.Scheduler.submitted t.Scheduler.admitted
          t.Scheduler.rejected_capacity t.Scheduler.rejected_quota
          t.Scheduler.gpu_seconds)
      r.Scheduler.tenants;
    if verify_every > 0 then
      Format.printf "verification: %d sampled slices, %d mismatches@."
        r.Scheduler.verified_slices r.Scheduler.verify_mismatches;
    Format.printf "observatory (per-tenant service health):@.";
    List.iter
      (fun (o : Scheduler.tenant_observatory) ->
        Format.printf
          "  tenant %d: %4d jobs, latency %7.2f/%7.2f ms (mean/p95), \
           queue-wait %6.2f/%6.2f ms, %d straggler slices@."
          o.Scheduler.ob_tenant o.Scheduler.ob_jobs
          (o.Scheduler.ob_latency.Scheduler.h_mean_s *. 1e3)
          (o.Scheduler.ob_latency.Scheduler.h_p95_s *. 1e3)
          (o.Scheduler.ob_queue_wait.Scheduler.h_mean_s *. 1e3)
          (o.Scheduler.ob_queue_wait.Scheduler.h_p95_s *. 1e3)
          o.Scheduler.ob_straggler_slices)
      r.Scheduler.observatory;
    List.iteri
      (fun i (c : Scheduler.fingerprint_class) ->
        if i < 5 then
          Format.printf
            "  class %-22s %5d slices, %6.1f GB/s mean (best %.1f, worst \
             %.1f), %d stragglers@."
            c.Scheduler.fc_class c.Scheduler.fc_slices c.Scheduler.fc_mean_gbps
            c.Scheduler.fc_best_gbps c.Scheduler.fc_worst_gbps
            c.Scheduler.fc_stragglers)
      r.Scheduler.classes;
    Format.printf "stragglers: %d flagged slices (> %.0f%% below the class's \
                   best rate)@."
      r.Scheduler.straggler_slices
      (100. *. r.Scheduler.straggler_epsilon);
    List.iteri
      (fun i (s : Scheduler.straggler) ->
        if i < 5 then
          Format.printf
            "  tenant %d on class %s: %.1f GB/s achieved vs %.1f expected@."
            s.Scheduler.st_tenant s.Scheduler.st_class
            s.Scheduler.st_achieved_gbps s.Scheduler.st_expected_gbps)
      r.Scheduler.stragglers;
    if r.Scheduler.verify_mismatches > 0 then exit 1
  end

let cluster_cmd =
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Simulate multi-tenant allocation fragmentation, or (with \
          --service) the full collective service against one shared \
          fingerprint-keyed plan store")
    Term.(const cluster
          $ Arg.(value & opt int 40_000 & info [ "jobs" ] ~doc:"Trace length.")
          $ Arg.(value & opt int 64 & info [ "servers" ] ~doc:"8-GPU servers.")
          $ Arg.(value & flag
                 & info [ "service" ]
                     ~doc:"Run the multi-tenant collective service: \
                           admission control, placement, and one shared \
                           plan store across all jobs.")
          $ Arg.(value & opt int 8 & info [ "tenants" ] ~doc:"Tenant count.")
          $ Arg.(value & opt float 0.5
                 & info [ "quota" ] ~docv:"FRAC"
                     ~doc:"Per-tenant in-flight GPU quota as a fraction of \
                           the cluster.")
          $ Arg.(value & opt (some int) None
                 & info [ "max-plans" ]
                     ~doc:"Cap the shared store's compiled plans \
                           (cache-pressure eviction).")
          $ Arg.(value & opt int 0
                 & info [ "verify-every" ] ~docv:"N"
                     ~doc:"Re-time every Nth planned slice on a fresh \
                           isolated handle and fail on any timing \
                           divergence (0 = off).")
          $ Arg.(value & opt (some straggler_conv) None
                 & info [ "straggler" ] ~docv:"TENANT,FACTOR"
                     ~doc:"Inject a straggler: multiply the named \
                           tenant's observed slice times by FACTOR > 1 \
                           and watch the observatory flag it.")
          $ Arg.(value & opt float 0.1
                 & info [ "straggler-epsilon" ] ~docv:"EPS"
                     ~doc:"Flag a slice whose achieved rate falls more \
                           than EPS below its fingerprint class's best."))

(* ----------------------------- tournament ----------------------------- *)

module Planner = Blink_core.Planner

(* Every registered planner backend on one allocation: packing rates and
   tree counts, DES-achieved Broadcast/AllReduce, planning wall-clock,
   and the differential check (Treegen.feasible + bit-equality against
   the reference semantics). Non-zero exit when any backend fails the
   check — the same criteria as `bench/main.exe -- tournament`, scoped to
   a single fabric for interactive use. *)
let tournament server gpus mbytes =
  let module Sem = Blink_sim.Semantics in
  let module Program = Blink_sim.Program in
  let data_correct handle =
    let elems = 2_048 in
    let plan = Blink.plan ~chunk_elems:512 handle Plan.All_reduce ~elems in
    let prog = plan.Plan.program in
    let layout = plan.Plan.layout in
    let k = Array.length layout.Codegen.data in
    let mem = Sem.memory_of_program prog in
    let rmem = Sem.Ref.memory_of_program prog in
    for r = 0 to k - 1 do
      let values =
        Array.init elems (fun i -> Float.of_int (((i * 3) + (r * 7)) mod 11))
      in
      Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) values;
      Sem.Ref.write rmem ~node:r ~buf:layout.Codegen.data.(r) values
    done;
    Sem.run prog mem;
    Sem.Ref.run prog rmem;
    List.for_all
      (fun (node, buf, _len) ->
        Sem.Ref.read rmem ~node ~buf = Sem.read mem ~node ~buf)
      (Program.buffers prog)
  in
  let elems = int_of_float (mbytes *. 1_000_000. /. 4.) in
  Format.printf "%s gpus {%s}, %.0f MB:@." server.Server.name
    (Alloc.to_string (Array.to_list gpus))
    mbytes;
  Format.printf "  %-11s %9s %9s %7s %7s %9s %5s %5s@." "backend" "bcast"
    "allred" "btrees" "atrees" "plan-ms" "feas" "data";
  let failed = ref false in
  List.iter
    (fun b ->
      let t0 = Unix.gettimeofday () in
      let handle = Blink.create ~planner:b server ~gpus in
      let plan_s = Unix.gettimeofday () -. t0 in
      let g = Blink.graph handle in
      let feasible =
        List.for_all
          (function None -> false | Some p -> Treegen.feasible g p)
          [ Blink.packing handle; Blink.undirected_packing handle ]
      in
      let data_ok = data_correct handle in
      if not (feasible && data_ok) then failed := true;
      let chunk = Blink.heuristic_chunk ~elems in
      let gbps prog = Blink.algbw_gbps ~elems (Blink.time handle prog) in
      let bcast, _ = Blink.broadcast ~chunk_elems:chunk handle ~elems in
      let allred, _ = Blink.all_reduce ~chunk_elems:chunk handle ~elems in
      let trees sel =
        match sel handle with
        | None -> 0
        | Some p -> List.length p.Treegen.trees
      in
      Format.printf "  %-11s %5.1f GB/s %5.1f GB/s %5d %7d %9.1f %5b %5b@."
        (Planner.name b) (gbps bcast) (gbps allred)
        (trees Blink.packing)
        (trees Blink.undirected_packing)
        (plan_s *. 1e3) feasible data_ok)
    (Planner.all ());
  if !failed then begin
    Format.eprintf "tournament: a backend failed the differential check@.";
    exit 1
  end

let tournament_cmd =
  Cmd.v
    (Cmd.info "tournament"
       ~doc:
         "Race every planner backend on one allocation: achieved rates, \
          tree counts, planning time, and a feasibility + data-correctness \
          differential check")
    Term.(const tournament $ server_arg $ gpus_arg $ mbytes_arg)

(* -------------------------------- main -------------------------------- *)

let () =
  (match Sys.getenv_opt "BLINK_DEBUG" with
  | Some _ ->
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Debug)
  | None -> ());
  let info =
    Cmd.info "blink" ~version:"1.0.0"
      ~doc:"Fast and generic collectives for distributed ML (MLSYS 2020 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ topo_cmd; plan_cmd; bench_cmd; train_cmd; trace_cmd; analyze_cmd;
            metrics_cmd; replay_cmd; prewarm_cmd; failover_cmd; cluster_cmd;
            tournament_cmd ]))
