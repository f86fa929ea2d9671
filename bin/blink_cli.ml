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
module Simplex = Blink_lp.Simplex
module Telemetry = Blink_telemetry.Telemetry
module Ring = Blink_baselines.Ring
module Models = Blink_dnn.Models
module Training = Blink_dnn.Training
module Scheduler = Blink_cluster.Scheduler
module Analysis = Blink_core.Analysis
module Recorder = Blink_sim.Recorder
module Critical_path = Blink_sim.Critical_path
module Scenario = Blink_scenario.Scenario

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

(* The allocation of every command that plans over it, checked up front:
   an allocation [Blink.create] would reject is a usage error, not an
   uncaught exception or an empty packing. *)
let alloc_arg =
  let check server gpus =
    let ids = Array.to_list gpus in
    let error fmt =
      Printf.ksprintf (fun msg -> `Error (true, "--gpus: " ^ msg)) fmt
    in
    if List.length ids < 2 then error "a collective needs at least 2 GPUs"
    else if List.exists (fun g -> g < 0 || g >= server.Server.n_gpus) ids then
      error "%s has GPUs 0..%d" server.Server.name (server.Server.n_gpus - 1)
    else if List.length (List.sort_uniq compare ids) <> List.length ids then
      error "a GPU is named twice"
    else if server.Server.nvswitch = None && not (Alloc.nvlink_connected server ids)
    then
      error "GPUs {%s} are not NVLink-connected on %s" (Alloc.to_string ids)
        server.Server.name
    else `Ok (server, gpus)
  in
  Term.(ret (const check $ server_arg $ gpus_arg))

let with_alloc f (server, gpus) = f server gpus

let write_file path s =
  Out_channel.with_open_text path (fun oc -> output_string oc s)

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
  if server.Server.nvswitch = None && Array.length gpus > 1 then begin
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
  let packing = Treegen.plan g ~root ~undirected in
  let optimum = Treegen.optimum g ~root ~undirected in
  Format.printf "%a@." Treegen.pp packing;
  Format.printf "certified optimum %.3f GB/s (rate %.1f%%)@." optimum
    (100. *. packing.Treegen.rate /. optimum);
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
    Term.(const (with_alloc plan) $ alloc_arg $ undirected_arg)

(* ------------------------------- bench ------------------------------- *)

let collective_arg =
  Arg.(value & opt (enum [ ("broadcast", Plan.Broadcast); ("allreduce", Plan.All_reduce);
                           ("gather", Plan.Gather); ("allgather", Plan.All_gather) ])
         Plan.All_reduce
       & info [ "collective" ] ~docv:"OP" ~doc:"broadcast|allreduce|gather|allgather")

let bench server gpus collective mbytes =
  let handle = Blink.create server ~gpus in
  let blink = Scenario.blink_gbps ~mbytes handle collective in
  Format.printf "blink: %.1f GB/s@." blink;
  if server.Server.nvswitch = None then
    match
      Scenario.ring_gbps ~root:(Blink.root handle) ~mbytes server ~gpus
        (Blink.fabric handle) collective
    with
    | Some nccl ->
        Format.printf "nccl-style rings (%s): %.1f GB/s   -> blink is %.2fx@."
          (match (Ring.nccl_channels server ~gpus).Ring.cls with
          | Fabric.Pcie -> "pcie fallback"
          | Fabric.Nv -> "nvlink"
          | Fabric.Net -> "network")
          nccl (blink /. nccl)
    | None ->
        Format.printf "nccl-style rings: no ring baseline for %s@."
          (Plan.collective_name collective)

let bench_cmd =
  Cmd.v (Cmd.info "bench" ~doc:"Time a collective on the simulated interconnect")
    Term.(const (with_alloc bench) $ alloc_arg $ collective_arg $ mbytes_arg)

(* ------------------------------- train ------------------------------- *)

let model_arg =
  Arg.(value & opt (enum (List.map (fun m -> (m.Models.name, m)) Models.all))
         Models.resnet50
       & info [ "model" ] ~docv:"MODEL" ~doc:"alexnet|resnet18|resnet50|vgg16")

let train server gpus model =
  let handle = Blink.create server ~gpus in
  let blink_backend = Training.plan_backend handle in
  let nccl_backend = Scenario.ring_backend server ~gpus (Blink.fabric handle) in
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
    Term.(const (with_alloc train) $ alloc_arg $ model_arg)

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
  let elems = Scenario.elems_of_mb mbytes in
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
  write_file out (Telemetry.chrome_json telemetry);
  Format.printf
    "chrome trace written to %s (load in Perfetto / chrome://tracing): \
     planning spans on the wall-clock track, engine ops on the \
     simulated-time track@."
    out

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the full plan+execute pipeline and export a merged Chrome trace")
    Term.(const (fun c -> with_alloc (trace c)) $ trace_collective_arg $ alloc_arg
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
  let elems = Scenario.elems_of_mb mbytes in
  let r = Analysis.analyze handle collective ~elems in
  Format.printf "%s of %.0f MB on %s {%s}: makespan %.3f ms (chunk %d elems)@."
    (Plan.collective_name collective)
    mbytes server.Server.name
    (Alloc.to_string (Array.to_list gpus))
    (r.Analysis.makespan_s *. 1e3)
    r.Analysis.chunk_elems;
  Scenario.pp_analysis Format.std_formatter r;
  Scenario.pp_phases Format.std_formatter (Analysis.phases handle);
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
      write_file path (Telemetry.chrome_json tracer);
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
    Term.(const (fun c -> with_alloc (analyze c)) $ trace_collective_arg $ alloc_arg
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
  let elems = Scenario.elems_of_mb mbytes in
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
      write_file path json;
      Format.eprintf "metrics snapshot written to %s@." path

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a collective repeatedly and print the telemetry metrics snapshot")
    Term.(const (fun c -> with_alloc (metrics c)) $ trace_collective_arg $ alloc_arg
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
  let elems = Scenario.elems_of_mb mbytes in
  let plan = Blink.plan handle collective ~elems in
  (* Reload every rank's input each iteration, as a training loop would:
     this is the steady state the pooled memory is built for. *)
  let load =
    Scenario.loader (Scenario.rank_inputs ~ranks:plan.Plan.n_ranks ~elems)
  in
  let exec () =
    if data then ignore (Plan.execute ~load plan)
    else ignore (Plan.execute ~data:false plan)
  in
  exec ();
  (* warm: sizes the pool, compiles the data kernels *)
  let runs = max 1 runs in
  let wall, words = Scenario.per_run ~runs exec in
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
    Term.(const (fun c -> with_alloc (replay c)) $ trace_collective_arg $ alloc_arg
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
        let elems = Scenario.elems_of_mb mb in
        [ (Plan.All_reduce, elems); (Plan.Broadcast, elems) ])
      mbytes_list
  in
  let pool = Pool.create ?domains ~telemetry () in
  let dt, built =
    Scenario.timed @@ fun () ->
    if async then begin
      (* Overlap demo: submit the pipeline, keep the calling domain busy
         with plan replays (the training-loop stand-in), then redeem. *)
      let job = Blink.prewarm_async ~pool handle keys in
      let live = Blink.create server ~gpus in
      let plan = Blink.plan live Plan.All_reduce ~elems:262_144 in
      let replays = ref 0 in
      let t_fg = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t_fg < 0.05 do
        ignore (Plan.execute ~data:false plan);
        incr replays
      done;
      let n = Blink.prewarm_await handle job in
      Format.printf "foreground replayed %d plans while prewarm ran@."
        !replays;
      n
    end
    else Blink.prewarm ~pool handle keys
  in
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
    Term.(const (with_alloc prewarm) $ alloc_arg $ domains_arg $ async_arg
          $ mbytes_list_arg)

(* ------------------------------ failover ----------------------------- *)

(* Report faults to a live handle one at a time, printing the replan cost
   and the surviving packing rate after each, then prove the end state
   matches a fresh handle built directly on the degraded fabric. A fault
   that partitions the allocation exits with the typed error's report. *)
let failover server gpus mbytes fail_links degrades fail_gpus cold
    contingencies =
  let telemetry = Telemetry.create () in
  let handle = Blink.create ~telemetry server ~gpus in
  let elems = Scenario.elems_of_mb mbytes in
  Format.printf "healthy: %.1f GB/s packing rate, %.3f ms all_reduce of %.0f MB@."
    (Blink.all_reduce_rate handle)
    (Scenario.all_reduce_s handle ~elems *. 1e3)
    mbytes;
  let replan = if cold then `Cold else `Warm in
  if contingencies then begin
    let dt, n =
      Scenario.timed (fun () ->
          Blink.prewarm ~contingencies:`All handle [ (Plan.All_reduce, elems) ])
    in
    Format.printf "prewarmed %d one-link-down contingency plan(s) in %.1f ms@."
      n (dt *. 1e3)
  end;
  let faults =
    List.map (fun (u, v) -> Scenario.Fail_link (u, v)) fail_links
    @ List.map (fun (u, v, f) -> Scenario.Degrade (u, v, f)) degrades
    @ List.map (fun g -> Scenario.Fail_gpu g) fail_gpus
  in
  if faults = [] then
    Format.printf "(no faults requested: pass --fail-link, --degrade or \
                   --fail-gpu)@."
  else begin
    let lp0 = Simplex.stats () in
    try
      List.iter
        (fun fault ->
          let s = Scenario.apply ~replan handle ~elems fault in
          Format.printf "%-22s replanned in %6.1f ms (%s): %.1f GB/s, %.3f \
                         ms all_reduce@."
            (Scenario.fault_label fault) (s.Scenario.replan_s *. 1e3)
            (Scenario.path_name s.Scenario.path) s.Scenario.rate_gbps
            (s.Scenario.makespan_s *. 1e3))
        faults;
      Format.printf "counters: fault.injected %d, plan.cache.invalidations %d@."
        (Telemetry.counter_value telemetry "fault.injected")
        (Telemetry.counter_value telemetry "plan.cache.invalidations");
      let lp = Simplex.stats () in
      Format.printf "replan LPs: %d simplex solves, %d pivots@."
        (lp.Simplex.solves - lp0.Simplex.solves)
        (lp.Simplex.pivots - lp0.Simplex.pivots);
      (* Cold (and contingency-served) replans must match a fresh handle
         bit for bit; a warm replan keeps surviving trees, so its packing
         may legitimately trade some rate for the sub-10ms replan, and
         the comparison is informational. *)
      let fresh = Scenario.fresh_check handle ~elems in
      if fresh.Scenario.matches then
        Format.printf "fresh handle on the degraded fabric matches exactly@."
      else if cold then begin
        Format.printf "fresh handle on the degraded fabric DIVERGES (bug)@.";
        exit 1
      end
      else
        Format.printf
          "fresh handle on the degraded fabric: %.1f GB/s vs %.1f GB/s warm \
           (surviving trees kept; pass --cold for bit-identity)@."
          fresh.Scenario.fresh_rate_gbps
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
    Term.(const (with_alloc failover) $ alloc_arg $ small_mbytes_arg
          $ Arg.(value & opt_all (t2 int int) []
                 & info [ "fail-link" ] ~docv:"U,V"
                     ~doc:"Mark the U-V NVLink pair down (repeatable).")
          $ Arg.(value & opt_all (t3 int int float) []
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
    Scenario.pp_service Format.std_formatter r;
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
          $ Arg.(value & opt (some (pair int float)) None
                 & info [ "straggler" ] ~docv:"TENANT,FACTOR"
                     ~doc:"Inject a straggler: multiply the named \
                           tenant's observed slice times by FACTOR > 1 \
                           and watch the observatory flag it.")
          $ Arg.(value & opt float 0.1
                 & info [ "straggler-epsilon" ] ~docv:"EPS"
                     ~doc:"Flag a slice whose achieved rate falls more \
                           than EPS below its fingerprint class's best."))

(* ----------------------------- tournament ----------------------------- *)


(* Both planner backends on one allocation: packing rates and
   tree counts, DES-achieved Broadcast/AllReduce, planning wall-clock,
   and the differential check (Treegen.feasible + bit-equality against
   the reference semantics). Non-zero exit when any backend fails the
   check — the same criteria as `bench/main.exe -- tournament`, scoped to
   a single fabric for interactive use. *)
let tournament server gpus mbytes =
  Format.printf "%s gpus {%s}, %.0f MB:@." server.Server.name
    (Alloc.to_string (Array.to_list gpus))
    mbytes;
  let rows = Scenario.tournament ~mbytes server ~gpus in
  Scenario.pp_tournament Format.std_formatter ~label:"" rows;
  if List.exists (fun r -> not (r.Scenario.feasible && r.Scenario.data_ok)) rows
  then begin
    Format.eprintf "tournament: a backend failed the differential check@.";
    exit 1
  end

let tournament_cmd =
  Cmd.v
    (Cmd.info "tournament"
       ~doc:
         "Race both planner backends on one allocation: achieved rates, \
          tree counts, planning time, and a feasibility + data-correctness \
          differential check")
    Term.(const (with_alloc tournament) $ alloc_arg $ mbytes_arg)

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
