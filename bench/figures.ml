(* One function per figure of the paper's evaluation; each prints the rows
   or series the paper plots. EXPERIMENTS.md records paper-vs-measured. *)

open Util
module Server = Blink_topology.Server
module Fabric = Blink_topology.Fabric
module Alloc = Blink_topology.Alloc
module Micro = Blink_collectives.Micro
module Codegen = Blink_collectives.Codegen
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Scenario = Blink_scenario.Scenario
module Treegen = Blink_core.Treegen
module Hybrid = Blink_core.Hybrid
module Multiserver = Blink_core.Multiserver
module Chunking = Blink_core.Chunking
module Ring = Blink_baselines.Ring
module Dbtree = Blink_baselines.Dbtree
module Hierarchical = Blink_baselines.Hierarchical
module Models = Blink_dnn.Models
module Training = Blink_dnn.Training
module Scheduler = Blink_cluster.Scheduler
module Pool = Blink_parallel.Pool
module E = Blink_sim.Engine

(* Config sweeps measure each allocation independently (fresh handle,
   pure simulation), so they fan out over the shared domain pool;
   [parallel_map] returns rows in submission order, so the printed
   output is identical to the sequential sweep. *)
let pool_map f xs = Pool.parallel_map (Pool.default ()) f xs

(* Blink against NCCL-style rings at the uniform chunk policy. *)
let blink ?(mbytes = 500.) handle collective =
  Scenario.blink_gbps ~mbytes handle collective

let nccl ?root ?(mbytes = 500.) server ~gpus fabric collective =
  Option.get (Scenario.ring_gbps ?root ~mbytes server ~gpus fabric collective)

(* ------------------------------------------------------------------ *)

let fig2 () =
  heading "Figure 2: Broadcast on 3 GPUs of a DGX-1 (NCCL vs Blink), 500 MB";
  let cases =
    [ ("(a) fully connected 0,1,3", [| 0; 1; 3 |]);
      ("(b) partial (no 1-4 NVLink) 0,1,4", [| 0; 1; 4 |]) ]
  in
  List.iter
    (fun (label, gpus) ->
      let handle = Blink.create Server.dgx1p ~gpus in
      let blink = blink handle Plan.Broadcast in
      let nccl = nccl Server.dgx1p ~gpus (Blink.fabric handle) Plan.Broadcast in
      row "%-36s NCCL %6.1f GB/s   Blink %6.1f GB/s   (%.1fx)\n" label nccl
        blink (blink /. nccl))
    cases

let fig3 () =
  heading "Figure 3: GPUs allocated per server across 40,000 multi-GPU jobs";
  let jobs = Scheduler.generate_trace ~n_jobs:40_000 () in
  let stats = Scheduler.simulate ~servers:64 jobs in
  row "%d multi-GPU jobs placed, %d split across servers, %d rejected\n"
    stats.Scheduler.multi_gpu_jobs stats.Scheduler.fragmented_jobs
    stats.Scheduler.rejected;
  for g = 1 to 8 do
    let f = Scheduler.fraction stats g in
    row "  %d GPU(s)/server: %5.1f%%  %s\n" g (100. *. f)
      (String.make (int_of_float (f *. 120.)) '#')
  done

let overheads server gpu_gen =
  (* Per GPU count: (best, worst) NCCL communication overhead over the
     unique connected configurations, per model. *)
  List.map
    (fun model ->
      let per_count =
        List.map
          (fun n ->
            let configs = Alloc.unique_configs server ~sizes:[ n ] in
            let ovs =
              List.map
                (fun cfg ->
                  let gpus = Array.of_list cfg in
                  let fabric = Fabric.of_server server ~gpus in
                  let backend = Scenario.ring_backend server ~gpus fabric in
                  Training.overhead_percent
                    (Training.iteration ~gpu_gen model backend))
                configs
            in
            (n, List.fold_left Float.min infinity ovs,
             List.fold_left Float.max neg_infinity ovs))
          [ 3; 4; 5; 6; 7; 8 ]
      in
      (model, per_count))
    Models.all

let fig5 () =
  heading "Figure 5: NCCL communication overhead %% (best-worst over configs)";
  List.iter
    (fun (server, gen, label) ->
      row "--- %s ---\n" label;
      row "%-10s %s\n" "model"
        (String.concat "  " (List.map (fun n -> Printf.sprintf "   %dGPU    " n) [ 3; 4; 5; 6; 7; 8 ]));
      List.iter
        (fun (model, per_count) ->
          row "%-10s %s\n" model.Models.name
            (String.concat "  "
               (List.map
                  (fun (_, best, worst) -> Printf.sprintf "%4.1f-%4.1f%%" best worst)
                  per_count)))
        (overheads server gen))
    [ (Server.dgx1p, `P100, "DGX-1P"); (Server.dgx1v, `V100, "DGX-1V") ]

let fig7 () =
  heading "Figure 7 / 24: depth tests over DGX-1V chains (GB/s)";
  let sizes = [ 10.; 50.; 100.; 500.; 1000. ] in
  row "%-22s %s\n" "pattern/gpus"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%7.0fMB" s) sizes));
  List.iter
    (fun (name, f) ->
      List.iter
        (fun n ->
          row "%-22s %s\n"
            (Printf.sprintf "%s %dGPU" name n)
            (String.concat " "
               (List.map (fun s -> Printf.sprintf "%9.1f" (f ~n_gpus:n s)) sizes)))
        [ 3; 5; 8 ])
    [ ("forward", fun ~n_gpus mb -> Micro.chain_forward ~n_gpus mb);
      ("reduce+forward", fun ~n_gpus mb -> Micro.chain_reduce_forward ~n_gpus mb);
      ("reduce-broadcast", fun ~n_gpus mb -> Micro.chain_reduce_broadcast ~n_gpus mb) ]

let fig8 () =
  heading "Figure 8: MIMO / MCA multi-transfer throughput (GB/s)";
  let sizes = [ 1.; 10.; 100.; 500.; 1000. ] in
  row "%-6s %s\n" "test"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%7.0fMB" s) sizes));
  row "%-6s %s\n" "MIMO"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%9.1f" (Micro.mimo s)) sizes));
  row "%-6s %s\n" "MCA"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%9.1f" (Micro.mca s)) sizes))

let fig26 () =
  heading "Figures 25-26: breadth tests, fan-in/fan-out on DGX-1V (GB/s)";
  let sizes = [ 10.; 50.; 100.; 500. ] in
  row "%-26s %s\n" "pattern/degree"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%7.0fMB" s) sizes));
  List.iter
    (fun (name, f) ->
      List.iter
        (fun degree ->
          row "%-26s %s\n"
            (Printf.sprintf "%s fan=%d" name degree)
            (String.concat " "
               (List.map (fun s -> Printf.sprintf "%9.1f" (f ~degree s)) sizes)))
        [ 1; 2; 3 ])
    [ ("fan-in forward", fun ~degree mb -> Micro.fan_in_forward ~degree mb);
      ("fan-in reduce+forward", fun ~degree mb -> Micro.fan_in_reduce ~degree mb);
      ("fan-out forward", fun ~degree mb -> Micro.fan_out_forward ~degree mb) ]

let gather_sweep () =
  heading
    "Gather (all-to-one), unique DGX-1V configs, 100 MB per GPU (GB/s into root)";
  let results =
    pool_map
      (fun cfg ->
        let gpus = Array.of_list cfg in
        let handle = Blink.create Server.dgx1v ~gpus in
        (* Into the root: every other rank's whole buffer arrives. *)
        let into_root gbps = Float.of_int (Array.length gpus - 1) *. gbps in
        let blink = into_root (blink ~mbytes:100. handle Plan.Gather) in
        let nccl =
          into_root
            (nccl ~root:(Blink.root handle) ~mbytes:100. Server.dgx1v ~gpus
               (Blink.fabric handle) Plan.Gather)
        in
        (config_label gpus, nccl, blink))
      (Alloc.unique_configs Server.dgx1v ~sizes:[ 3; 4; 5; 6 ])
  in
  List.iter
    (fun (label, nccl, blink) ->
      row "  %-16s NCCL %6.1f   Blink %6.1f   (%.2fx)\n" label nccl blink
        (blink /. nccl))
    results;
  let speedups = List.map (fun (_, nccl, blink) -> blink /. nccl) results in
  row "  geometric-mean speedup: %.2fx   max: %.2fx\n" (geomean speedups)
    (List.fold_left Float.max 0. speedups)

let size_sweep () =
  heading "Size sweep (figs 15/17 error bars): 50 MB - 1000 MB on two configs";
  let per_config =
    pool_map
      (fun gpus ->
        let handle = Blink.create Server.dgx1v ~gpus in
        let fabric = Blink.fabric handle in
        let rows =
          List.map
            (fun mbytes ->
              ( mbytes,
                blink ~mbytes handle Plan.Broadcast,
                nccl ~mbytes Server.dgx1v ~gpus fabric Plan.Broadcast,
                blink ~mbytes handle Plan.All_reduce,
                nccl ~mbytes Server.dgx1v ~gpus fabric Plan.All_reduce ))
            [ 50.; 100.; 250.; 500.; 1000. ]
        in
        (config_label gpus, rows))
      [ [| 1; 4; 5; 6 |]; [| 0; 1; 2; 3; 4; 5; 6; 7 |] ]
  in
  List.iter
    (fun (label, rows) ->
      row "--- gpus %s ---\n" label;
      row "%10s %16s %16s %16s %16s\n" "size" "bcast blink" "bcast nccl"
        "allred blink" "allred nccl";
      List.iter
        (fun (mbytes, bb, bn, ab, an) ->
          row "%8.0fMB %16.1f %16.1f %16.1f %16.1f\n" mbytes bb bn ab an)
        rows)
    per_config

let fig12 () =
  heading "Figure 12: MIAD chunk-size selection (broadcast over 4 GPUs)";
  let handle = Blink.create Server.dgx1v ~gpus:[| 0; 1; 2; 3 |] in
  let elems = Scenario.elems_of_mb 500. in
  let measure ~chunk_elems =
    let prog, _ = Blink.broadcast ~chunk_elems handle ~elems in
    gbps ~elems (Blink.time handle prog)
  in
  let result = Chunking.tune ~init:262_144 ~measure () in
  List.iteri
    (fun i { Chunking.chunk_elems; throughput } ->
      row "  iteration %2d: chunk %6.2f MB -> %6.1f GB/s\n" (i + 1)
        (Float.of_int chunk_elems *. 4. /. 1e6)
        throughput)
    result.Chunking.trace;
  row "  chosen: %.2f MB\n" (Float.of_int result.Chunking.chosen *. 4. /. 1e6)

(* Theoretical rates in units of one NVLink: Blink = packed tree weight;
   NCCL = ring count (PCIe fallback counts the paper's 1/2 unit). *)
let theory_speedup server gpus =
  let g = Server.nvlink_digraph server ~gpus in
  let connected = Alloc.nvlink_connected server (Array.to_list gpus) in
  let unit = Server.nvlink_bandwidth server in
  let blink_units =
    if connected then
      (Treegen.plan g ~root:0 ~undirected:false).Treegen.rate /. unit
    else 0.5
  in
  let channels = Ring.nccl_channels server ~gpus in
  let nccl_units =
    match channels.Ring.cls with
    | Fabric.Nv -> Float.of_int (Ring.n_rings channels)
    | Fabric.Pcie | Fabric.Net -> 0.5
  in
  blink_units /. nccl_units

let fig14 () =
  heading "Figure 14: theoretical speedup of tree packing vs rings";
  List.iter
    (fun (server, label) ->
      row "--- %s ---\n" label;
      List.iter
        (fun n ->
          let subsets = Blink_graph.Automorphism.subsets ~n:8 ~size:n in
          let speedups =
            List.map (fun s -> theory_speedup server (Array.of_list s)) subsets
          in
          row
            "  %d GPUs: min %.2f  p5 %.2f  median %.2f  p95 %.2f  max %.2f\n"
            n
            (percentile 0. speedups) (percentile 0.05 speedups)
            (percentile 0.5 speedups) (percentile 0.95 speedups)
            (percentile 1.0 speedups))
        [ 3; 4; 5; 6; 7; 8 ])
    [ (Server.dgx1p, "DGX-1P (P100)"); (Server.dgx1v, "DGX-1V (V100)") ]

let broadcast_or_allreduce_sweep ~collective server label =
  heading "%s" label;
  let mbytes = 500. in
  let results =
    pool_map
      (fun cfg ->
        let gpus = Array.of_list cfg in
        let handle = Blink.create server ~gpus in
        let fabric = Blink.fabric handle in
        let blink = blink ~mbytes handle collective
        and nccl = nccl ~mbytes server ~gpus fabric collective in
        (config_label gpus, nccl, blink))
      (Alloc.unique_configs server ~sizes:[ 3; 4; 5; 6; 7; 8 ])
  in
  List.iter
    (fun (label, nccl, blink) ->
      row "  %-16s NCCL %6.1f   Blink %6.1f   (%.2fx)\n" label nccl blink
        (blink /. nccl))
    results;
  let speedups = List.map (fun (_, nccl, blink) -> blink /. nccl) results in
  row "  geometric-mean speedup: %.2fx   max: %.2fx\n" (geomean speedups)
    (List.fold_left Float.max 0. speedups)

let fig15 () =
  broadcast_or_allreduce_sweep ~collective:Plan.Broadcast Server.dgx1v
    "Figure 15: Broadcast, all 46 unique DGX-1V configs, 500 MB (GB/s)"

let fig16 () =
  broadcast_or_allreduce_sweep ~collective:Plan.Broadcast Server.dgx1p
    "Figure 16: Broadcast, all 14 unique DGX-1P configs, 500 MB (GB/s)"

let fig17 () =
  broadcast_or_allreduce_sweep ~collective:Plan.All_reduce Server.dgx1v
    "Figure 17: AllReduce, all 46 unique DGX-1V configs, 500 MB (GB/s)"

let fig18 () =
  heading "Figure 18: end-to-end training-time reduction, DGX-1V (Blink vs NCCL)";
  let server = Server.dgx1v in
  (* One representative configuration per GPU count: the one with the
     largest AllReduce gain (the paper picks configs with unique speedups;
     we show best and a median config per count). *)
  let configs =
    List.concat_map
      (fun n ->
        let all = Alloc.unique_configs server ~sizes:[ n ] in
        let scored =
          List.map
            (fun cfg ->
              let gpus = Array.of_list cfg in
              let handle = Blink.create server ~gpus in
              let fabric = Blink.fabric handle in
              let ratio =
                blink ~mbytes:100. handle Plan.All_reduce
                /. nccl ~mbytes:100. server ~gpus fabric Plan.All_reduce
              in
              (ratio, cfg))
            all
          |> List.sort compare
        in
        let best = snd (List.nth scored (List.length scored - 1)) in
        let median = snd (List.nth scored (List.length scored / 2)) in
        List.sort_uniq compare [ best; median ])
      [ 3; 4; 5; 6; 7; 8 ]
  in
  let speedups = ref [] and comm_reds = ref [] in
  row "%-14s %-10s %9s %9s %10s %10s\n" "config" "model" "nccl(ms)" "blink(ms)"
    "time-red%" "comm-red%";
  List.iter
    (fun cfg ->
      let gpus = Array.of_list cfg in
      let handle = Blink.create server ~gpus in
      let fabric = Blink.fabric handle in
      let nccl = Scenario.ring_backend server ~gpus fabric in
      let blink = Training.plan_backend handle in
      List.iter
        (fun model ->
          let base = Training.iteration model nccl in
          let ours = Training.iteration model blink in
          let sp = Training.speedup_percent ~baseline:base ours in
          let cr = Training.comm_reduction_percent ~baseline:base ours in
          speedups := sp :: !speedups;
          comm_reds := cr :: !comm_reds;
          row "%-14s %-10s %9.1f %9.1f %10.1f %10.1f\n" (config_label gpus)
            model.Models.name base.Training.iteration_ms ours.Training.iteration_ms
            sp cr)
        Models.all)
    configs;
  row "max time reduction: %.1f%%   mean: %.1f%%\n"
    (List.fold_left Float.max 0. !speedups)
    (List.fold_left ( +. ) 0. !speedups /. Float.of_int (List.length !speedups));
  row "max comm reduction: %.1f%%   mean: %.1f%%\n"
    (List.fold_left Float.max 0. !comm_reds)
    (List.fold_left ( +. ) 0. !comm_reds /. Float.of_int (List.length !comm_reds))

let dgx2_sweep () =
  let gpus = Array.init 16 Fun.id in
  let handle = Blink.create Server.dgx2 ~gpus in
  let fabric = Blink.fabric handle in
  let ring_ch = Ring.nvswitch_channels ~n_ranks:16 () in
  List.map
    (fun kb ->
      let elems = max 16 (kb * 256) in
      let chunk = chunk_for elems in
      let spec = Codegen.spec ~chunk_elems:chunk fabric in
      let bp, _ = Blink.all_reduce ~chunk_elems:chunk handle ~elems in
      let dp, _ = Dbtree.all_reduce spec ~elems in
      let rp, _ = Ring.all_reduce spec ~elems ~channels:ring_ch in
      let blink = Blink.time handle bp in
      let dbt = time_fabric fabric dp in
      let ring = time_fabric fabric rp in
      (kb, elems, blink, dbt, ring))
    [ 4; 16; 64; 256; 1024; 4096; 16384; 65536; 262144 ]

let fig19_20 () =
  heading "Figures 19-20: DGX-2 AllReduce, Blink one-hop vs NCCL (dbtree/ring)";
  row "%10s %14s %14s %14s %17s %14s\n" "size" "blink" "nccl-dbtree"
    "nccl-ring" "latency-speedup" "tput-speedup";
  List.iter
    (fun (kb, elems, blink, dbt, ring) ->
      let lat r = r.E.makespan *. 1e6 in
      let nccl_best_lat = Float.min (lat dbt) (lat ring) in
      let nccl_best_tput = Float.max (gbps ~elems dbt) (gbps ~elems ring) in
      row "%8dKB %7.0fus/%4.1f %7.0fus/%4.1f %7.0fus/%4.1f %16.2fx %13.2fx\n" kb
        (lat blink) (gbps ~elems blink) (lat dbt) (gbps ~elems dbt) (lat ring)
        (gbps ~elems ring)
        (nccl_best_lat /. lat blink)
        (gbps ~elems blink /. nccl_best_tput))
    (dgx2_sweep ())

let fig21 () =
  heading "Figure 21: hybrid (PCIe+NVLink) vs NVLink-only broadcast, 500 MB";
  List.iter
    (fun n ->
      let gpus = Micro.chain_gpus n in
      let handle = Blink.create Server.dgx1v ~gpus in
      let elems = Scenario.elems_of_mb 500. in
      let chunk = chunk_for elems in
      let np, _ = Blink.broadcast ~chunk_elems:chunk handle ~elems in
      let hp, _ = Hybrid.broadcast ~chunk_elems:chunk handle ~elems in
      let nv = gbps ~elems (Blink.time handle np) in
      let hy = gbps ~elems (Blink.time handle hp) in
      row "  %d GPUs: nvlink-only %6.1f   hybrid %6.1f   (+%.1f GB/s)\n" n nv hy
        (hy -. nv))
    [ 3; 4; 5; 6; 7; 8 ]

let fig22a () =
  heading "Figure 22a: multi-server training, 3+5 GPUs over 2 DGX-1V, 40 Gbps";
  let servers = [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ] in
  let ms = Multiserver.create servers in
  let hi = Hierarchical.create servers in
  let backend_of label time_fn =
    Training.memoized_backend ~label (fun bytes ->
        let elems = max 64 (int_of_float (bytes /. Training.bytes_per_elem)) in
        time_fn elems)
  in
  let blink =
    backend_of "blink-3phase" (fun elems ->
        let prog, _ =
          Multiserver.all_reduce ~chunk_elems:(chunk_for elems) ms ~elems
        in
        (Multiserver.time ms prog).E.makespan)
  in
  let horovod =
    backend_of "horovod" (fun elems ->
        let prog, _ =
          Hierarchical.all_reduce ~chunk_elems:(chunk_for elems) hi ~elems
        in
        (Hierarchical.time hi prog).E.makespan)
  in
  row "%-10s %12s %12s %10s\n" "model" "horovod(ms)" "blink(ms)" "time-red%";
  List.iter
    (fun model ->
      let base = Training.iteration model horovod in
      let ours = Training.iteration model blink in
      row "%-10s %12.1f %12.1f %10.1f\n" model.Models.name
        base.Training.iteration_ms ours.Training.iteration_ms
        (Training.speedup_percent ~baseline:base ours))
    Models.all

let fig22b () =
  heading "Figure 22b: AllReduce (100 MB) vs cross-machine bandwidth, 3+5 GPUs";
  let servers = [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ] in
  let elems = Scenario.elems_of_mb 100. in
  row "%10s %14s %14s\n" "net (Gbps)" "blink (GB/s)" "nccl (GB/s)";
  List.iter
    (fun gbits ->
      let net_bw = gbits /. 8. in
      let ms = Multiserver.create ~net_bw servers in
      let mp, _ = Multiserver.all_reduce ~chunk_elems:(chunk_for elems) ms ~elems in
      let hi = Hierarchical.create ~net_bw servers in
      let hp, _ = Hierarchical.all_reduce ~chunk_elems:(chunk_for elems) hi ~elems in
      row "%10.0f %14.2f %14.2f\n" gbits
        (gbps ~elems (Multiserver.time ms mp))
        (gbps ~elems (Hierarchical.time hi hp)))
    [ 40.; 100.; 200.; 300.; 400.; 600. ]

let treegen_stats () =
  heading "Section 3.2: MWU tree counts vs ILP minimization (8-GPU DGX-1V)";
  let g = Server.nvlink_digraph Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
  List.iter
    (fun epsilon ->
      let raw = Treegen.pack ~epsilon g ~root:0 ~undirected:false in
      let mini = Treegen.minimize g raw in
      let unit = Server.nvlink_bandwidth Server.dgx1v in
      let weights = List.map (fun t -> t.Treegen.weight /. unit) raw.Treegen.trees in
      row
        "  eps=%.2f: MWU %d trees (weights %.3f..%.3f, rate %.2f units) -> ILP %d trees (rate %.2f units)\n"
        epsilon
        (List.length raw.Treegen.trees)
        (List.fold_left Float.min infinity weights)
        (List.fold_left Float.max 0. weights)
        (raw.Treegen.rate /. unit)
        (List.length mini.Treegen.trees)
        (mini.Treegen.rate /. unit))
    [ 0.2; 0.1; 0.05; 0.02 ]

(* ------------------------------------------------------------------ *)
(* Ablations (design choices from DESIGN.md) *)

let ablation_ilp () =
  heading "Ablation: ILP tree minimization on/off (8-GPU DGX-1V AllReduce, 500 MB)";
  let gpus = Array.init 8 Fun.id in
  let g = Server.nvlink_digraph Server.dgx1v ~gpus in
  let fabric = Fabric.of_server Server.dgx1v ~gpus in
  let elems = Scenario.elems_of_mb 500. in
  let measure packing =
    let trees = Blink.trees_of_packing g packing in
    let spec = Codegen.spec ~chunk_elems:(chunk_for elems) fabric in
    let prog, _ = Codegen.all_reduce spec ~elems ~trees in
    gbps ~elems (time_fabric fabric prog)
  in
  let raw = Treegen.pack ~epsilon:0.05 g ~root:0 ~undirected:true in
  let mini = Treegen.minimize g raw in
  row "  MWU only: %d trees -> %.1f GB/s\n" (List.length raw.Treegen.trees) (measure raw);
  row "  with ILP: %d trees -> %.1f GB/s\n" (List.length mini.Treegen.trees) (measure mini)

let ablation_streams () =
  heading "Ablation: stream management on/off (8-GPU DGX-1V AllReduce, 500 MB)";
  let handle = Blink.create Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
  let elems = Scenario.elems_of_mb 500. in
  List.iter
    (fun reuse ->
      let prog, _ =
        Blink.all_reduce ~chunk_elems:(chunk_for elems) ~stream_reuse:reuse handle ~elems
      in
      row "  stream management %-3s: %.1f GB/s\n" (if reuse then "on" else "off")
        (gbps ~elems (Blink.time handle prog)))
    [ true; false ]

let ablation_chunk () =
  heading "Ablation: fixed chunk sizes vs MIAD (8-GPU DGX-1V broadcast, 500 MB)";
  let handle = Blink.create Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
  let elems = Scenario.elems_of_mb 500. in
  let measure ~chunk_elems =
    let prog, _ = Blink.broadcast ~chunk_elems handle ~elems in
    gbps ~elems (Blink.time handle prog)
  in
  List.iter
    (fun c -> row "  fixed %6.2f MB: %.1f GB/s\n" (Float.of_int c *. 4. /. 1e6) (measure ~chunk_elems:c))
    [ 16_384; 262_144; 1_048_576; 8_388_608 ];
  let tuned = Chunking.tune ~init:262_144 ~measure () in
  row "  MIAD-chosen %.2f MB: %.1f GB/s (%d probes)\n"
    (Float.of_int tuned.Chunking.chosen *. 4. /. 1e6)
    (measure ~chunk_elems:tuned.Chunking.chosen)
    (List.length tuned.Chunking.trace)

let ablation_hybrid () =
  heading "Ablation: hybrid split optimal (eq. 8) vs naive proportional";
  let handle = Blink.create Server.dgx1v ~gpus:[| 0; 1; 2; 3 |] in
  let elems = Scenario.elems_of_mb 500. in
  let np, _ = Blink.broadcast handle ~elems in
  let hp, _ = Hybrid.broadcast handle ~elems in
  (* naive split ignores T_dpa: emulate by zero dpa then charging it *)
  let naive, _ = Hybrid.broadcast ~t_dpa:0. handle ~elems in
  let t_naive =
    (Blink.time handle naive).E.makespan +. Hybrid.dpa_latency ~n_ranks:4
  in
  row "  nvlink-only:            %.1f GB/s\n" (gbps ~elems (Blink.time handle np));
  row "  hybrid, eq.8 split:     %.1f GB/s\n" (gbps ~elems (Blink.time handle hp));
  row "  hybrid, naive split:    %.1f GB/s\n"
    (4. *. Float.of_int elems /. t_naive /. 1e9)

let all_figures () =
  fig2 (); fig3 (); fig5 (); fig7 (); fig8 (); fig26 (); fig12 (); fig14 ();
  fig15 (); fig16 (); fig17 (); gather_sweep (); size_sweep (); fig18 ();
  fig19_20 (); fig21 (); fig22a (); fig22b (); treegen_stats ();
  ablation_ilp (); ablation_streams (); ablation_chunk (); ablation_hybrid ()

let registry =
  [
    ("fig2", fig2); ("fig3", fig3); ("fig5", fig5); ("fig7", fig7);
    ("fig8", fig8); ("fig12", fig12); ("fig14", fig14); ("fig15", fig15);
    ("fig16", fig16); ("fig17", fig17); ("fig18", fig18);
    ("fig19", fig19_20); ("fig20", fig19_20); ("fig21", fig21);
    ("fig22a", fig22a); ("fig22b", fig22b); ("fig26", fig26);
    ("gather", gather_sweep); ("sweep", size_sweep);
    ("treegen-stats", treegen_stats);
    ("ablation-ilp", ablation_ilp); ("ablation-streams", ablation_streams);
    ("ablation-chunk", ablation_chunk); ("ablation-hybrid", ablation_hybrid);
  ]
