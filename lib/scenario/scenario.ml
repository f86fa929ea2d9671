module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Treegen = Blink_core.Treegen
module Planner = Blink_core.Planner
module Analysis = Blink_core.Analysis
module Codegen = Blink_collectives.Codegen
module Tree = Blink_collectives.Tree
module Ring = Blink_baselines.Ring
module Training = Blink_dnn.Training
module Scheduler = Blink_cluster.Scheduler
module Sem = Blink_sim.Semantics
module E = Blink_sim.Engine

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (Unix.gettimeofday () -. t0, x)

(* ------------------------------------------------------------------ *)
(* Inputs *)

let elems_of_mb mbytes = int_of_float (mbytes *. 1e6 /. Blink.bytes_per_elem)

let rank_inputs ~ranks ~elems =
  Array.init ranks (fun r ->
      Array.init elems (fun i -> Float.of_int (((i * 3) + (r * 7)) mod 11)))

let loader inputs mem (layout : Codegen.layout) =
  Array.iteri
    (fun r values -> Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) values)
    inputs

let per_run ~runs f =
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  let words = Gc.minor_words () -. w0 in
  let wall = Unix.gettimeofday () -. t0 in
  (wall /. Float.of_int runs, words /. Float.of_int runs)

(* ------------------------------------------------------------------ *)
(* Blink against NCCL-style rings, at the same uniform chunk policy *)

let blink_gbps ~mbytes handle collective =
  let elems = elems_of_mb mbytes in
  let chunk_elems = Blink.heuristic_chunk ~elems in
  let plan = Blink.plan ~chunk_elems handle collective ~elems in
  Blink.algbw_gbps ~elems (Plan.execute ~data:false plan).Plan.timing

let ring_time ~channels fabric ~elems program =
  let spec = Codegen.spec ~chunk_elems:(Blink.heuristic_chunk ~elems) fabric in
  let prog, _ = program spec ~elems ~channels in
  E.run ~resources:(Blink_topology.Fabric.resources fabric) prog

let ring_gbps ?(root = 0) ~mbytes server ~gpus fabric collective =
  let elems = elems_of_mb mbytes in
  let program =
    match collective with
    | Plan.Broadcast -> Some (Ring.broadcast ~root)
    | Plan.Reduce -> Some (Ring.reduce ~root)
    | Plan.Gather -> Some (Ring.gather ~root)
    | Plan.All_reduce -> Some Ring.all_reduce
    | Plan.All_gather | Plan.Reduce_scatter -> None
  in
  Option.map
    (fun program ->
      let channels = Ring.nccl_channels server ~gpus in
      Blink.algbw_gbps ~elems (ring_time ~channels fabric ~elems program))
    program

let ring_backend server ~gpus fabric =
  let channels = Ring.nccl_channels server ~gpus in
  Training.memoized_backend ~label:"nccl" (fun bytes ->
      let elems = max 64 (int_of_float (bytes /. Training.bytes_per_elem)) in
      (ring_time ~channels fabric ~elems Ring.all_reduce).E.makespan)

(* ------------------------------------------------------------------ *)
(* Fault steps and the failover drill *)

type fault =
  | Fail_link of int * int
  | Degrade of int * int * float
  | Fail_gpu of int

let fault_label = function
  | Fail_link (u, v) -> Printf.sprintf "fail-link %d-%d" u v
  | Degrade (u, v, f) -> Printf.sprintf "degrade %d-%d to %g" u v f
  | Fail_gpu g -> Printf.sprintf "fail-gpu %d" g

type path = [ `Cold | `Warm | `Contingency ]

let path_name = function
  | `Cold -> "cold"
  | `Warm -> "warm"
  | `Contingency -> "contingency"

let all_reduce_s handle ~elems =
  Plan.seconds
    (Plan.execute ~data:false (Blink.plan handle Plan.All_reduce ~elems))

let contingency_hits handle =
  Blink_telemetry.Telemetry.counter_value (Blink.telemetry handle)
    "plan.contingency.hits"

type step = {
  handle : Blink.t;
  fault : fault;
  path : path;
  replan_s : float;
  plan_s : float;
  rate_gbps : float;
  makespan_s : float;
}

let apply ?(replan = `Warm) handle ~elems fault =
  let hits0 = contingency_hits handle in
  let replan_s, () =
    timed (fun () ->
        match fault with
        | Fail_link (u, v) -> Blink.fail_link ~replan handle ~u ~v
        | Degrade (u, v, factor) ->
            Blink.degrade_link ~replan handle ~u ~v ~factor
        | Fail_gpu gpu -> Blink.fail_gpu handle ~gpu)
  in
  let path =
    if contingency_hits handle > hits0 then `Contingency
    else (replan :> path)
  in
  let plan_s, plan =
    timed (fun () -> Blink.plan handle Plan.All_reduce ~elems)
  in
  let makespan_s = Plan.seconds (Plan.execute ~data:false plan) in
  { handle; fault; path; replan_s; plan_s; makespan_s;
    rate_gbps = Blink.all_reduce_rate handle }

type fresh = { fresh_rate_gbps : float; fresh_makespan_s : float; matches : bool }

let fresh_check handle ~elems =
  let fresh =
    Blink.create ~link_faults:(Blink.link_faults handle) (Blink.server handle)
      ~gpus:(Blink.gpus handle)
  in
  let fresh_rate_gbps = Blink.all_reduce_rate fresh in
  let fresh_makespan_s = all_reduce_s fresh ~elems in
  {
    fresh_rate_gbps;
    fresh_makespan_s;
    matches =
      fresh_rate_gbps = Blink.all_reduce_rate handle
      && fresh_makespan_s = all_reduce_s handle ~elems;
  }

let used_pairs (p : Plan.t) ~gpus =
  List.concat_map
    (fun { Tree.tree; _ } ->
      Array.to_list (Array.mapi (fun r pr -> (r, pr)) tree.Tree.parent))
    p.Plan.trees
  |> List.filter_map (fun (r, pr) ->
         if pr >= 0 then Some (min gpus.(r) gpus.(pr), max gpus.(r) gpus.(pr))
         else None)
  |> List.sort_uniq compare

type drill = {
  link : int * int;
  healthy : Plan.t;
  healthy_rate_gbps : float;
  healthy_makespan_s : float;
  prewarm_s : float;
  prewarmed_plans : int;
  cold : step;
  warm : step;
  contingency : step;
}

let drill server ~gpus ~elems =
  let planned () =
    let h = Blink.create server ~gpus in
    (h, Blink.plan h Plan.All_reduce ~elems)
  in
  let cold, healthy = planned () in
  let healthy_makespan_s = Plan.seconds (Plan.execute ~data:false healthy) in
  let healthy_rate_gbps = Blink.all_reduce_rate cold in
  let ((u, v) as link) = List.hd (used_pairs healthy ~gpus) in
  let fault = Fail_link (u, v) in
  let cold = apply ~replan:`Cold cold ~elems fault in
  (* The warm handle fails before any contingency exists, so it takes
     the incremental path, not a swap. *)
  let warm = apply (fst (planned ())) ~elems fault in
  let cont, _ = planned () in
  let prewarm_s, prewarmed_plans =
    timed (fun () ->
        Blink.prewarm ~contingencies:(`Pairs [ link ]) cont
          [ (Plan.All_reduce, elems) ])
  in
  let contingency = apply cont ~elems fault in
  { link; healthy; healthy_rate_gbps; healthy_makespan_s; prewarm_s;
    prewarmed_plans; cold; warm; contingency }

(* ------------------------------------------------------------------ *)
(* Planner tournament *)

let data_correct handle =
  let elems = 2_048 in
  let plan = Blink.plan ~chunk_elems:512 handle Plan.All_reduce ~elems in
  let prog = plan.Plan.program in
  let data = plan.Plan.layout.Codegen.data in
  let inputs = rank_inputs ~ranks:(Array.length data) ~elems in
  let mem = Sem.memory_of_program prog in
  let rmem = Sem.Ref.memory_of_program prog in
  loader inputs mem plan.Plan.layout;
  Array.iteri (fun r values -> Sem.Ref.write rmem ~node:r ~buf:data.(r) values)
    inputs;
  Sem.run prog mem;
  Sem.Ref.run prog rmem;
  List.for_all
    (fun (node, buf, _len) ->
      Sem.Ref.read rmem ~node ~buf = Sem.read mem ~node ~buf)
    (Blink_sim.Program.buffers prog)

type row = {
  backend : string;
  plan_wall_s : float;
  graph : Blink_graph.Digraph.t;
  directed : Treegen.packing option;
  undirected : Treegen.packing option;
  feasible : bool;
  data_ok : bool;
  broadcast_gbps : float;
  all_reduce_gbps : float;
}

let tournament ?link_faults ~mbytes server ~gpus =
  List.map
    (fun planner ->
      let plan_wall_s, handle =
        timed (fun () -> Blink.create ~planner ?link_faults server ~gpus)
      in
      let graph = Blink.graph handle in
      let directed = Blink.packing handle in
      let undirected = Blink.undirected_packing handle in
      let feasible =
        List.for_all
          (function None -> false | Some p -> Treegen.feasible graph p)
          [ directed; undirected ]
      in
      let data_ok = data_correct handle in
      {
        backend = Planner.name planner;
        plan_wall_s;
        graph;
        directed;
        undirected;
        feasible;
        data_ok;
        broadcast_gbps = blink_gbps ~mbytes handle Plan.Broadcast;
        all_reduce_gbps = blink_gbps ~mbytes handle Plan.All_reduce;
      })
    Planner.all

let trees = function None -> 0 | Some p -> List.length p.Treegen.trees

let pp_tournament ppf ~label rows =
  Format.fprintf ppf "  %-17s %-11s %8s %8s %6s %6s %9s %5s %5s@." label
    "backend" "bcast" "allred" "btrees" "atrees" "plan-ms" "feas" "data";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-17s %-11s %8.1f %8.1f %6d %6d %9.1f %5b %5b@." ""
        r.backend r.broadcast_gbps r.all_reduce_gbps (trees r.directed)
        (trees r.undirected) (r.plan_wall_s *. 1e3) r.feasible r.data_ok)
    rows

(* ------------------------------------------------------------------ *)
(* The topology sweep *)

let sweep_plans () =
  let module Server = Blink_topology.Server in
  let dgx8 = Array.init 8 Fun.id in
  List.concat_map
    (fun handle ->
      List.concat_map
        (fun elems ->
          ignore (Blink.tuned_chunk handle ~elems);
          List.map
            (fun collective -> Blink.plan handle collective ~elems)
            Plan.[ All_reduce; Broadcast; Reduce; Gather; All_gather; Reduce_scatter ])
        [ 262_144; 4_194_304; 33_554_432 ])
    [
      Blink.create Server.dgx1v ~gpus:dgx8;
      Blink.create Server.dgx1p ~gpus:dgx8;
      Blink.create Server.dgx1v ~gpus:[| 1; 4; 5; 6 |];
      Blink.create ~link_faults:[ ((2, 3), Server.Down) ] Server.dgx1v ~gpus:dgx8;
    ]
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Report printers *)

let pp_analysis ppf (r : Analysis.report) =
  let open Analysis in
  let p fmt = Format.fprintf ppf fmt in
  p "achieved %.1f GB/s vs %.1f GB/s edge-cut bound: %.1f%% of what the \
     topology permits@."
    r.achieved_gbps r.bound_gbps (100. *. r.efficiency);
  (match (r.collective, r.family) with
  | Plan.All_reduce, Plan.Trees ->
      p "schedule: reduce + broadcast over the undirected tree packing@."
  | Plan.All_reduce, Plan.Per_root ->
      p "schedule: per-root reduce-scatter + all-gather (every rank's own \
         packing)@."
  | _ -> ());
  p "bottleneck link(s), the run's rate-defining set:@.";
  List.iter
    (fun l ->
      p "  %-22s %5.1f%% utilized, %.3f ms slack%s@." l.li_label
        (100. *. l.li_utilization) (l.li_slack_s *. 1e3)
        (if l.li_on_critical_path then "  [on critical path]" else ""))
    r.bottlenecks;
  p "critical path: %d ops — transfer %.3f ms, compute %.3f ms, delay %.3f \
     ms, wait %.3f ms@."
    r.critical_ops (r.transfer_s *. 1e3) (r.compute_s *. 1e3)
    (r.delay_s *. 1e3) (r.wait_s *. 1e3);
  List.iteri
    (fun i (label, s) ->
      if i < 3 then p "  %d. %-22s %.3f ms on the chain@." (i + 1) label (s *. 1e3))
    r.critical_resources

let pp_phases ppf = function
  | [] -> ()
  | phases ->
      Format.fprintf ppf "planner phases (this handle's replan cost, decomposed):@.";
      List.iter
        (fun (p : Analysis.phase) ->
          Format.fprintf ppf "  %-22s %2d call(s) %8.2f ms@." p.Analysis.phase
            p.Analysis.calls (p.Analysis.total_s *. 1e3))
        phases

let pp_service ppf (r : Scheduler.service_report) =
  let open Scheduler in
  let p fmt = Format.fprintf ppf fmt in
  let st = r.store in
  p "%d jobs over %d tenants: %d admitted, %d rejected (capacity), %d \
     rejected (quota)@."
    r.jobs (List.length r.tenants) r.admitted_jobs r.rejected_capacity_jobs
    r.rejected_quota_jobs;
  p "slices: %d planned, %d single-gpu, %d pcie-only@." r.planned_slices
    r.single_gpu_slices r.pcie_slices;
  p "shared store: %d hits / %d misses (%.1f%% cross-job hit rate), %d \
     unique fingerprints, %d live plans, %d evictions@."
    st.Blink_store.Store.hits st.Blink_store.Store.misses
    (100. *. r.hit_rate) r.unique_fingerprints st.Blink_store.Store.entries
    st.Blink_store.Store.evictions;
  p "throughput: %.0f jobs/s (%.2f s wall), fairness %.3f@." r.jobs_per_second
    r.wall_seconds r.fairness;
  List.iter
    (fun t ->
      p "  tenant %d: %4d submitted, %4d admitted, %3d/%3d rejected \
         (cap/quota), %10.0f gpu-s@."
        t.tenant t.submitted t.admitted t.rejected_capacity t.rejected_quota
        t.gpu_seconds)
    r.tenants;
  p "verification: %d sampled slices, %d mismatches@." r.verified_slices
    r.verify_mismatches;
  p "observatory (per-tenant service health):@.";
  List.iter
    (fun o ->
      p "  tenant %d: %4d jobs, latency %7.2f/%7.2f ms (mean/p95), \
         queue-wait %6.2f/%6.2f ms, %d straggler slices@."
        o.ob_tenant o.ob_jobs (o.ob_latency.h_mean_s *. 1e3)
        (o.ob_latency.h_p95_s *. 1e3) (o.ob_queue_wait.h_mean_s *. 1e3)
        (o.ob_queue_wait.h_p95_s *. 1e3) o.ob_straggler_slices)
    r.observatory;
  List.iteri
    (fun i c ->
      if i < 5 then
        p "  class %-22s %5d slices, %6.1f GB/s mean (best %.1f, worst %.1f), \
           %d stragglers@."
          c.fc_class c.fc_slices c.fc_mean_gbps c.fc_best_gbps c.fc_worst_gbps
          c.fc_stragglers)
    r.classes;
  p "stragglers: %d flagged slices (> %.0f%% below the class's best rate)@."
    r.straggler_slices (100. *. r.straggler_epsilon);
  List.iteri
    (fun i s ->
      if i < 5 then
        p "  tenant %d on class %s: %.1f GB/s achieved vs %.1f expected@."
          s.st_tenant s.st_class s.st_achieved_gbps s.st_expected_gbps)
    r.stragglers
