module Fabric = Blink_topology.Fabric
module Engine = Blink_sim.Engine
module Critical_path = Blink_sim.Critical_path
module Telemetry = Blink_telemetry.Telemetry
module Json = Blink_telemetry.Json

type link_info = {
  li_resource : int;
  li_label : string;
  li_busy_s : float;
  li_utilization : float;
  li_slack_s : float;
  li_on_critical_path : bool;
}

type report = {
  collective : Plan.collective;
  family : Plan.family;
  elems : int;
  chunk_elems : int;
  n_ranks : int;
  makespan_s : float;
  achieved_gbps : float;
  bound_gbps : float;
  efficiency : float;
  links : link_info list;
  bottlenecks : link_info list;
  critical_ops : int;
  transfer_s : float;
  compute_s : float;
  delay_s : float;
  wait_s : float;
  critical_resources : (string * float) list;
}

(* Human-readable names for the fabric's resource ids: direct NVLink
   channels and GPU copy engines are recoverable from the fabric's own
   accessors; anything else (PCIe paths, switch hops) keeps a generic
   label. *)
let resource_labels fabric =
  let n = Array.length (Fabric.resources fabric) in
  let labels = Array.init n (fun i -> Printf.sprintf "fabric#%d" i) in
  let ranks = Fabric.n_ranks fabric in
  for r = 0 to ranks - 1 do
    let e = Fabric.engine fabric ~rank:r in
    if e >= 0 && e < n then
      labels.(e) <- Printf.sprintf "engine gpu%d" (Fabric.gpu_of_rank fabric r)
  done;
  for s = 0 to ranks - 1 do
    for d = 0 to ranks - 1 do
      if s <> d then
        match Fabric.nv_direct fabric ~src:s ~dst:d with
        | Some res when res >= 0 && res < n ->
            labels.(res) <-
              Printf.sprintf "nvlink gpu%d->gpu%d"
                (Fabric.gpu_of_rank fabric s)
                (Fabric.gpu_of_rank fabric d)
        | Some _ | None -> ()
    done
  done;
  labels

let analyze ?chunk_elems ?policy t collective ~elems =
  let plan = Blink.plan ?chunk_elems t collective ~elems in
  let exec = Plan.execute ?policy ~data:false plan in
  let timing = exec.Plan.timing in
  let attribution =
    Critical_path.attribute ~resources:plan.Plan.resources plan.Plan.program
      timing
  in
  let labels = resource_labels (Blink.fabric t) in
  let label r =
    if r >= 0 && r < Array.length labels then labels.(r)
    else Printf.sprintf "fabric#%d" r
  in
  let links =
    List.map
      (fun (l : Critical_path.link_report) ->
        {
          li_resource = l.Critical_path.resource;
          li_label = label l.Critical_path.resource;
          li_busy_s = l.Critical_path.busy_s;
          li_utilization = l.Critical_path.utilization;
          li_slack_s = l.Critical_path.slack_s;
          li_on_critical_path = l.Critical_path.on_path;
        })
      attribution.Critical_path.links
  in
  let max_util = match links with l :: _ -> l.li_utilization | [] -> 0. in
  let bottlenecks =
    List.filter
      (fun l -> max_util > 0. && l.li_utilization >= max_util -. 1e-9)
      links
  in
  let achieved = Blink.algbw_gbps ~elems timing in
  let bound = Blink.edge_cut_bound t collective in
  let efficiency =
    if Float.is_finite bound && bound > 0. && Float.is_finite achieved then
      achieved /. bound
    else 0.
  in
  let telemetry = Blink.telemetry t in
  if Telemetry.enabled telemetry then begin
    let l = [ ("collective", Plan.collective_name collective) ] in
    Telemetry.set_gauge telemetry ~labels:l "analysis.achieved_gbps" achieved;
    Telemetry.set_gauge telemetry ~labels:l "analysis.bound_gbps" bound;
    Telemetry.set_gauge telemetry ~labels:l "analysis.efficiency" efficiency
  end;
  {
    collective;
    family = plan.Plan.family;
    elems;
    chunk_elems = plan.Plan.chunk_elems;
    n_ranks = plan.Plan.n_ranks;
    makespan_s = timing.Engine.makespan;
    achieved_gbps = achieved;
    bound_gbps = bound;
    efficiency;
    links;
    bottlenecks;
    critical_ops = List.length attribution.Critical_path.path;
    transfer_s = attribution.Critical_path.transfer_s;
    compute_s = attribution.Critical_path.compute_s;
    delay_s = attribution.Critical_path.delay_s;
    wait_s = attribution.Critical_path.wait_s;
    critical_resources =
      List.map
        (fun (res, s) -> (label res, s))
        attribution.Critical_path.per_resource;
  }

type phase = { phase : string; calls : int; total_s : float }

let phases t =
  let telemetry = Blink.telemetry t in
  let take name labels phase =
    match Telemetry.histogram telemetry ?labels name with
    | Some h when h.Telemetry.Metrics.count > 0 ->
        Some
          {
            phase;
            calls = h.Telemetry.Metrics.count;
            total_s = h.Telemetry.Metrics.sum;
          }
    | Some _ | None -> None
  in
  let modes = [ "directed"; "undirected" ] in
  let mwu =
    List.map
      (fun m -> take "plan.phase.mwu_s" (Some [ ("mode", m) ]) ("mwu " ^ m))
      modes
  in
  let ilp =
    List.map
      (fun m -> take "plan.phase.ilp_s" (Some [ ("mode", m) ]) ("ilp " ^ m))
      modes
  in
  let miad = [ take "plan.phase.miad_s" None "miad" ] in
  let codegen =
    List.map
      (fun c ->
        let name = Plan.collective_name c in
        take "plan.phase.codegen_s"
          (Some [ ("collective", name) ])
          ("codegen " ^ name))
      Plan.[ All_reduce; Broadcast; Reduce; Gather; All_gather; Reduce_scatter ]
  in
  List.filter_map Fun.id (mwu @ ilp @ miad @ codegen)

let link_json l =
  Json.Obj
    [
      ("resource", Json.int l.li_resource);
      ("label", Json.str l.li_label);
      ("busy_s", Json.float l.li_busy_s);
      ("utilization", Json.float l.li_utilization);
      ("slack_s", Json.float l.li_slack_s);
      ("on_critical_path", Json.Bool l.li_on_critical_path);
    ]

(* Only all-reduce chooses its family; every other collective's is fixed
   by the collective. *)
let report_json r =
  let family =
    match r.collective with
    | Plan.All_reduce -> [ ("family", Json.str (Plan.family_name r.family)) ]
    | Plan.Broadcast | Plan.Reduce | Plan.Gather | Plan.All_gather
    | Plan.Reduce_scatter ->
        []
  in
  Json.Obj
    ([ ("collective", Json.str (Plan.collective_name r.collective)) ]
    @ family
    @ [
      ("elems", Json.int r.elems);
      ("chunk_elems", Json.int r.chunk_elems);
      ("n_ranks", Json.int r.n_ranks);
      ("makespan_s", Json.float r.makespan_s);
      ("achieved_gbps", Json.float r.achieved_gbps);
      ("bound_gbps", Json.float r.bound_gbps);
      ("efficiency", Json.float r.efficiency);
      ( "critical_path",
        Json.Obj
          [
            ("ops", Json.int r.critical_ops);
            ("transfer_s", Json.float r.transfer_s);
            ("compute_s", Json.float r.compute_s);
            ("delay_s", Json.float r.delay_s);
            ("wait_s", Json.float r.wait_s);
            ( "resources",
              Json.List
                (List.map
                   (fun (label, s) ->
                     Json.Obj
                       [ ("label", Json.str label); ("seconds", Json.float s) ])
                   r.critical_resources) );
          ] );
      ("bottlenecks", Json.List (List.map link_json r.bottlenecks));
      ("links", Json.List (List.map link_json r.links));
    ])

let phases_json ps =
  Json.List
    (List.map
       (fun p ->
         Json.Obj
           [
             ("phase", Json.str p.phase);
             ("calls", Json.int p.calls);
             ("total_s", Json.float p.total_s);
           ])
       ps)
