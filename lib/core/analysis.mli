(** Run-level performance analysis: why a collective takes the time it
    takes, and how close that is to what the topology permits.

    [analyze] executes one timing pass of a compiled plan and combines
    two lenses: {!Blink_sim.Critical_path.attribute}'s one walk (the
    critical-path attribution and the per-link utilization/slack table,
    here with human-readable fabric labels), and the edge-cut upper bound
    ({!Blink.edge_cut_bound}) — the yardstick the paper's
    packed-spanning-tree claim is measured against. A saturating plan
    shows the critical path living on the maximal-utilization links and
    an achieved rate within a few percent of the bound.

    [phases] reads back the planner's always-on phase timers
    (["plan.phase.{mwu,ilp,miad,codegen}_s"]) so the ~1s replan cost
    decomposes into named phases. *)

type link_info = {
  li_resource : int;
  li_label : string;
      (** ["nvlink gpu1->gpu5"], ["engine gpu4"], or ["fabric#k"] for
          resources the fabric does not name (PCIe paths etc.) *)
  li_busy_s : float;
  li_utilization : float;
  li_slack_s : float;  (** idle seconds per lane against the makespan *)
  li_on_critical_path : bool;
}

type report = {
  collective : Plan.collective;
  elems : int;
  chunk_elems : int;
  n_ranks : int;
  makespan_s : float;
  achieved_gbps : float;  (** algorithm bandwidth of this run *)
  bound_gbps : float;  (** {!Blink.edge_cut_bound} *)
  efficiency : float;  (** achieved / bound; 0 when the bound is degenerate *)
  links : link_info list;  (** every resource, highest utilization first *)
  bottlenecks : link_info list;
      (** the maximal-utilization links — the run's rate-defining set *)
  critical_ops : int;  (** ops on the makespan-defining chain *)
  transfer_s : float;  (** critical-path seconds in transfers *)
  compute_s : float;
  delay_s : float;
  wait_s : float;  (** the remainder: queueing + pipeline latency *)
  critical_resources : (string * float) list;
      (** labelled chain seconds per resource, largest first *)
}

val analyze :
  ?chunk_elems:int ->
  ?policy:Blink_sim.Engine.policy ->
  Blink.t ->
  Plan.collective ->
  elems:int ->
  report
(** Plan (through the handle's store, so repeated analyses hit the
    cache), execute one timing-only pass, and attribute it. Publishes
    ["analysis.achieved_gbps"] / ["analysis.bound_gbps"] /
    ["analysis.efficiency"] gauges (labelled by collective) on the
    handle's telemetry. *)

type phase = { phase : string; calls : int; total_s : float }

val phases : Blink.t -> phase list
(** Snapshot of the planner's phase timers accumulated on this handle's
    telemetry — one entry per (phase, label) series that has fired, in
    pipeline order (MWU, ILP, MIAD, codegen). Empty on a disabled
    handle. *)

val report_json : report -> Blink_telemetry.Json.t
val phases_json : phase list -> Blink_telemetry.Json.t
