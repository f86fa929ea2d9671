(** Post-mortem analysis of a timed run: turn it into an explanation.

    {!attribute} extracts the makespan-defining op chain in one walk and
    attributes that chain's time — per op kind (transfer / compute /
    delay, plus inter-op wait), per resource — and reports every
    resource's busy time, utilization, and slack against the makespan.
    The slack view is the paper's claim made checkable: a
    packed-spanning-tree schedule should leave (near-)zero slack on the
    bottleneck link and the critical path should live there.

    These are the tools used to debug every scheduling pathology found
    while building the collectives (head-of-line blocking on shared
    streams, convoy effects on multi-lane links, fill/drain of deep
    trees). For a visual timeline, trace the run through
    {!Blink_telemetry.Telemetry.chrome_json}. *)

type span = {
  op : int;
  start : float;
  finish : float;
  via : [ `Dep | `Stream | `Start ];
      (** what this op waited on: a data dependency, its stream
          predecessor, or nothing (it started the chain) *)
}

type link_report = {
  resource : int;
  busy_s : float;  (** lane-seconds of work served *)
  utilization : float;  (** see {!utilization} *)
  slack_s : float;  (** makespan - busy/lanes: idle time per lane *)
  on_path : bool;  (** serves at least one critical-path op *)
}

type attribution = {
  path : span list;
      (** the chain ending at the last-finishing op, following at each
          step the predecessor (dependency or stream) that finished last;
          start-of-chain first. Gaps between consecutive spans are time
          spent waiting for a lane. *)
  makespan : float;
  transfer_s : float;  (** chain time inside transfer ops *)
  compute_s : float;  (** chain time inside compute ops *)
  delay_s : float;  (** chain time inside delay ops *)
  wait_s : float;
      (** chain time between ops (lane queueing + pipeline latency),
          including the lead-in before the first op; the four components
          sum to [makespan] *)
  per_resource : (int * float) list;
      (** chain time per resource (delay ops excluded), largest first *)
  links : link_report list;
      (** every resource, highest utilization first, ties by lowest id:
          the head is the run's bottleneck; empty with no resources *)
}

val attribute :
  resources:Engine.resource array -> Program.t -> Engine.result -> attribution

val utilization :
  resources:Engine.resource array -> Engine.result -> float array -> int
(** [utilization ~resources r dst] writes each resource's utilization,
    [busy / (lanes * makespan)] or 0 when the makespan is [<= 0], into
    [dst.(i)] and returns the bottleneck: the lowest id among the
    maximal utilizations, or [-1] with no resources. Allocation-free, so
    per-execute gauge folds can call it. [dst] must hold at least one
    slot per resource. *)
