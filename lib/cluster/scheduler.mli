(** Multi-tenant GPU cluster simulation (paper figure 3).

    The paper analyzed 40,000 multi-GPU jobs on an 8-GPU-server cluster and
    found that, although jobs overwhelmingly request power-of-two GPU
    counts, the per-server slices they actually receive are frequently 3,
    5, 6 or 7 GPUs — the fragmentation Blink is designed for. This module
    reproduces that distribution with a synthetic trace: jobs with
    power-of-two demands arrive and depart, and a locality-{e unaware}
    first-fit scheduler packs them onto servers, splitting jobs across
    machines whenever no single server has room. *)

type job = { id : int; gpus : int; duration : int }

val generate_trace : ?seed:int -> n_jobs:int -> unit -> job list
(** Power-of-two GPU demands (1-16) with the skew towards small jobs
    reported in multi-tenant traces; durations are log-uniform. *)

type placement = { job : job; slices : (int * int) list }
(** Per-server pieces: [(server, gpus_on_that_server)]. *)

type stats = {
  placements : placement list;
  per_server_counts : int array;
      (** histogram over 1..8 of GPUs-per-server slices of {e multi-GPU}
          jobs — figure 3's bars; index [g-1] counts slices of size [g] *)
  fragmented_jobs : int;  (** multi-GPU jobs split across servers *)
  multi_gpu_jobs : int;
  rejected : int;  (** jobs that found no capacity and were dropped *)
}

val simulate : ?servers:int -> job list -> stats
(** First-fit over [servers] 8-GPU machines (default 64). Jobs are
    processed in arrival order; a job departs [duration] arrivals later,
    freeing its GPUs. *)

val fraction : stats -> int -> float
(** Fraction of multi-GPU-job slices with the given per-server GPU count
    (1-8). *)

type slice_profile = {
  size : int;  (** per-server slice size (2-8) *)
  count : int;  (** occurrences of that slice size in the trace *)
  all_reduce_gbps : float;
      (** simulated Blink AllReduce algorithm bandwidth on a
          representative NVLink-connected allocation of that size
          ([0.] when no connected allocation exists) *)
}

val profile_slices :
  ?server:Blink_topology.Server.t ->
  ?elems:int ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  stats ->
  slice_profile list
(** Attach a communication capability to figure 3's fragmentation
    histogram through the compiled-plan layer: for each multi-GPU slice
    size present in the trace, compile {e one} Blink plan
    ({!Blink_core.Blink.plan}) on a representative allocation and report
    its simulated AllReduce bandwidth — thousands of trace slices share a
    handful of compiled plans, the paper's plan-once/run-always split at
    cluster scale. [server] defaults to the DGX-1V; [elems] (default 4M
    fp32) sizes the probed buffer.

    [telemetry] (default disabled) is shared by every per-size Blink
    handle, aggregating the whole sweep into one registry; per size it
    also counts trace slices (["scheduler.slices"]), gauges the profiled
    bandwidth and, when tracing, records a
    ["scheduler.profile_slice_<g>"] span. *)

(** {2 Multi-tenant collective service}

    The cluster observation of paper section 5.2 — 40,000 jobs collapsing
    into a few dozen unique topology classes — run as a closed loop: the
    churn trace drives admission, GPU-id-level placement, and one shared
    fingerprint-keyed plan store ({!Blink_core.Blink.new_store}) that every
    NVLink-capable slice plans against. Each slice is remapped onto its
    topology class representative
    ({!Blink_store.Fingerprint.canonical_alloc}) before opening its
    handle, so isomorphic allocations hit the same compiled plans. *)

type tenant_stats = {
  tenant : int;
  submitted : int;
  admitted : int;
  rejected_capacity : int;  (** dropped: cluster out of GPUs *)
  rejected_quota : int;  (** dropped: tenant over its in-flight GPU quota *)
  gpu_seconds : float;  (** accumulated [gpus * duration] of admitted jobs *)
}

(** {2 Service observatory} — the per-tenant / per-fingerprint health
    view exported with the [cluster --service] snapshot. *)

type histogram_summary = {
  h_count : int;
  h_mean_s : float;
  h_p95_s : float;
  h_max_s : float;
}

type tenant_observatory = {
  ob_tenant : int;
  ob_jobs : int;  (** admitted jobs contributing samples *)
  ob_latency : histogram_summary;
      (** service-side wall time per admitted job, admission to last
          slice done (mirrored into ["service.tenant.latency_s"]) *)
  ob_queue_wait : histogram_summary;
      (** admission-to-first-slice placement wall time (mirrored into
          ["service.tenant.queue_wait_s"]) *)
  ob_straggler_slices : int;
}

type fingerprint_class = {
  fc_class : string;  (** the {!Blink_store.Fingerprint.class_digest} *)
  fc_slices : int;
  fc_mean_gbps : float;
  fc_best_gbps : float;
  fc_worst_gbps : float;
  fc_stragglers : int;
}

type straggler = {
  st_tenant : int;
  st_class : string;
  st_expected_gbps : float;  (** the class's best achieved rate *)
  st_achieved_gbps : float;
}

type service_report = {
  jobs : int;
  admitted_jobs : int;
  rejected_capacity_jobs : int;
  rejected_quota_jobs : int;
  planned_slices : int;  (** multi-GPU NVLink slices that compiled/fetched a plan *)
  single_gpu_slices : int;
  pcie_slices : int;  (** multi-GPU slices with no NVLink spanning structure *)
  store : Blink_store.Store.stats;  (** aggregate shared-store counters *)
  unique_fingerprints : int;  (** distinct topology classes seen by the store *)
  hit_rate : float;  (** cross-job plan-cache hit rate, [hits / lookups] *)
  mean_slice_seconds : float;  (** mean simulated AllReduce time per planned slice *)
  wall_seconds : float;  (** host wall-clock for the whole service loop *)
  jobs_per_second : float;  (** sustained service throughput, [jobs / wall] *)
  tenants : tenant_stats list;
  fairness : float;  (** Jain index over per-tenant admitted GPU-time *)
  verified_slices : int;
  verify_mismatches : int;
      (** sampled slices whose shared-store timing differed from a fresh
          isolated handle — always [0]; anything else is a sharing bug *)
  observatory : tenant_observatory list;
  classes : fingerprint_class list;
      (** per-fingerprint achieved-rate stats, most-populated first *)
  stragglers : straggler list;  (** every flagged slice, in arrival order *)
  straggler_slices : int;
  straggler_epsilon : float;
}

val run_service :
  ?seed:int ->
  ?servers:int ->
  ?server:Blink_topology.Server.t ->
  ?n_tenants:int ->
  ?quota_frac:float ->
  ?elems:int ->
  ?max_store_plans:int ->
  ?verify_every:int ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  ?straggler:int * float ->
  ?straggler_epsilon:float ->
  n_jobs:int ->
  unit ->
  service_report
(** Run [n_jobs] from [generate_trace ~seed] (identical trace to the
    figure-3 simulation) through the service loop on [servers] machines
    of type [server] (default 64 DGX-1V). Tenant [job.id mod n_tenants]
    submits each job; admission checks cluster capacity, then the
    tenant's in-flight GPU quota ([quota_frac] of the cluster, default
    0.5). Admitted jobs place best-fit-whole-server first, else split
    over the emptiest servers; every multi-GPU NVLink-connected slice
    opens a handle against the shared store and times one compiled
    AllReduce of [elems] (default 1M fp32).

    [max_store_plans] bounds the shared store (cache-pressure eviction);
    [verify_every] > 0 re-times every n-th planned slice on a fresh
    isolated handle and counts [verify_mismatches] if any float differs
    (bit-identity of shared plans); [telemetry] is shared by every
    service handle.

    Observatory: every planned slice's achieved rate is accumulated per
    fingerprint class; a slice more than [straggler_epsilon] (default
    0.1) below its class's best rate is flagged as a straggler.
    [straggler] injects one — [(tenant, factor)] multiplies that
    tenant's observed slice times by [factor > 1], simulating
    tenant-side slowdown; the flagged slices then concentrate on that
    tenant. Per-tenant latency / queue-wait summaries come back in
    [observatory] and, when [telemetry] is enabled, as labelled
    histograms. *)
