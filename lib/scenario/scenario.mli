(** The scenarios both front ends run — [bench/main.exe] and the [blink]
    CLI: fixed rank inputs, Blink-vs-ring timing, fault steps and the
    cold/warm/contingency failover drill, the planner tournament with its
    data differential, and the report printers they share. Each scenario
    computes once and returns a record; callers keep their own inputs,
    output formats, gates and exit codes. Printers end every line with
    [@.], which flushes, so they interleave in order with [Printf]. *)

module Blink = Blink_core.Blink
module Plan = Blink_core.Plan

(** {1 Inputs and timing} *)

val elems_of_mb : float -> int
(** Elements in [mbytes] MB of {!Blink_core.Blink.bytes_per_elem}-byte
    elements. *)

val rank_inputs : ranks:int -> elems:int -> float array array
(** Rank [r], element [i] holds [((i * 3) + (r * 7)) mod 11]: every sum
    stays an exact small integer in fp32. *)

val loader :
  float array array ->
  Blink_sim.Semantics.memory -> Blink_collectives.Codegen.layout -> unit
(** {!Plan.execute}'s [~load]: input [r] into rank [r]'s data buffer. *)

val timed : (unit -> 'a) -> float * 'a
(** Wall seconds of one call, and its result. *)

val per_run : runs:int -> (unit -> unit) -> float * float
(** Mean wall seconds and minor-heap words per call over [runs] calls. *)

(** {1 Blink against NCCL-style rings} *)

val blink_gbps : mbytes:float -> Blink.t -> Plan.collective -> float
(** Achieved rate of the handle's plan at the
    {!Blink_core.Blink.heuristic_chunk} size. *)

val ring_gbps :
  ?root:int -> mbytes:float -> Blink_topology.Server.t -> gpus:int array ->
  Blink_topology.Fabric.t -> Plan.collective -> float option
(** The same for {!Blink_baselines.Ring} channels ([root] default 0);
    [None] for all_gather and reduce_scatter, which [Ring] lacks. *)

val ring_backend :
  Blink_topology.Server.t -> gpus:int array -> Blink_topology.Fabric.t ->
  Blink_dnn.Training.backend
(** Ring AllReduce as a training-model cost function. *)

(** {1 Fault steps and the failover drill} *)

type fault =
  | Fail_link of int * int
  | Degrade of int * int * float  (** the pair keeps this fraction *)
  | Fail_gpu of int

val fault_label : fault -> string
(** e.g. ["fail-link 5-6"], ["degrade 0-3 to 0.5"], ["fail-gpu 7"]. *)

type path = [ `Cold | `Warm | `Contingency ]

val path_name : path -> string
val all_reduce_s : Blink.t -> elems:int -> float
(** Simulated makespan of the handle's AllReduce plan. *)

val contingency_hits : Blink.t -> int
(** The handle's [plan.contingency.hits] counter. *)

type step = {
  handle : Blink.t;  (** the handle the fault was reported to *)
  fault : fault;
  path : path;  (** [`Contingency] on a prewarmed swap, else the replan mode *)
  replan_s : float;  (** wall time of the mutation *)
  plan_s : float;  (** wall time of the next AllReduce plan lookup *)
  rate_gbps : float;  (** AllReduce packing rate after the fault *)
  makespan_s : float;  (** simulated makespan of that AllReduce *)
}

val apply : ?replan:[ `Warm | `Cold ] -> Blink.t -> elems:int -> fault -> step
(** Report one fault (replan default [`Warm]; a failed GPU ignores it),
    then plan and time the next AllReduce. Raises
    {!Blink_core.Blink.Partitioned} when the fault cuts the allocation. *)

type fresh = { fresh_rate_gbps : float; fresh_makespan_s : float; matches : bool }

val fresh_check : Blink.t -> elems:int -> fresh
(** A fresh handle built on the live handle's degraded fabric; [matches]
    when rate and makespan agree bit for bit, as cold and contingency
    replans must. *)

val used_pairs : Plan.t -> gpus:int array -> (int * int) list
(** GPU pairs the plan's trees route over, sorted. *)

type drill = {
  link : int * int;
  healthy : Plan.t;  (** the cold handle's AllReduce plan before the fault *)
  healthy_rate_gbps : float;
  healthy_makespan_s : float;
  prewarm_s : float;  (** wall time to prewarm the contingency plan *)
  prewarmed_plans : int;
  cold : step;
  warm : step;
  contingency : step;
}

val drill : Blink_topology.Server.t -> gpus:int array -> elems:int -> drill
(** The first link the healthy AllReduce plan routes over fails on three
    handles that each planned that AllReduce first: a [`Cold] replan,
    the default warm replan, and a swap after
    [Blink.prewarm ~contingencies:(`Pairs [link])]. *)

(** {1 Planner tournament} *)

type row = {
  backend : string;
  plan_wall_s : float;  (** wall time of [Blink.create] *)
  graph : Blink_graph.Digraph.t;
  directed : Blink_core.Treegen.packing option;
  undirected : Blink_core.Treegen.packing option;
  feasible : bool;  (** both packings exist and pass [Treegen.feasible] *)
  data_ok : bool;
      (** the 2,048-element AllReduce through {!Blink_sim.Semantics} and
          its float-array reference agrees on every buffer *)
  broadcast_gbps : float;
  all_reduce_gbps : float;
}

val tournament :
  ?link_faults:Blink_topology.Server.faults -> mbytes:float ->
  Blink_topology.Server.t -> gpus:int array -> row list
(** One row per planner backend, in {!Blink_core.Planner.all} order. *)

val pp_tournament : Format.formatter -> label:string -> row list -> unit
(** A header with [label] in its first column, then one line per row. *)

(** {1 The topology sweep} *)

val sweep_plans : unit -> Plan.t array
(** The 72 plans the end-to-end benchmark's topology sweep replays: the
    DGX-1V and DGX-1P with all eight GPUs, DGX-1V GPUs 1,4,5,6 and the
    DGX-1V with link 2-3 down, each at 262,144, 4,194,304 and 33,554,432
    elements (MIAD-tuned chunks) for all six collectives, in that
    order. *)

(** {1 Report printers} *)

val pp_analysis : Format.formatter -> Blink_core.Analysis.report -> unit
(** Achieved rate against the edge-cut bound, the bottleneck links, the
    critical-path split and its three heaviest resources. *)

val pp_phases : Format.formatter -> Blink_core.Analysis.phase list -> unit
(** Planner phase timers; nothing for an empty list. *)

val pp_service : Format.formatter -> Blink_cluster.Scheduler.service_report -> unit
(** Admission, store, throughput and tenant lines, then the observatory:
    tenant health, the five largest classes, the first five stragglers. *)
