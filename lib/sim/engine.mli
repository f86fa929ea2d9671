(** Discrete-event timing simulation of a {!Program} on a set of resources.

    Every resource is a multi-lane FIFO server: a directed link (one lane per
    physical NVLink/PCIe channel) or a GPU compute engine. An op becomes
    ready when its dependencies and its stream predecessor have finished;
    after a [latency] pipeline delay it waits for a free lane and occupies
    it for [max (bytes / (bandwidth * bw_scale)) gap] seconds; its data is
    available [bytes / (bandwidth * bw_scale)] after service starts.

    The queueing policy models the CUDA behaviour discussed in paper
    section 4.2.2: [`Fair] serves waiting ops by readiness time (the
    behaviour Blink obtains through stream reuse), while [`Stream_priority]
    serves whole streams in stream-id order, starving late streams the way
    unmanaged CUDA scheduling can. *)

type resource = {
  bandwidth : float;  (** bytes/second per lane *)
  latency : float;
      (** pipeline delay: an op starts service no earlier than
          [ready + latency], but the wait does not occupy a lane — queued
          work hides it, like an asynchronous DMA queue *)
  lanes : int;  (** concurrent ops served *)
  gap : float;
      (** minimum lane occupancy per op (seconds): the cost of issuing the
          copy/sync commands, which caps how many tiny chunks a lane can
          push per second (paper section 4.2.1) *)
}

type policy = [ `Fair | `Stream_priority ]

type result = {
  makespan : float;  (** completion time of the last op (seconds) *)
  finish : float array;  (** per-op completion times *)
  start : float array;  (** per-op start-of-service times *)
  busy : float array;  (** per-resource total busy time (lane-seconds) *)
}

(** {2 Prepared schedules}

    The replay split: {!prepare} lowers a program once into an immutable
    schedule (flat per-op resource/duration/latency arrays, CSR
    dependents adjacency, initial pending counts), and {!run_prepared}
    executes it against a reusable {!arena} whose working arrays and
    heaps are reset in place — the steady-state path allocates (almost)
    nothing per run. {!run} is the thin prepare-then-run wrapper and
    produces bit-identical results. *)

type prepared
(** An immutable lowered schedule: safe to share across domains and to
    replay any number of times. *)

val prepare :
  ?telemetry:Blink_telemetry.Telemetry.t ->
  ?fuse:bool ->
  resources:resource array ->
  Program.t ->
  prepared
(** Validate and lower the program. Raises [Invalid_argument] if an op
    names an unknown resource or a resource spec is invalid
    (non-positive lanes, negative latency) — the same errors {!run}
    raised at the same point. Counts ["engine.prepares"] when telemetry
    is enabled.

    [fuse] (default [true]) enables prepare-time op fusion: maximal runs
    of back-to-back same-resource, same-stream ops whose interior
    members are gated only by their stream predecessor are dispatched as
    single fused schedule entries — interior members skip the event heap
    and the lane bookkeeping entirely. Fusion is applied only when a
    static contention analysis proves no op can ever wait for a lane
    (every resource's summed per-stream lane demand fits its lane
    count), which makes fused replay bit-identical — timing and data —
    to unfused; otherwise the schedule runs unfused even with
    [fuse:true]. Pass [~fuse:false] to force the unfused path (used by
    equivalence tests). Fused dispatch keeps original-op granularity:
    every member still gets its own start/finish entry and recorder
    begin/end pair, so {!Recorder} and {!Critical_path} see original op
    ids. *)

val prepared_program : prepared -> Program.t
val prepared_ops : prepared -> int

val fusion_enabled : prepared -> bool
(** Whether fusion was requested {e and} the contention analysis proved
    it exact. [false] means the schedule dispatches one op per event. *)

val fused_chains : prepared -> int
(** Number of fused chains (each replaces [length] heap events with 1). *)

val fused_ops : prepared -> int
(** Total ops covered by fused chains, heads included. *)

type arena
(** The engine's mutable working set (start/finish/busy/pending/ready
    arrays, event and waiting heaps), reset in place by each
    {!run_prepared}. Not safe to share across concurrent runs:
    {!run_prepared} atomically marks the arena in use for the duration
    of the run and raises [Invalid_argument] on a concurrent or
    reentrant run over the same arena instead of corrupting state. *)

val arena : unit -> arena
(** A fresh empty arena; its arrays are sized lazily to the first
    schedule it runs and resized only when the schedule shape changes. *)

val run_prepared :
  ?policy:policy ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  ?arena:arena ->
  ?recorder:Recorder.t ->
  prepared ->
  result
(** Execute a prepared schedule. The result's [start]/[finish]/[busy]
    arrays {e alias the arena}: they are valid until the arena's next
    run. Copy them out to keep results across runs, or use a dedicated
    arena per result. When [arena] is omitted a domain-local scratch
    arena is used (each domain has its own, so concurrent planners don't
    race; successive runs on one domain overwrite each other's results).
    Raises [Invalid_argument] — without touching the arena — when the
    arena is already mid-run in this or another domain (see {!arena}).

    Telemetry matches {!run}: counts ["engine.runs"]/["engine.ops_executed"],
    observes ["engine.makespan_s"], and when tracing records the
    ["engine.run"] span plus one simulated-time slice per op.

    [recorder] (default {!Recorder.none}, inert) receives a begin and an
    end event per dispatched op via inline preallocated-array stores:
    zero minor allocation on the steady-state path, so recording can
    stay always-on. The ring keeps the most recent window and is dumped
    on demand with {!Recorder.to_json} / {!Recorder.dump_slices}.

    This is the simulator's only event loop: {!Fault.run} replays
    faulted programs through it too (see {!run_faulted}). The fault
    branch is selected by one check per run, so the no-fault dispatch
    path is the same code with or without it. *)

(** {2 Fault hook}

    The retry branch of {!run_prepared}'s event loop. It belongs to
    {!Fault}: build faulted runs with {!Fault.run}, not with these. *)

type fault_hook = {
  attempt : int -> int -> bool;
      (** [attempt id res] decides one service attempt of op [id] on
          resource [res]. On entry [io] holds the attempt's start time,
          the op's nominal duration and its nominal lane occupancy. On
          return [io.(0)] holds the lane release time and [io.(1)] the
          finish time ([true]: served) or the time the op is ready to
          try again ([false]: failed). May raise to abort the run. *)
  io : float array;  (** 3 slots: times pass through here unboxed *)
  occ : float array;
      (** per-op lane-seconds over all attempts, kept by [attempt];
          summed into [busy] in op-id order *)
}

val run_faulted :
  ?policy:policy -> ?recorder:Recorder.t -> fault_hook -> prepared -> result
(** {!run_prepared} on a fresh arena with every resourced op's attempts
    decided by the hook. The schedule must be prepared with
    [~fuse:false]: fused chains assume fixed durations. *)

val run :
  ?policy:policy ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  ?fuse:bool ->
  resources:resource array ->
  Program.t ->
  result
(** [prepare] + [run_prepared] on a fresh arena: results are independent
    across calls. Raises [Invalid_argument] as {!prepare} does.
    [fuse] is passed through to {!prepare} (default on; bit-identical
    either way).

    [telemetry] (default {!Blink_telemetry.Telemetry.disabled} — a no-op
    fast path that costs one match) counts runs/ops and observes the
    makespan; when tracing it additionally records a wall-clock
    ["engine.run"] span and one simulated-time slice per op, which the
    Chrome exporter merges with the planning spans. *)

val throughput : bytes:float -> result -> float
(** [bytes /. makespan], in GB/s when [bytes] is in bytes and times in
    seconds scaled accordingly (the code base uses bytes and seconds, so
    divide by 1e9 upstream; this helper returns bytes per second). *)
