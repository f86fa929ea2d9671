(** Compiled collective plans: the plan/execute split of the paper.

    Blink's pitch is that topology-aware plans are generated {e once per
    GPU allocation} (probe, TreeGen, CodeGen, chunk tuning) and then
    reused for every training iteration. A {!t} is that compiled
    artifact: the generated program, its buffer layout, the tree set it
    was built from, and the fabric resources it runs on, for one
    [(collective, elems, chunk_elems)] key.

    Building a plan is the expensive, amortized path ({!build} runs
    CodeGen); executing one is the hot path ({!execute} replays the same
    program instance through the event-driven timing engine and,
    optionally, the dataflow semantics). {!Blink.plan} maintains a
    per-handle cache of these so repeated collectives at the same size
    skip tree extraction, codegen and tuning entirely. *)

type collective =
  | All_reduce
  | Broadcast
  | Reduce
  | Gather
  | All_gather
  | Reduce_scatter

val collective_name : collective -> string
(** Lower-case label, e.g. ["all_reduce"] — for logs and bench output. *)

type t = {
  collective : collective;
  elems : int;  (** per-rank buffer length the program was generated for *)
  chunk_elems : int;  (** pipeline chunk size baked into the program *)
  root : int;  (** root rank for rooted collectives *)
  n_ranks : int;
  program : Blink_sim.Program.t;
  layout : Blink_collectives.Codegen.layout;
  trees : Blink_collectives.Tree.weighted list;
  resources : Blink_sim.Engine.resource array;
  telemetry : Blink_telemetry.Telemetry.t;
      (** the spec's handle, captured at build time so {!execute} reports
          into the same registry without re-threading it *)
  prepared : Blink_sim.Engine.prepared;
      (** the program lowered once into the engine's immutable schedule
          (CSR dependents, per-op resources/durations/latencies) *)
  arena : Blink_sim.Engine.arena;
      (** the plan's reusable engine working set — {!execute} replays the
          schedule against it, so steady-state runs allocate nothing *)
  recorder : Blink_sim.Recorder.t;
      (** the plan's always-on flight recorder: every {!execute} writes
          op begin/end events into this preallocated ring (zero
          steady-state allocation), keeping the most recent window for
          post-mortem dumps *)
  mutable pool_mem : Blink_sim.Semantics.memory option;
      (** pooled replay buffers, reset and reused by data-pass executes *)
  mutable gauge_cells : gauge_cells option;
      (** pre-resolved per-resource gauge handles for the plan's own
          registry, so steady-state executes fold busy/utilization
          gauges without rebuilding label keys *)
}

and gauge_cells

val build :
  collective ->
  spec:Blink_collectives.Codegen.spec ->
  root:int ->
  elems:int ->
  trees:Blink_collectives.Tree.weighted list ->
  t
(** Run CodeGen once for the collective over the given weighted trees.
    [spec] carries the chunk size and fabric; [root] is ignored by
    root-less collectives ([All_reduce], [All_gather], [Reduce_scatter])
    but still recorded. [All_gather] and [Reduce_scatter] take a per-root
    packing: every rank's own trees, rooted at it ({!Blink.root_trees}). *)

type execution = {
  timing : Blink_sim.Engine.result;
  memory : Blink_sim.Semantics.memory option;
      (** [Some] unless executed with [~data:false] *)
}

val execute :
  ?policy:Blink_sim.Engine.policy ->
  ?data:bool ->
  ?reuse_memory:bool ->
  ?load:(Blink_sim.Semantics.memory -> Blink_collectives.Codegen.layout -> unit) ->
  t ->
  execution
(** Run the plan's single program instance through both passes: the
    event-driven timing engine (replaying the plan's {!field-prepared}
    schedule against its {!field-arena}, so steady-state executes
    allocate nothing), and the dataflow replay ([load] fills the buffers
    first). [~data:false] skips the replay — the fast path for
    timing-only users; [load] is then ignored.

    [reuse_memory] (default [true]) serves the data pass from the plan's
    pooled {!field-pool_mem}, zeroed in place per call; pass [false] for
    an independent memory instance. Because the timing arrays alias the
    arena and the pooled memory is shared, an execution's results are
    valid until the plan's next [execute] — copy out what must survive,
    and don't execute one plan from two domains concurrently.

    Reports into the plan's {!field-telemetry}: execute counters, the
    makespan histogram, the per-execute ["plan.execute.minor_words"]
    allocation histogram, per-resource busy/utilization gauges and the
    ["engine.bottleneck_resource"] gauge, computed by
    {!Blink_sim.Critical_path.utilization} and equal to
    {!Blink_sim.Critical_path.attribute}'s link table and its head; when
    tracing, a ["plan.execute"] span plus the engine's per-op slices.
    With a disabled handle the only cost over the bare engine run is a
    match. *)

val seconds : execution -> float
(** The simulated makespan of the execution. *)
