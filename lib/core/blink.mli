(** The Blink library facade: probe a topology, generate trees, build and
    time collective programs — the full TreeGen + CodeGen pipeline of the
    paper behind an NCCL-shaped API.

    {[
      let handle = Blink.create Blink_topology.Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
      let plan = Blink.plan handle Plan.All_reduce ~elems:125_000_000 in
      let exec = Plan.execute ~data:false plan in
      Format.printf "AllReduce: %.1f GB/s@."
        (Blink.algbw_gbps ~elems:125_000_000 exec.Plan.timing)
    ]} *)

type t

type store
(** A fingerprint-keyed plan store ({!Blink_store.Store}) holding compiled
    plans, tuned chunks and topology packings, bucketed by canonical
    topology fingerprint ({!Blink_store.Fingerprint}). Every handle uses
    one: a private store by default, or a shared one passed to
    [create ?store] — then every isomorphic allocation (same server
    wiring, same induced link structure and fault state, canonical GPU
    tuple) hits the same compiled plans, the paper's observation that
    cluster jobs collapse into a few dozen topology classes. *)

val new_store : ?max_plans:int -> unit -> store
(** Fresh shared store. [max_plans] bounds the compiled plans across all
    tenants (FIFO eviction, like [create ?max_cached_plans] — raises
    [Invalid_argument] if non-positive); topology packings and tuned
    chunks don't count against it. *)

val store_stats : store -> Blink_store.Store.stats
(** Aggregate counters across every tenant of the store: live entries,
    unique fingerprints, cross-job hits/misses, evictions,
    invalidations. *)

exception Partitioned of { alive : int list; unreachable : int list }
(** Raised when the surviving NVLink graph no longer spans the allocation:
    [alive] are the GPU ids still reachable from the root, [unreachable]
    the ones cut off. Raised by the mutation that caused the partition
    and, from then on, by every planning/execution entry point of the
    handle — a partitioned handle never executes a stale plan. *)

val create :
  ?root:int ->
  ?epsilon:float ->
  ?threshold:float ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  ?max_cached_plans:int ->
  ?link_faults:Blink_topology.Server.faults ->
  ?store:store ->
  ?planner:Planner.backend ->
  Blink_topology.Server.t ->
  gpus:int array ->
  t
(** Probe the server's interconnect restricted to [gpus] and plan trees.
    On NVLink machines this runs MWU packing + ILP minimization
    ({!Treegen.plan}) from [root] (default: the max-rate root). On
    NVSwitch machines (DGX-2) it uses the one-hop constructions of paper
    section 3.5 instead. Raises [Invalid_argument] when [gpus] names fewer
    than 2 GPUs: one GPU has no interconnect to plan over.

    [telemetry] (default: a fresh metrics-only
    [Blink_telemetry.Telemetry.create ()]) is threaded through every
    pipeline stage this handle drives — TreeGen, CodeGen, MIAD tuning,
    the plan cache and the timing engine. Pass
    [Telemetry.create ~trace:true ()] to also capture spans/slices for
    the Chrome exporter, or [Telemetry.disabled] to strip all
    instrumentation (then {!plan_cache_stats} reports zeros).

    [max_cached_plans] bounds the compiled-plan cache; when full, the
    oldest entry is evicted FIFO (counted as ["plan.cache.evictions"]).
    Unbounded by default. Raises [Invalid_argument] if non-positive.

    [link_faults] (default none) creates the handle directly on a
    degraded fabric — the state a healthy handle converges to after the
    same {!degrade_link}/{!fail_link} calls, useful to cross-check
    replanned handles. With [link_faults] present a disconnected graph
    raises {!Partitioned} instead of [Invalid_argument].

    [store] (default: a fresh private store) plugs the handle into a
    shared plan store: compiled plans, tuned chunks and the topology
    packing are fetched from and published under the allocation's
    canonical fingerprint, so isomorphic handles — identical construction
    inputs, typically reached by remapping onto
    {!Blink_store.Fingerprint.canonical_alloc} — reuse each other's
    work. Handle-local {!plan_cache_stats} still count only this
    handle's own lookups. Mutually exclusive with [max_cached_plans]
    (capacity belongs to the store — raises [Invalid_argument]); after a
    fault the handle migrates to its new fingerprint without touching
    the other tenants' entries.

    [planner] (default {!Planner.default}, TreeGen) picks the backend
    that packs trees on NVLink machines. The backend name is part of the
    handle's fingerprint, so tenants on different backends never share
    store entries; only the TreeGen backend takes the incremental warm
    path on fault replans — lp-flow replans cold. *)

val planner : t -> Planner.backend
(** The planner backend this handle packs with. *)

val store : t -> store
(** The store this handle plans against (its own private one unless
    [create ?store] was given). *)

val fingerprint : t -> Blink_store.Fingerprint.t
(** The canonical fingerprint of the handle's current topology view;
    changes on every fault mutation. *)

val fabric : t -> Blink_topology.Fabric.t
val server : t -> Blink_topology.Server.t
val root : t -> int
val n_ranks : t -> int

val gpus : t -> int array
(** The surviving allocation, in rank order (a copy). Shrinks when
    {!fail_gpu} drops a GPU. *)

val link_faults : t -> Blink_topology.Server.faults
(** Accumulated link faults, as canonical sorted [(u, v), state] pairs
    with [u < v]. *)

val telemetry : t -> Blink_telemetry.Telemetry.t
(** The handle's telemetry sink — read it to export metrics
    ({!Blink_telemetry.Telemetry.metrics_json_string}) or traces
    ({!Blink_telemetry.Telemetry.chrome_json}). *)

val packing : t -> Treegen.packing option
(** The directed (arborescence) packing used for one-to-many primitives
    ([None] on NVSwitch machines). *)

val undirected_packing : t -> Treegen.packing option
(** The undirected packing used for many-to-many primitives: trees that
    consume each duplex link in both directions (reduce up, broadcast
    down), so the up and down flows never collide — see paper section
    3.3. *)

val rate : t -> float
(** Achieved one-to-many packing rate in GB/s (for NVSwitch machines: the
    one-hop aggregate attach bandwidth). *)

val all_reduce_rate : t -> float
(** Achieved many-to-many packing rate in GB/s. *)

val graph : t -> Blink_graph.Digraph.t
(** The NVLink digraph the handle currently plans over (rebuilt on every
    degradation/failure) — the analyzer computes edge-cut bounds on it. *)

val edge_cut_bound : t -> Plan.collective -> float
(** The topology's edge-cut upper bound on the collective's achievable
    algorithm bandwidth ({!algbw_gbps} convention), in GB/s. Broadcast is
    bounded by the Edmonds arborescence-packing value ([min] over
    vertices of maxflow from {!root}); reduce de-rates that by
    {!Blink_topology.Link.reduce_scale} (inline reduction slows the
    receiving link); gather funnels [n-1] per-rank buffers
    through the root's cut, dividing the bound by [n-1]. All_gather and
    reduce_scatter take their cut bounds over the rank subsets [S] of
    {!graph} (ForestColl, arXiv 2402.06787), with [cap_in(S)] the
    capacity entering [S]: [min cap_in(S) / |V\S|] for all_gather, and
    [reduce_scale * n * min cap_in(S) / |S|] for reduce_scatter. The
    subsets are enumerated exactly up to 16 ranks; above that only the
    single ranks and their complements are tried, which still bounds.
    On NVSwitch machines the packing values are the one-hop aggregate
    attach bandwidth [a]: all_gather keeps the gather form, and
    reduce_scatter is bounded by [reduce_scale * a * n / (n-1)], the cut
    around all ranks but one.

    All_reduce takes the larger of its two schedule families' bounds
    (see {!plan}). The tree family is bounded by the de-rated undirected
    spanning-tree-packing weight [reduce_scale * all_reduce_rate]: each
    tree carries the buffer both ways across every tree edge. The
    per-root family runs a reduce-scatter of the whole buffer, then an
    all-gather of the [1/n] segments, so its cut value is
    [1 / (1/RS + 1/(n AG))] with [RS] and [AG] the two bounds above. On
    the full DGX-1V that is 67.74 GB/s against the trees' 60.92, on the
    full DGX-1P 40.96 against 37.29. On NVSwitch machines only the tree
    form applies ([reduce_scale * a]). This bounds the two families, not
    every all-reduce schedule. [infinity] on single-GPU
    allocations (nothing to bound). *)

val broadcast_trees : t -> Blink_collectives.Tree.weighted list
(** Trees rooted at {!root} for broadcast and reduce, shares
    proportional to packed weights. On NVSwitch machines: [n-1] two-hop
    relay trees, [root -> i -> every other rank] with share [1/(n-1)],
    so every attach carries part of the buffer. Gather keeps one
    one-hop star there: its data all ends at the root, and a relay only
    adds a hop. *)

val all_reduce_trees : t -> Blink_collectives.Tree.weighted list
(** Trees for many-to-many primitives: the undirected packing's trees on
    DGX-1-like machines; [n] one-hop trees with rotating roots on NVSwitch
    machines. *)

val root_trees : t -> Blink_collectives.Tree.weighted list array
(** The per-root packing the root-less all_gather and reduce_scatter run
    over: element [r] holds the trees rooted at rank [r], with shares
    summing to 1. Built on first use and kept until the next topology
    mutation. {!root} keeps {!broadcast_trees}. A rank onto which an
    automorphism of {!graph} (over per-pair capacities) maps an already
    packed rank takes that packing through the automorphism; every other
    rank is packed by the handle's planner with MWU epsilon [0.3],
    followed by its usual ILP minimization. That fixed epsilon is
    internal: on the DGX-1 fabrics it yields the same integral trees as
    the default at a fifth of the cost. NVSwitch machines use one
    one-hop star per rank. Telemetry counts the packings by source
    (["plan.root_packings"], labelled [handle], [mapped] or
    [planned]). *)

val root_packings : t -> Treegen.packing array option
(** The directed packings behind {!root_trees}, indexed by root rank
    ([None] on NVSwitch machines). *)

val spec :
  ?chunk_elems:int -> ?stream_reuse:bool -> t -> Blink_collectives.Codegen.spec
(** CodeGen parameters against this handle's fabric (NVLink class). *)

(** {2 Collectives} — each returns the program and its buffer layout. *)

val broadcast :
  ?chunk_elems:int -> ?stream_reuse:bool -> t -> elems:int ->
  Blink_sim.Program.t * Blink_collectives.Codegen.layout

val reduce :
  ?chunk_elems:int -> ?stream_reuse:bool -> t -> elems:int ->
  Blink_sim.Program.t * Blink_collectives.Codegen.layout

val all_reduce :
  ?chunk_elems:int -> ?stream_reuse:bool -> t -> elems:int ->
  Blink_sim.Program.t * Blink_collectives.Codegen.layout
(** The tree family, over {!all_reduce_trees}; {!plan} may pick the
    per-root family instead. *)

val gather :
  ?chunk_elems:int -> ?stream_reuse:bool -> t -> elems:int ->
  Blink_sim.Program.t * Blink_collectives.Codegen.layout

val all_gather :
  ?chunk_elems:int -> ?stream_reuse:bool -> t -> elems:int ->
  Blink_sim.Program.t * Blink_collectives.Codegen.layout
(** Every rank broadcasts its buffer over its own {!root_trees}. *)

val reduce_scatter :
  ?chunk_elems:int -> ?stream_reuse:bool -> t -> elems:int ->
  Blink_sim.Program.t * Blink_collectives.Codegen.layout
(** Segment [r] of every buffer reduced into rank [r]'s buffer (NCCL
    in-place convention over a [n_ranks]-segment buffer), over rank
    [r]'s {!root_trees}. *)

(** {2 Compiled plans}

    The paper's plan/execute split: {!plan} compiles (or fetches from the
    handle's cache) a {!Plan.t} for a [(collective, elems, chunk)] key;
    repeated collectives at the same size reuse the compiled program
    instead of re-running tree extraction, codegen and MIAD tuning. *)

val plan : ?chunk_elems:int -> t -> Plan.collective -> elems:int -> Plan.t
(** Cached compilation. When [chunk_elems] is omitted the MIAD-tuned
    chunk for the size class is used ({!tuned_chunk}); tuning runs only
    on the first miss for that class. The returned plan is shared: two
    calls with the same key return the same instance.

    All_reduce has two schedule families ({!Plan.family}): reduce +
    broadcast over {!all_reduce_trees}, or reduce-scatter + all-gather
    over every rank's {!root_trees} (concatenated in root order, so
    rank [r] reduces and re-broadcasts segment [r/n .. (r+1)/n]). A miss
    builds the per-root candidate only when both gates hold: its cut
    value beats the trees' bound ({!edge_cut_bound}), and [elems >=
    chunk * n * (trees in {!packing})], so that no per-root region is
    smaller than one chunk. It then replays both once and keeps the
    faster, the trees on a tie. Only the trees are ever tuned: MIAD
    probes {!all_reduce}, so the chunk is the same for both. The
    chosen family is [plan.family]. *)

val prewarm :
  ?pool:Blink_parallel.Pool.t ->
  ?contingencies:[ `None | `All | `Pairs of (int * int) list ] ->
  t ->
  (Plan.collective * int) list ->
  int
(** Batch-populate the plan cache for the given [(collective, elems)]
    keys, returning how many plans were newly compiled (duplicates and
    already-cached keys are skipped). Chunk sizes come from the MIAD
    tuner exactly as in {!plan}.

    [pool] fans the expensive pure stages — tuning probes for uncached
    size classes, then [Plan.build] codegen — across domains; all handle
    mutation (tree memos, chunk cache, plan table, eviction FIFO, miss
    counters) happens in the calling domain. A prewarmed handle is
    therefore bit-identical to one warmed by sequential {!plan} calls,
    with any pool size. After [prewarm], {!plan} calls for these keys are
    cache hits.

    After a warm fault replan ({!degrade_link} or {!fail_link} with the
    default [~replan:`Warm]) the handle's chunk hints are consulted
    exactly as {!plan} consults them: a class whose bottleneck rate did
    not move reuses its previous chunk, one whose rate moved re-probes
    from it ([plan.chunk.reused] / [plan.chunk.retuned]). A warm handle
    on a {e shared} store publishes nothing: its chunks tune into the
    handle's private hints, no plan is compiled (those keys count 0 —
    {!plan} compiles them privately) and [contingencies] are declined,
    so other tenants are only ever served cold-equivalent entries.

    [contingencies] additionally precomputes background "one link down"
    plans: for [`All] every NVLink pair of the live fabric (for
    [`Pairs ps] just those pairs), the complete post-fault state —
    topology packing, tuned chunks, and the compiled plans for [keys] —
    is built through the cold construction path and stored under the
    post-fault {e fingerprint}, so a later {!fail_link} on such a pair
    becomes a store lookup ([plan.contingency.hits]) instead of a live
    replan, and isomorphic tenants sharing the store inherit the same
    entries. Automorphic failures collapse into one fingerprint class
    (a DGX-1V has few distinct single-link-failure classes), each pair
    whose loss would partition the allocation is skipped, and pairs
    already [Down] are ignored. The returned count includes the
    contingency plans. Default [`None]. *)

type prewarm_job
(** An inflight asynchronous prewarm: tuning and codegen running on a
    pool worker, redeemed by {!prewarm_await}. *)

val prewarm_async :
  ?pool:Blink_parallel.Pool.t ->
  t ->
  (Plan.collective * int) list ->
  prewarm_job
(** Overlap planning with execution: start {!prewarm}'s pure pipeline —
    MIAD tuning probes for uncached size classes, then [Plan.build]
    codegen — on a pool worker and return immediately, so the caller can
    keep executing live plans ({!Plan.execute}) while plans for the next
    keys compile in the background. Everything the pipeline reads is
    snapshotted from the handle here, in the calling domain (tree memos
    are forced, fingerprint and store answers captured); every handle
    and store mutation is deferred to {!prewarm_await}, also in the
    calling domain. After awaiting, the handle is in the state
    [prewarm t keys] (without contingencies) would have produced — the
    two share one pipeline, so the warm-handle behaviour is the same:
    chunk hints are consulted, and a warm handle on a shared store
    publishes nothing.

    On a 1-domain pool — in particular any host where
    [Pool.default_domains () = 1] — or when [pool] is omitted, the
    pipeline runs eagerly inside this call and [prewarm_await] merely
    redeems the finished result: same outcome, no overlap.

    While a job is inflight, topology mutations ({!degrade_link},
    {!fail_link}, {!fail_gpu}) raise [Invalid_argument]: the job is
    building against the pre-mutation fabric snapshot. Await it first.
    Contingency prewarming has no async form; use
    [prewarm ~contingencies] after awaiting. *)

val prewarm_await : t -> prewarm_job -> int
(** Block until the job's pipeline finishes, apply its results to the
    handle (chunk cache, chunk hints and plan store insertions under the
    publication rule of {!prewarm}, miss/eviction counters — exactly the
    mutations {!prewarm} performs), and return how many plans were newly
    compiled. Raises [Invalid_argument] if the job was already awaited.
    If the pipeline raised, that exception is re-raised here and the
    handle is left unmutated (the inflight guard is still released). *)

(** {2 Fault tolerance}

    The failure model of the degraded-topology pipeline: report a link or
    GPU fault on a live handle and it updates its fabric view, selectively
    invalidates only the cached plans whose trees route over the affected
    edges (counted as ["plan.cache.invalidations"]), and replans trees on
    the surviving graph (replan wall-clock recorded in the
    ["plan.replan_s"] histogram, labelled by path). The next {!plan} call
    on an affected key misses and compiles against the degraded fabric;
    unaffected keys keep their cached plans.

    Replanning takes the fastest of three paths. A {e contingency} hit —
    the post-fault fingerprint already has a topology in the store,
    prewarmed via [prewarm ~contingencies] or paid for by an isomorphic
    tenant — answers from the store and is bit-identical to a fresh
    handle by construction. Otherwise, the default {e warm} path
    ([~replan:`Warm]) replans incrementally: previous trees that do not
    route over the affected link are kept verbatim, only the displaced
    flow is re-packed over residual capacities, and the ILP re-rounds
    from the surviving solution ({!Treegen.replan}) — rate-equivalent to
    a cold replan and byte-identical whenever no kept tree was displaced,
    but not guaranteed bit-identical in general, so a warm handle on a
    {e shared} store stops publishing derived state (plans compile
    privately). [~replan:`Cold] forces the from-scratch replan, whose
    results stay bit-identical to a fresh handle created with the same
    accumulated faults via [create ?link_faults].

    Faults are rejected with [Invalid_argument] on NVSwitch machines
    (the switch fabric is modeled as a single attach per GPU). *)

val degrade_link :
  ?replan:[ `Warm | `Cold ] -> t -> u:int -> v:int -> factor:float -> unit
(** The duplex NVLink pair between gpus [u] and [v] drops to [factor] of
    nominal bandwidth ([0 < factor <= 1]; re-declaring a pair replaces its
    state, it does not compound). [replan] picks the replanning path
    (default [`Warm]; see the section preamble). Raises
    [Invalid_argument] on a bad factor, an unknown pair, or dead
    endpoints; raises {!Partitioned} if the graph falls apart (factor > 0
    never partitions, but the handle may already be partitioned). *)

val fail_link : ?replan:[ `Warm | `Cold ] -> t -> u:int -> v:int -> unit
(** The duplex NVLink pair between gpus [u] and [v] goes down entirely:
    it disappears from both the planning graph and the timing fabric.
    [replan] picks the replanning path (default [`Warm]). Raises
    {!Partitioned} when the surviving graph no longer spans the
    allocation — the handle is then permanently unusable. *)

val fail_gpu : t -> gpu:int -> unit
(** Drop a GPU from the allocation. The survivors are renumbered to ranks
    [0 .. k-2], so every cached plan is invalidated (rank-space buffers
    and trees) and the replan is always cold — previous trees are
    meaningless under the new numbering. Raises [Invalid_argument] when
    dropping the last GPU or a root pinned by [create ?root]; raises
    {!Partitioned} when the survivors are disconnected. *)

type cache_stats = { hits : int; misses : int }

val plan_cache_stats : t -> cache_stats
(** Lifetime hit/miss counters of this handle's plan cache (fresh handles
    start at zero — the cache is invalidated-by-construction per
    handle/allocation). Served from the telemetry registry (series
    ["plan.cache.hits"] / ["plan.cache.misses"]), so this accessor and
    the JSON exporters always agree; a handle created with
    [~telemetry:Telemetry.disabled] reports zeros. *)

val plan_cache_invalidations : t -> int
(** Lifetime count of cached plans dropped by topology mutations (series
    ["plan.cache.invalidations"]); FIFO evictions are counted separately
    as ["plan.cache.evictions"]. *)

(** {2 Timing} *)

val time :
  ?policy:Blink_sim.Engine.policy -> t -> Blink_sim.Program.t ->
  Blink_sim.Engine.result

val bytes_per_elem : float
(** Element width assumed throughout (fp32 = 4 bytes): the single knob a
    future dtype change turns, shared with the DNN training model. *)

val algbw_gbps :
  ?bytes_per_elem:float -> elems:int -> Blink_sim.Engine.result -> float
(** Algorithm bandwidth: buffer bytes ([bytes_per_elem], default
    {!bytes_per_elem}, per element) divided by makespan, in GB/s — the
    paper's throughput metric. *)

val heuristic_chunk : elems:int -> int
(** Size-proportional chunk policy ([elems/16] clamped to [256 ..
    262144]): the uniform default used by benchmarks and as the MIAD
    tuner's starting point. *)

val tune_chunk : ?elems:int -> t -> Chunking.result
(** Run the MIAD chunk-size autotuner ({!Chunking.tune}) against simulated
    AllReduce iterations (default 64 Mi elements = 256 MB). *)

val tuned_chunk : t -> elems:int -> int
(** MIAD-chosen chunk size for AllReduce buffers of roughly this size,
    cached per power-of-two size class on the handle — the library's
    analogue of Blink tuning during a job's first training iterations. *)

(** {2 Helpers reused by benchmarks and the multi-server layer} *)

val trees_of_packing :
  Blink_graph.Digraph.t -> Treegen.packing -> Blink_collectives.Tree.weighted list
(** Convert packed digraph-edge trees into rank trees with normalized
    shares. *)

val one_hop_trees : n_ranks:int -> Blink_collectives.Tree.weighted list
(** The DGX-2 construction: [n] equal-share trees, tree [i] rooted at rank
    [i] with every other rank a direct child. *)
