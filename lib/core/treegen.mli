(** TreeGen: maximal fractional packing of spanning trees
    (paper sections 3.1-3.3).

    One multiplicative-weight-update (Garg-Konemann) core and one ILP
    minimization, run over one of two capacity models ({!model}), picked
    by [~undirected]:

    - {b Directed} ([~undirected:false]) — arborescences from a root
      under per-directed-edge capacities: optimal for one-to-many
      primitives (Broadcast, Gather). The optimum equals the min over
      non-root vertices of the root-to-vertex max-flow (Edmonds'
      theorem).
    - {b Undirected} ([~undirected:true]) — spanning trees under
      per-{e link} capacities, where a link is a full-duplex channel
      consumed in both directions at once (reduce up, broadcast down):
      the right object for AllReduce, matching the 2(N-1)/N message lower
      bound the way rings do. Trees are reported oriented away from the
      root.

    The ILP step ({!minimize}) restricts weights to integer multiples of
    the capacity unit and re-allows fractional weights one variable at a
    time until within [threshold] of the candidate-set LP optimum; it
    searches the number of relaxed variables by bisection rather than
    trying each in turn, with the same result. On the
    full 8-GPU DGX-1V the directed planner returns 6 unit trees (129 GB/s)
    and the undirected planner 3 unit trees — the paper's numbers.

    How good a packing could be is a separate question, answered only
    where it is read: {!optimum} certifies the fractional optimum, and
    {!column_generation} is the exact routine behind it and behind
    {!Planner}'s lp-flow backend. No planning path computes it. *)

type tree = {
  edges : int list;  (** Digraph edge ids forming the arborescence *)
  weight : float;  (** rate carried by this tree, in capacity units *)
}

type packing = {
  root : int;
  trees : tree list;
  rate : float;  (** [sum weight]: achieved packing rate *)
  undirected : bool;  (** which capacity model the packing satisfies *)
}

val pack :
  ?epsilon:float ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  Blink_graph.Digraph.t ->
  root:int ->
  undirected:bool ->
  packing
(** MWU packing under the [undirected] capacity model. [epsilon]
    (default [0.1]) trades tree count and run time for approximation
    quality: the returned rate is at least [(1 - 2 * epsilon)] times
    {!optimum} and always capacity-feasible. Trees with identical edge
    sets are merged. Returns an empty packing (rate 0) when some vertex
    is unreachable from the root. Undirected, the graph must be
    symmetric (every physical link present as two opposite directed
    edges of equal capacity, as {!Blink_topology.Server.nvlink_digraph}
    builds); raises [Invalid_argument] otherwise.

    [telemetry] counts MWU rounds (["treegen.mwu.rounds"], labelled by
    capacity model) and, when tracing, records a ["treegen.pack"] span. *)

val minimize :
  ?threshold:float ->
  ?warm_start:tree list ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  Blink_graph.Digraph.t ->
  packing ->
  packing
(** ILP tree minimization (default [threshold] = [0.05], the paper's 5%).
    Honors the packing's capacity model. The result never uses more trees
    than the input and never loses more than [threshold] of the
    candidate-set optimum. [warm_start] trees (matched to candidates by
    edge set — typically the surviving trees of a previous integral
    solution) are forced into the ILP support and seed the
    branch-and-bound incumbent, so the search starts from the previous
    solution instead of from nothing; omitting it reproduces the cold
    search byte for byte.

    The search for the relaxation count: [attempt n] makes every support
    column integral except the [n] most fractional, and runs a full
    branch-and-bound; it passes when its rate reaches the target. The
    result is the solution of the smallest passing [n], found by
    {!first_passing} rather than by trying [n = 0, 1, 2, ...] in turn:
    - {b integrality skip}: every objective weight is 1, so the
      all-integer attempt is worth a whole number of capacity units, at
      most the LP's. When [floor] of the LP optimum (in units, with a
      small slack for tolerances) misses the target, [attempt 0] cannot
      pass and does not run;
    - {b bisection} over [(0, ks]], [ks] the support size: relaxing more
      columns only enlarges the feasible set, so passing is monotone in
      [n], and [n = ks] is the LP itself;
    - {b fallback}: monotonicity needs every branch-and-bound to finish.
      If any attempt stops at its node limit, the linear scan decides,
      reusing the attempts already run, so the result is the scan's.

    [telemetry] records the tree-count reduction
    (["treegen.ilp.trees_removed"]), the branch-and-bound attempts run
    (["treegen.ilp.attempts"]) and those cut short by the node limit
    (["treegen.ilp.node_limit_hits"]), all labelled by capacity model,
    and final rate/tree gauges. *)

val first_passing : ks:int -> (int -> 'a option * bool) -> (int * 'a) option
(** [first_passing ~ks attempt] is the smallest [n] in [[0, ks]] whose
    [attempt n] passes, with what it returned: [attempt n] returns
    [(Some x, _)] when [n] passes, [(None, _)] when it fails, and, as its
    second component, whether it ran to completion. It gives the linear
    scan's answer ([n = 0, 1, ..., ks], first pass wins) whenever passing
    is monotone in [n] (once [n] passes, every larger count does), while
    calling [attempt] at most [ceil (log2 (ks + 1)) + 2] times: [n = 0]
    first, then a bisection of [(0, ks]], in which [ks] counts as passing
    until it runs. If any call reports that it did not complete, the
    search falls back to that scan. [attempt] runs at most once per [n];
    later needs are served from a memo. [None] when no count passes. *)

val plan :
  ?epsilon:float ->
  ?threshold:float ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  Blink_graph.Digraph.t ->
  root:int ->
  undirected:bool ->
  packing
(** [pack] followed by [minimize]. *)

type replan_stats = {
  kept_trees : int;  (** previous trees reused verbatim *)
  displaced_trees : int;  (** previous trees routing over the affected link *)
  cold_fallback : bool;
      (** the incremental path did not apply (root moved, empty or fully
          displaced previous packing) and a cold plan ran instead *)
}

val replan :
  ?epsilon:float ->
  ?threshold:float ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  prev:packing ->
  prev_graph:Blink_graph.Digraph.t ->
  Blink_graph.Digraph.t ->
  root:int ->
  packing * replan_stats
(** Incremental replan of [prev] (planned on [prev_graph]) onto the
    post-fault graph [g], for the same [root] and capacity model.

    Previous trees are remapped edge-by-edge onto [g] by
    [(src, dst, occurrence)] — both graphs must come from the same
    deterministic fabric walk, as {!Blink_topology.Server.nvlink_digraph}
    guarantees — and a tree is {e kept} verbatim iff every edge survives
    with unchanged capacity. Only the displaced flow is re-packed: MWU
    runs over the residual capacities the kept trees leave free, and
    {!minimize} re-rounds with the kept trees as ILP warm start. When no
    tree was displaced the MWU/ILP stages are skipped entirely and the
    previous trees come back unchanged; when {e every} tree was displaced
    (or the root moved) the call degenerates to a cold {!plan} with
    identical inputs and results
    ([cold_fallback] reports this). The returned packing is always
    capacity-feasible on [g]. *)

val best_root : Blink_graph.Digraph.t -> int
(** Root with the highest optimal broadcast rate (ties: lowest id). *)

val feasible : Blink_graph.Digraph.t -> packing -> bool
(** Every tree is a spanning arborescence from the packing root, and
    capacities hold under the packing's model: per directed edge, or — for
    undirected packings — per duplex link counting each tree once on each
    link it crosses in either orientation (tolerance 1e-6). *)

val pp : Format.formatter -> packing -> unit

(** {2 Certified optimum} *)

val column_generation :
  Blink_graph.Digraph.t -> root:int -> undirected:bool -> packing * float
(** Exact column generation (CG) for the fractional packing LP of the
    [undirected] capacity model. The restricted master LP runs over the
    trees found so far. Each round prices the capacity items (directed
    edges, or duplex links) by the master's optimal duals
    ({!Blink_lp.Simplex.maximize}) and asks the model's own oracle for the
    cheapest tree: Chu-Liu/Edmonds directed, Kruskal undirected. A tree
    pricing below 1 joins the master; the loop stops when none does
    (the master is then optimal over every tree), when the oracle
    returns a column already in the master, or at a fixed round cap that
    only degenerate inputs reach.

    Returns the final master as a fractional packing (every generated
    column with its LP weight, [0.] for columns the optimal basis leaves
    out; [rate] the master objective) and the least Farley bound seen:
    after any round, [objective / min(1, p)], with [p] the cheapest
    tree's price, bounds the optimum from above, so a capped run still
    returns a sound bound. At convergence the two agree. Empty packing
    and bound [0.] when the graph does not span from [root]. *)

val optimum : Blink_graph.Digraph.t -> root:int -> undirected:bool -> float
(** The certified optimum rate of any packing of [g] from [root] under
    the capacity model: directed, Edmonds' bound
    ({!Blink_graph.Maxflow.broadcast_rate}); undirected, the converged
    {!column_generation} bound. Every {!plan}, {!replan} and {!Planner}
    rate is at most this. [0.] when the graph does not span from
    [root]. On the full DGX-1V it is 129 GB/s directed and 73.714 GB/s
    undirected (24/7 links' worth). *)
