(** TreeGen: maximal fractional packing of spanning trees
    (paper sections 3.1-3.3).

    One multiplicative-weight-update (Garg-Konemann) core and one ILP
    minimization, run over one of two capacity models ({!model}), picked
    by [~undirected]:

    - {b Directed} ([~undirected:false]) — arborescences from a root
      under per-directed-edge capacities: optimal for one-to-many
      primitives (Broadcast, Gather). The optimum equals the min over
      non-root vertices of the root-to-vertex max-flow (Edmonds'
      theorem), reported in {!field-optimal} and used to validate the
      approximation.
    - {b Undirected} ([~undirected:true]) — spanning trees under
      per-{e link} capacities, where a link is a full-duplex channel
      consumed in both directions at once (reduce up, broadcast down):
      the right object for AllReduce, matching the 2(N-1)/N message lower
      bound the way rings do. Trees are reported oriented away from the
      root.

    The ILP step ({!minimize}) restricts weights to integer multiples of
    the capacity unit and re-allows fractional weights one variable at a
    time until within [threshold] of the candidate-set LP optimum. On the
    full 8-GPU DGX-1V the directed planner returns 6 unit trees (138 GB/s)
    and the undirected planner 3 unit trees — the paper's numbers. *)

type tree = {
  edges : int list;  (** Digraph edge ids forming the arborescence *)
  weight : float;  (** rate carried by this tree, in capacity units *)
}

type packing = {
  root : int;
  trees : tree list;
  rate : float;  (** [sum weight]: achieved packing rate *)
  optimal : float;  (** certified upper/achievable bound (see {!pack}) *)
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
    quality: the returned rate is at least [(1 - 2 * epsilon) * optimal]
    and always capacity-feasible. Trees with identical edge sets are
    merged. Returns an empty packing (rate 0) when some vertex is
    unreachable from the root. [optimal] is Edmonds' bound directed, and
    the LP optimum over the candidate trees (a certified achievable rate)
    undirected. Undirected, the graph must be symmetric (every physical
    link present as two opposite directed edges of equal capacity, as
    {!Blink_topology.Server.nvlink_digraph} builds); raises
    [Invalid_argument] otherwise.

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
    search byte for byte. [telemetry] records the tree-count reduction
    (["treegen.ilp.trees_removed"]) and final rate/tree gauges. *)

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

(** {2 Capacity model}

    The model every function above runs over, exposed so the other
    planner backend ({!Planner}) reuses TreeGen's item accounting and
    spanning-structure oracles. An {e item} is the unit of capacity a
    packing consumes: a directed edge id in the directed model, a
    duplex-link id in the undirected one. Trees are always exchanged as
    directed edge-id lists oriented away from the root. *)

type model
(** A graph plus its capacity model (directed edges or duplex links). *)

val model : Blink_graph.Digraph.t -> undirected:bool -> model
(** Build the model. Undirected, the graph must be symmetric (raises
    [Invalid_argument] otherwise, as {!pack}). *)

val model_caps : model -> float array
(** Per-item capacities (a fresh array, indexed by item id). *)

val model_items : model -> int list -> int list
(** Map a tree's directed edge ids to the item ids it consumes (the
    identity in the directed model). *)

val model_tree : model -> root:int -> price:float array -> int list option
(** Minimum-total-price spanning structure under per-item [price]:
    Chu-Liu/Edmonds arborescence in the directed model, Kruskal over
    links (oriented away from [root]) in the undirected one. [None] when
    the graph does not span from [root]. *)

val integral_trees : model -> root:int -> int list list
(** The greedy/Edmonds integral extraction {!minimize} seeds its ILP
    with, at the minimum-capacity unit: undirected, a maximal unit-tree
    packing; directed, the {e exact} optimal integral arborescence
    packing when every capacity is a (near-)integer multiple of the
    unit, and [[]] otherwise. *)

val candidate_lp :
  caps:float array -> candidates:int list array -> float * float array
(** Maximize total weight over the candidate item-lists subject to
    per-item [caps]: returns the LP optimum and one optimal weight per
    candidate. The exact re-optimization the undirected {!pack} and
    {!Planner}'s lp-flow backend use to certify a candidate set. *)
