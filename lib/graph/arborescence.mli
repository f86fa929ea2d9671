(** Minimum-cost spanning arborescences (Chu-Liu/Edmonds).

    An out-arborescence rooted at [r] is a set of edges giving every vertex
    except [r] exactly one incoming edge, with every vertex reachable from
    [r]. This is the object Blink packs: each packed tree is one arborescence
    and the MWU packer repeatedly asks for the minimum-cost one under its
    current edge prices. *)

val min_arborescence :
  Digraph.t -> root:int -> cost:(Digraph.edge -> float) -> int list option
(** [min_arborescence g ~root ~cost] returns the edge ids of a minimum-cost
    spanning arborescence rooted at [root], or [None] when some vertex is
    unreachable from [root]. Costs may be any finite floats. On a 1-vertex
    graph the result is [Some []]. Raises [Invalid_argument] when [root]
    is out of range.

    {b Tie-break contract.} The result is a pure function of the costs,
    fixed down to the order of the list: the edges are considered in
    decreasing id order, and among in-edges of equal (reduced) cost into
    a vertex the first in that order — the highest id — is chosen; each
    contraction keeps the surviving edges in the same order. The cycle
    contracted is the first one met walking cheapest in-edges back from
    vertices [0, 1, ...]; the result lists each contracted cycle's edges
    before those of the deeper levels, and the final acyclic level's
    in-edges by decreasing vertex. Callers that sum prices over the
    result (Garg-Konemann) see the same float sums from release to
    release. *)

type workspace
(** Scratch space for repeated solves on one graph: {!solve} allocates
    nothing but its result list. A workspace snapshots the graph's edges
    when it is made and is not safe to share between domains. *)

val workspace : Digraph.t -> workspace

val solve : workspace -> root:int -> float array -> int list option
(** [solve w ~root costs] is [min_arborescence g ~root ~cost] for the
    graph [w] was made from, with edge [id] costing [costs.(id)]: the same
    edges in the same order. Raises [Invalid_argument] when [costs] does
    not have one entry per edge or [root] is out of range. *)

val is_arborescence : Digraph.t -> root:int -> int list -> bool
(** Checks that the given edge ids form a spanning arborescence of [g]
    rooted at [root]. *)

val tree_cost : Digraph.t -> cost:(Digraph.edge -> float) -> int list -> float
(** Sum of [cost] over the given edge ids. *)

val depth : Digraph.t -> root:int -> int list -> int
(** Longest root-to-leaf hop count of an arborescence ([0] for a single
    vertex). Raises [Invalid_argument] if the edges do not form an
    arborescence rooted at [root]. *)
