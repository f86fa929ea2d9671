(** Rank-level trees: the shape consumed by the collective generators.
    Produced from a {!Treegen} packing (core library), from the one-hop
    DGX-2 construction, or from baseline constructions (double binary
    trees, ring-as-path).

    A tree may cover a {e subset} of the fabric's ranks (one server's
    slice of a multi-server job, paper section 3.5). Its arrays stay
    sized to the fabric's rank count; a rank outside the tree has parent
    and depth [-1] and does not appear in [order]. Children are in
    ascending rank order, so every constructor orients the same edges
    the same way. *)

type t = private {
  root : int;
  parent : int array;  (** parent rank per rank; [-1] at the root and off the tree *)
  children : int list array;  (** children per rank, ascending *)
  depth : int array;  (** hop distance from the root; [-1] off the tree *)
  order : int list;  (** the tree's ranks in BFS order (root first) *)
}

val of_edges : n_ranks:int -> root:int -> (int * int) list -> t
(** [(parent, child)] pairs; must form a spanning tree of the ranks rooted
    at [root]. Raises [Invalid_argument] otherwise. *)

val of_parents : root:int -> int array -> t
(** Parent array form ([-1] at root); must span every rank. Raises
    [Invalid_argument] otherwise. *)

val of_undirected : n_ranks:int -> root:int -> (int * int) list -> t
(** Undirected edges [(u, v)], oriented away from [root] by BFS. The
    edges may cover a subset of the [n_ranks] ranks; [[]] gives the
    single-rank tree [{root}]. Raises [Invalid_argument] if the edges do
    not form a tree containing [root]. *)

val reroot : t -> root:int -> t
(** The same undirected tree, rooted at another member. Raises
    [Invalid_argument] if [root] is not a member. *)

val members : t -> int list
(** The tree's ranks, ascending. *)

val spans : t -> bool
(** Every rank of the fabric is a member. *)

val path_to_root : t -> int -> int list
(** Ranks from the given member up to (and including) the root. *)

val max_depth : t -> int

val n_ranks : t -> int
(** The fabric's rank count the arrays are sized to, not the member
    count. *)

type weighted = { tree : t; share : float }
(** A tree plus the fraction of the collective's data it carries. *)

val normalize_shares : (t * float) list -> weighted list
(** Scale raw weights (e.g. GB/s rates) into shares summing to 1; drops
    non-positive weights. Raises [Invalid_argument] when all weights are
    non-positive. *)

val pp : Format.formatter -> t -> unit
