(** Minimum spanning trees over undirected items (Kruskal).

    An item is an undirected edge [(u, v)] between vertices
    [0 .. n-1]; parallel items are allowed. This is TreeGen's spanning
    oracle in the undirected (duplex-link) capacity model, where the MWU
    packer asks for the cheapest spanning tree under its current item
    prices thousands of times per plan, so a solver keeps its sorted
    order and union-find between calls and allocates only its result. *)

type t
(** A solver for one item set. Not safe to share between domains. *)

val create : n:int -> src:int array -> dst:int array -> t
(** [create ~n ~src ~dst] is a solver over the items [(src.(i), dst.(i))].
    Raises [Invalid_argument] on arrays of different lengths or an
    endpoint out of range. *)

val min_tree : t -> float array -> int list option
(** [min_tree t price] scans the items in increasing [(price, id)] order
    ([Float.compare] on prices, ties by id) and keeps each one that joins
    two components. Returns the kept item ids in that order, or [None]
    when the items do not span all [n] vertices ([Some []] for [n = 1]).
    Raises [Invalid_argument] unless [price] has one entry per item. *)
