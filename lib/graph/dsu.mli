(** Disjoint-set union (union-find) with path compression and union by rank. *)

type t

val create : int -> t
(** [create n] is a forest of [n] singleton sets [0 .. n-1]. *)

val reset : t -> unit
(** Back to singleton sets, in place. *)

val find : t -> int -> int
(** Canonical representative of the set containing the element. *)

val union : t -> int -> int -> bool
(** Merge the two sets; [true] iff they were previously distinct. *)

val same : t -> int -> int -> bool
val n_sets : t -> int
