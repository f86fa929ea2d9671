(** Arena heaps: the binary min-heaps behind the reference event loop
    ({!Engine_ref}): its event queue and per-resource waiting sets.

    Keys compare ascending; insertion order breaks ties (earlier
    insertions pop first), which keeps the simulator deterministic. Keys
    and values live in parallel unboxed arrays, [clear] resets them in
    place, and the staged add/pop protocol passes float keys through a
    one-slot buffer so steady-state event processing allocates nothing
    (uniform OCaml calls would box every float argument and result). *)

module Float_int : sig
  type t
  (** Min-heap of [float] keys carrying an [int] value. *)

  val create : ?capacity:int -> unit -> t
  val clear : t -> unit
  (** Empty the heap in place; storage is retained for reuse. *)

  val is_empty : t -> bool
  val length : t -> int

  val staged : t -> float array
  (** The heap's one-slot key staging buffer. Write the key into
      [(staged t).(0)] before {!add_staged}; {!pop_staged} leaves the
      popped key there. The array store/load is an unboxed float
      primitive, so neither direction allocates. *)

  val add_staged : t -> int -> unit
  (** Insert the value with key [(staged t).(0)]. Allocates only when the
      backing arrays grow. *)

  val pop_staged : t -> int
  (** Pop the minimum: returns its value and writes its key to
      [(staged t).(0)]. Returns [min_int] on an empty heap. *)

  val add : t -> float -> int -> unit
  (** Boxing convenience wrapper over {!add_staged}. *)

  val pop : t -> (float * int) option
  (** Boxing convenience wrapper over {!pop_staged}. *)
end

module Float_int_int : sig
  type t
  (** Min-heap over lexicographic [(float, int, int)] keys; the last key
      component doubles as the stored value (the engine's waiting sets
      key by [(time, stream, op id)] and pop the op id). *)

  val create : ?capacity:int -> unit -> t
  val clear : t -> unit
  val is_empty : t -> bool
  val length : t -> int

  val staged : t -> float array
  (** One-slot staging buffer for the float key component (see
      {!Float_int.staged}). *)

  val add_staged : t -> int -> int -> unit
  (** [add_staged t k2 k3] inserts key [((staged t).(0), k2, k3)]. *)

  val pop_staged : t -> int
  (** Pop the minimum: returns its [k3] component and writes its float
      component to [(staged t).(0)]. Returns [min_int] on empty. *)

  val add : t -> float -> int -> int -> unit
  val pop : t -> (float * int * int) option
end
