(** Dataflow replay of a {!Program} over real buffers.

    The timing engine tells us {e when} a schedule finishes; this module
    tells us {e what} it computes. Both consume the same program, so a
    schedule that passes the semantic tests is exactly the one being timed.

    Execution follows a topological order consistent with dependencies and
    stream order. Collectives generated by CodeGen synchronize every
    read-after-write and write-after-read through op dependencies, so any
    valid topological order yields the same result; tests check this by
    comparing against closed-form expected outputs. Compilation exploits
    that freedom by {e chain-following}: after emitting an op it emits
    the op's stream successor next whenever its dependencies allow,
    laying each stream's pipelined chunk run back-to-back so the batching
    pass below collapses it into a handful of wide kernel calls.

    Storage is one contiguous Bigarray float32 slab per node with an
    offset table per buffer — the element width the library models
    everywhere ([Blink.bytes_per_elem] = 4). The replay program is
    compiled once per (memory, program) pair into flat kernels, each one
    copy or one in-place reduce; {!reset} re-zeroes the slabs in
    place so a pooled memory replays repeatedly without reallocation.
    Values exactly representable in float32 round-trip unchanged through
    {!write}/{!read}; reductions accumulate in float32 as a real fp32
    collective would. {!Ref} keeps the seed float64 [float array]
    implementation as the equivalence-test reference. *)

type memory
(** Mutable store: per-node float32 slabs plus the compiled replay
    kernels (cached after the first {!run}). *)

val memory_of_program : Program.t -> memory
(** Allocate zero-initialized buffers for every declaration in the
    program. *)

val reset : memory -> unit
(** Zero every buffer in place, keeping storage and compiled kernels.
    The unconditional (and for big memories, expensive) form of what
    {!begin_replay}/{!commit_replay} do selectively. *)

val begin_replay : memory -> Program.t -> unit
(** Start a pooled replay over possibly-stale memory: marks every buffer
    whose initial contents could influence the program's result or a
    later {!read}. The analysis is segment-precise — it tracks the exact
    byte ranges each buffer has read before the kernels fully write them
    ({e stale} ranges) and the ranges never written at all, rather than
    tainting whole buffers. Compiles the kernel table if this program's
    isn't cached yet (and may therefore raise like {!run}). Subsequent
    {!write}s unmark their buffer — a full-buffer write supersedes
    zeroing — and {!commit_replay} zeroes the rest, making
    [begin_replay; loads; commit_replay; run] produce exactly the state a
    fresh zeroed memory would, while skipping the zero-fill for every
    input buffer the caller reloads anyway. *)

val commit_replay : memory -> unit
(** Zero the segments still marked by {!begin_replay}; must run before
    {!run} when replaying over a used memory. Segments the kernels
    rewrite every run are re-zeroed on every commit; segments no kernel
    ever writes are zeroed only after a user {!write} has touched their
    buffer since the last commit — untouched, they are still zero from
    creation or the previous commit, so steady-state timing replays skip
    the fill entirely. *)

val write : memory -> node:int -> buf:int -> float array -> unit
(** Replace a buffer's contents (values converted to float32). Raises
    [Invalid_argument] on unknown buffer or length mismatch. *)

val read : memory -> node:int -> buf:int -> float array
(** A fresh copy of the buffer's current contents, widened exactly to
    float64 (bit-identical to reading each element through the Bigarray
    accessor, NaN payloads included). Costs one C widening pass plus one
    unboxed float-array allocation — no per-element boxing; arrays past
    the minor-heap size limit go straight to the major heap. *)

val read_slice : memory -> node:int -> buf:int -> off:int -> len:int -> float array
(** A fresh copy of [len] elements starting at [off] — extraction without
    materializing the whole buffer. Same cost as {!read} at [len]
    elements: one C widening pass plus one unboxed float-array
    allocation. Raises [Invalid_argument] when the range falls outside
    the buffer. *)

val run : Program.t -> memory -> unit
(** Apply every op's action in topological order. Raises
    [Invalid_argument] if an action references memory out of bounds.
    The first run against a given program compiles the kernel table;
    later runs replay it directly.

    Compilation batches the kernel table: back-to-back kernels of one
    kind over adjacent slab ranges (the shape pipelined chunk chains
    produce) collapse into single wide calls. Reduces always merge;
    copies merge only when the combined ranges are disjoint, so the
    batched form is element-identical to the sequential one. *)

val kernel_stats : memory -> Program.t -> int * int * int
(** [(raw, compiled, 0)] for this program's kernel table: kernels
    before batching (one per op action) and kernel calls actually
    dispatched per replay. The third component is always [0]; it is kept
    so callers that destructure the triple still compile. Compiles the
    table if needed (and may then raise like {!run}). *)

type slab = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The storage type of every buffer: a float32 view into its node's
    contiguous slab. *)

(** The C kernel entry points, exposed for the kernel-throughput
    microbench ([bench/main.exe -- kernels]); offsets and lengths are in
    elements and must be in bounds (unchecked). *)
module Kernels : sig
  val copy : slab -> int -> slab -> int -> int -> unit
  (** [copy dst doff src soff len]: memcpy-wide when disjoint, memmove
      semantics under overlap. *)

  val reduce : slab -> int -> slab -> int -> int -> unit
  (** [reduce dst doff src soff len]: dst += src, unrolled wide when
      disjoint, strict forward order under overlap. *)

  val of_f64 : slab -> int -> float array -> int -> unit
  (** [of_f64 dst doff src len]: narrowing float64 -> float32 store. *)

  val to_f64 : float array -> slab -> int -> int -> unit
  (** [to_f64 dst src soff len]: exact widening float32 -> float64 load
      into [dst.(0 .. len-1)] — the conversion behind {!read}. *)
end

(** The seed implementation — float64 [float array] per buffer behind a
    [(node, buf)] hash table — retained as the reference the Bigarray
    path is tested against. *)
module Ref : sig
  type memory

  val memory_of_program : Program.t -> memory
  val write : memory -> node:int -> buf:int -> float array -> unit
  val read : memory -> node:int -> buf:int -> float array
  val run : Program.t -> memory -> unit
end
