(** Tree-based collective generators (Blink CodeGen, paper section 4).

    Every generator splits the user buffer across the given weighted trees
    (by share), splits each tree's slice into chunks, and pipelines chunks
    hop by hop with one stream per (link, pipeline position) — reused
    across trees when [stream_reuse] is set, which is the paper's fair
    link-sharing technique. All generators return the program plus the
    buffer layout needed to drive {!Blink_sim.Semantics}.

    Conventions: every rank owns a data buffer of [elems] elements
    ([layout.data]). Gather-style collectives add an output buffer of
    [n_ranks * elems] elements ([layout.output]); segment [r] of an output
    buffer holds rank [r]'s contribution. *)

type spec = {
  fabric : Blink_topology.Fabric.t;
  cls : Blink_topology.Fabric.link_class;
  chunk_elems : int;
  stream_reuse : bool;
  elem_bytes : float;
  telemetry : Blink_telemetry.Telemetry.t;
      (** instrumentation sink for every generator run against this spec *)
}

val spec :
  ?cls:Blink_topology.Fabric.link_class ->
  ?chunk_elems:int ->
  ?stream_reuse:bool ->
  ?elem_bytes:float ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  Blink_topology.Fabric.t ->
  spec
(** Defaults: NVLink class, 1 MiB chunks (262144 fp32 elements), stream
    reuse on, 4-byte elements, telemetry disabled. *)

type layout = {
  data : int array;  (** rank -> data buffer id *)
  output : int array option;  (** rank -> gather output buffer id *)
}

val broadcast :
  spec -> root:int -> elems:int -> trees:Tree.weighted list ->
  Blink_sim.Program.t * layout
(** Root's data buffer reaches every rank's data buffer. All trees must be
    rooted at [root]. *)

val reduce :
  spec -> root:int -> elems:int -> trees:Tree.weighted list ->
  Blink_sim.Program.t * layout
(** Element-wise sum of all data buffers lands in [root]'s data buffer
    (non-root buffers hold partial sums afterwards — reduction is
    in-place, as in the paper's reduce+forward). *)

val all_reduce :
  spec -> elems:int -> trees:Tree.weighted list ->
  Blink_sim.Program.t * layout
(** Reduce towards each tree's root on one link direction, broadcast back
    on the other (paper section 3.3). Trees may have distinct roots (the
    DGX-2 one-hop construction relies on this). Every rank's data buffer
    ends up holding the full sum. *)

val gather :
  spec -> root:int -> elems:int -> trees:Tree.weighted list ->
  Blink_sim.Program.t * layout
(** Every rank's data buffer lands in segment [r] of [root]'s output
    buffer. *)

val all_gather :
  spec -> elems:int -> trees:Tree.weighted list -> Blink_sim.Program.t * layout
(** Every rank's data buffer lands in segment [r] of every rank's output
    buffer. [trees] is a per-root packing: every rank roots at least one
    tree, and rank [r] broadcasts its buffer over the trees rooted at
    [r], split by their shares (ForestColl's schedule, arXiv
    2402.06787). Raises [Invalid_argument] if some rank roots no tree. *)

val reduce_scatter :
  spec -> elems:int -> trees:Tree.weighted list -> Blink_sim.Program.t * layout
(** The buffer is cut into [n_ranks] equal segments; segment [r] of
    every data buffer is reduced into rank [r]'s data buffer over the
    trees of the per-root packing [trees] rooted at [r], split by their
    shares. Other regions hold in-flight partials afterwards (reduction
    is in place, like {!reduce}). Raises [Invalid_argument] if some rank
    roots no tree. *)

val run :
  ?policy:Blink_sim.Engine.policy ->
  spec -> Blink_sim.Program.t -> Blink_sim.Engine.result
(** Time a generated program on the spec's fabric. *)

val check_trees : spec -> root:int option -> trees:Tree.weighted list -> unit
(** Validate tree shapes against the fabric (raises [Invalid_argument]):
    rank counts match, every tree spans the fabric, shares are positive,
    and when [root] is given every tree is rooted there. *)

(** {2 Low-level phase emitters}

    For composing programs that mix link classes or phases (hybrid
    PCIe+NVLink transfers, the three-phase multi-server protocol, the
    hierarchical baseline). All emit into a caller-owned {!Emit.t}. They
    are the only tree emitters, and they accept a tree over a subset of
    the ranks: only its members send or receive. *)

val regions :
  elems:int -> Tree.weighted list -> (Tree.weighted * int * int) list
(** Contiguous [(tree, offset, length)] partition of [0, elems) by tree
    share (cumulative rounding; lengths sum to [elems]). *)

val split_chunks : chunk:int -> off:int -> len:int -> (int * int) list
(** [(offset, length)] chunks covering [off, off+len). *)

val declare_data : Emit.t -> elems:int -> int array
(** One data buffer of [elems] elements per rank; returns buffer ids. *)

val emit_tree_broadcast :
  spec ->
  Emit.t ->
  tree_idx:int ->
  tree:Tree.t ->
  chunks:(int * int) list ->
  source:(int -> Blink_sim.Program.mem_ref * int list) ->
  dst_buf:(int -> int) ->
  (int * int, int) Hashtbl.t
(** Pipeline the chunks down the tree. [source ci] supplies the root-side
    memory and dependencies for chunk [ci]; [dst_buf r] names the buffer
    written on rank [r] (at the chunk's own offsets). Returns arrival op
    ids keyed by (rank, chunk index). *)

val emit_tree_reduce :
  spec ->
  Emit.t ->
  tree_idx:int ->
  tree:Tree.t ->
  chunks:(int * int) list ->
  data:int array ->
  int list array
(** In-place reduction of each chunk towards the tree root over [data]
    buffers (indexed by rank). Returns, per chunk index, the ops
    completing the root's sum. *)
