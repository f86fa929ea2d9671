(** Planner backends (paper section 3): two ways to pack spanning trees
    for a fabric, a root and a {!Treegen.model} capacity model. The rest
    of the stack (codegen, chunking, the DES, the plan store) consumes
    {!Treegen.packing}s and does not care which backend built them.

    - [Treegen] — the paper's planner ({!Treegen.plan}); the default,
      and the only backend with an incremental warm-replan path.
    - [Lp_flow] — exact column-generation LP packing in the style of the
      multi-commodity-flow formulation (arXiv 2305.13479): the final
      master of {!Treegen.column_generation}, whose dual-priced rounds
      stop only when no tree can raise the fractional optimum, rounded
      with {!Treegen.minimize}.

    The backend is part of a plan's identity: {!Blink.create} threads
    its {!name} into {!Blink_store.Fingerprint.make}, so tenants on
    different backends never share store entries. *)

type backend = Treegen | Lp_flow

val name : backend -> string
(** Stable identifier (["treegen"], ["lp-flow"]): a fingerprint
    component and the tournament's row label. *)

val all : backend list
(** Both backends, [Treegen] first. *)

val default : backend
(** [Treegen] — keeps every existing entry point byte-compatible. *)

val plan :
  backend ->
  ?epsilon:float ->
  ?threshold:float ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  Blink_graph.Digraph.t ->
  root:int ->
  undirected:bool ->
  Treegen.packing
(** Pack spanning structures from [root] under the directed or duplex
    capacity model. The packing satisfies {!Treegen.feasible}; it is
    empty (rate 0) when the graph does not span from [root]. [epsilon]
    applies to [Treegen] only; [threshold] is the ILP rounding tolerance
    of both. [telemetry] gets all of [Treegen]'s metrics, and
    [Lp_flow]'s ILP step ({!Treegen.minimize}'s metrics). *)
