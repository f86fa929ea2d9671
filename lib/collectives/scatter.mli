(** ReduceScatter over spanning trees.

    The buffer is cut into [n_ranks] equal segments; segment [r] is
    reduced towards rank [r] over tree [r mod n_trees] re-rooted there
    ({!Tree.reroot}; sound because every link is duplex) and emitted by
    {!Codegen.emit_tree_reduce}. Afterwards rank
    [r]'s data buffer holds the global sum of segment [r]; other regions
    hold in-flight partials (reduction is in place, like the other
    many-to-one primitives). Tree shares are ignored — segment sizes are
    fixed by the primitive's semantics. *)

val reduce_scatter :
  Codegen.spec ->
  elems:int ->
  trees:Tree.weighted list ->
  Blink_sim.Program.t * Codegen.layout
