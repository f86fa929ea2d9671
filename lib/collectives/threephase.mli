(** Three-phase cross-server AllReduce (paper section 3.5, figure 10).

    Data is cut into partitions, each with a distinct server-local root:

    + {b local reduce} — every server reduces each partition's region over
      one of its local spanning trees, towards that partition's local root;
    + {b cross-server reduce-broadcast} — per partition, a hub server's
      root collects the per-server partials over the network (one-hop) and
      sends back the sum;
    + {b local broadcast} — each local root broadcasts the result down the
      same local tree.

    The local trees are supplied by the caller as {!Tree.t}s over the
    fabric's ranks that cover only the server's own ranks: Blink packs
    spanning trees (core library), the Horovod/NCCL-style baseline uses
    ring path trees — both flavours share this emitter. Each partition
    re-roots its tree ({!Tree.reroot}), and both local phases emit
    through {!Codegen.emit_tree_reduce} and {!Codegen.emit_tree_broadcast}. *)

type plan = {
  trees : Tree.t list;
      (** local trees of one server; partition [p] uses tree [p mod length]
          re-rooted at that partition's local root *)
  ranks : int list;  (** the server's global ranks *)
  cls : Blink_topology.Fabric.link_class;
      (** link class of this server's local phases ([Nv], or [Pcie] when a
          ring baseline fell back) *)
}

exception No_surviving_root of { server : int }
(** Every rank of the server was excluded by [avoid_roots]: it has no
    usable cross-server endpoint left, so no three-phase schedule
    exists — the caller must drop the server or restore a network
    attach. *)

val all_reduce :
  ?pool:Blink_parallel.Pool.t ->
  ?avoid_roots:int list ->
  Codegen.spec ->
  n_partitions:int ->
  plans:plan array ->
  elems:int ->
  Blink_sim.Program.t * Codegen.layout
(** Emit the full three-phase AllReduce. Each plan's [cls] governs that
    server's local phases; the cross-server phase always routes over [Net].
    Partition hubs rotate over servers; local roots rotate over each
    server's ranks. Requires at least one plan and one tree per plan, and
    every plan's trees covering exactly that plan's ranks. Every rank's
    data buffer ends up holding the global sum.

    [avoid_roots] (global rank ids, default none) excludes ranks from
    root duty — the failure model for a rank whose NIC/staging path died:
    it still relays local-phase traffic, but partitions rotate their
    local roots over the surviving ranks only. Raises
    {!No_surviving_root} when a server has no rank left to serve.
    An empty list emits a bit-identical program to before.

    [pool] parallelizes the per-partition tree re-rooting (a pure
    precomputation); op emission itself is sequential either way, so the
    returned program is bit-identical with or without a pool. *)
