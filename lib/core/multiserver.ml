module Digraph = Blink_graph.Digraph
module Server = Blink_topology.Server
module Fabric = Blink_topology.Fabric
module Tree = Blink_collectives.Tree
module Threephase = Blink_collectives.Threephase
module Codegen = Blink_collectives.Codegen
module Pool = Blink_parallel.Pool

type t = {
  fabric : Fabric.t;
  plans : Threephase.plan array;
  n_partitions : int;
  pool : Pool.t option;
}

(* Local spanning trees of one server's allocation, as trees over the
   cluster's [n_ranks] global ranks that cover only this server's. A
   single GPU yields one trivial tree. *)
let plan_server ?epsilon ?threshold ~n_ranks server ~gpus ~rank_offset =
  let k = Array.length gpus in
  let global i = rank_offset + i in
  let ranks = List.init k global in
  if k = 1 then
    {
      Threephase.trees = [ Tree.of_undirected ~n_ranks ~root:(global 0) [] ];
      ranks;
      cls = Fabric.Nv;
    }
  else begin
    let g = Server.nvlink_digraph server ~gpus in
    let root = Treegen.best_root g in
    (* Local trees run reduce and broadcast phases over the same edges, so
       the undirected (duplex-link) packing is the right model. *)
    let packing = Treegen.plan ?epsilon ?threshold g ~root ~undirected:true in
    if packing.Treegen.trees = [] then
      invalid_arg
        "Multiserver: a server's local NVLink graph is disconnected; \
         allocate NVLink-connected GPUs per server";
    let trees =
      List.map
        (fun tree ->
          let edges =
            List.map
              (fun id ->
                let e = Digraph.edge g id in
                (global e.Digraph.src, global e.Digraph.dst))
              tree.Treegen.edges
          in
          Tree.of_undirected ~n_ranks ~root:(global root) edges)
        packing.Treegen.trees
    in
    { Threephase.trees; ranks; cls = Fabric.Nv }
  end

let create ?net_bw ?epsilon ?threshold ?pool servers =
  if servers = [] then invalid_arg "Multiserver.create: no servers";
  let fabric =
    Fabric.of_cluster ?net_bw (List.map fst servers)
      ~allocs:(List.map snd servers)
  in
  (* Rank offsets are a prefix sum over the allocation sizes, so each
     server's packing is independent once they are known — fan the MWU +
     ILP runs across the pool when one is supplied. [parallel_map]
     preserves submission order, and [plan_server] is pure, so the plan
     array (and everything downstream) is identical to the sequential
     fold. *)
  let jobs =
    let _, rev =
      List.fold_left
        (fun (offset, acc) (server, gpus) ->
          (offset + Array.length gpus, (server, gpus, offset) :: acc))
        (0, []) servers
    in
    List.rev rev
  in
  let plan_one (server, gpus, rank_offset) =
    plan_server ?epsilon ?threshold ~n_ranks:(Fabric.n_ranks fabric) server ~gpus
      ~rank_offset
  in
  let plans = Array.of_list (Pool.map ?pool plan_one jobs) in
  let max_trees =
    Array.fold_left
      (fun acc plan -> max acc (List.length plan.Threephase.trees))
      1 plans
  in
  (* Enough partitions that every server's trees all carry data and hubs
     rotate over all servers. *)
  let n_partitions = max_trees * Array.length plans in
  { fabric; plans; n_partitions; pool }

let fabric t = t.fabric
let n_partitions t = t.n_partitions
let plans t = t.plans

let all_reduce ?chunk_elems ?stream_reuse ?avoid_roots t ~elems =
  let spec = Codegen.spec ?chunk_elems ?stream_reuse t.fabric in
  Threephase.all_reduce ?pool:t.pool ?avoid_roots spec
    ~n_partitions:t.n_partitions ~plans:t.plans ~elems

let time ?policy t prog =
  Blink_sim.Engine.run ?policy ~resources:(Fabric.resources t.fabric) prog
