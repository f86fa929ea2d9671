module Fabric = Blink_topology.Fabric
module Tree = Blink_collectives.Tree
module Threephase = Blink_collectives.Threephase
module Codegen = Blink_collectives.Codegen

type t = {
  fabric : Fabric.t;
  plans : Threephase.plan array;
  n_partitions : int;
}

(* A directed ring's path tree towards the server's leader (first local
   rank), as a tree over the cluster's [n_ranks] global ranks that covers
   only this server's. *)
let ring_plan ~n_ranks server ~gpus ~rank_offset =
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
    let channels = Ring.nccl_channels server ~gpus in
    let trees =
      List.map
        (fun ring ->
          let rec path_edges = function
            | a :: (b :: _ as rest) -> (global a, global b) :: path_edges rest
            | [ _ ] | [] -> []
          in
          Tree.of_undirected ~n_ranks ~root:(global (List.hd ring)) (path_edges ring))
        channels.Ring.rings
    in
    { Threephase.trees; ranks; cls = channels.Ring.cls }
  end

let create ?net_bw servers =
  if servers = [] then invalid_arg "Hierarchical.create: no servers";
  let fabric =
    Fabric.of_cluster ?net_bw (List.map fst servers)
      ~allocs:(List.map snd servers)
  in
  let _, plans =
    List.fold_left
      (fun (offset, acc) (server, gpus) ->
        let plan =
          ring_plan ~n_ranks:(Fabric.n_ranks fabric) server ~gpus
            ~rank_offset:offset
        in
        (offset + Array.length gpus, plan :: acc))
      (0, []) servers
  in
  let plans = Array.of_list (List.rev plans) in
  let max_trees =
    Array.fold_left
      (fun acc plan -> max acc (List.length plan.Threephase.trees))
      1 plans
  in
  { fabric; plans; n_partitions = max_trees * Array.length plans }

let fabric t = t.fabric
let local_cls t s = t.plans.(s).Threephase.cls

let all_reduce ?chunk_elems ?stream_reuse t ~elems =
  let spec = Codegen.spec ?chunk_elems ?stream_reuse t.fabric in
  Threephase.all_reduce spec ~n_partitions:t.n_partitions ~plans:t.plans ~elems

let time ?policy t prog =
  Blink_sim.Engine.run ?policy ~resources:(Fabric.resources t.fabric) prog
