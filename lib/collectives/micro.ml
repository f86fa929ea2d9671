module Server = Blink_topology.Server
module Fabric = Blink_topology.Fabric
module Program = Blink_sim.Program
module Engine = Blink_sim.Engine

(* An NVLink Hamiltonian path of the DGX-1V (every consecutive pair is
   directly wired). *)
let ham_path = [| 0; 1; 2; 3; 7; 6; 5; 4 |]

let chain_gpus n =
  if n < 2 || n > 8 then invalid_arg "Micro.chain_gpus: need 2..8 GPUs";
  Array.sub ham_path 0 n

let elems_of_mbytes mbytes = int_of_float (mbytes *. 1e6 /. 4.)

let run_gbps fabric prog ~bytes =
  let result = Engine.run ~resources:(Fabric.resources fabric) prog in
  bytes /. result.Engine.makespan /. 1e9

let path_tree_from_head n =
  Tree.of_edges ~n_ranks:n ~root:0 (List.init (n - 1) (fun i -> (i, i + 1)))

let path_tree_from_tail n =
  Tree.of_edges ~n_ranks:n ~root:(n - 1)
    (List.init (n - 1) (fun i -> (i + 1, i)))

let chain_spec ?chunk_elems ~n_gpus () =
  let fabric = Fabric.of_server Server.dgx1v ~gpus:(chain_gpus n_gpus) in
  (fabric, Codegen.spec ?chunk_elems fabric)

let chain_forward ?chunk_elems ~n_gpus  mbytes =
  let fabric, spec = chain_spec ?chunk_elems ~n_gpus () in
  let elems = elems_of_mbytes mbytes in
  let prog, _ =
    Codegen.broadcast spec ~root:0 ~elems
      ~trees:[ { Tree.tree = path_tree_from_head n_gpus; share = 1. } ]
  in
  run_gbps fabric prog ~bytes:(4. *. Float.of_int elems)

let chain_reduce_forward ?chunk_elems ~n_gpus  mbytes =
  let fabric, spec = chain_spec ?chunk_elems ~n_gpus () in
  let elems = elems_of_mbytes mbytes in
  let prog, _ =
    Codegen.reduce spec ~root:(n_gpus - 1) ~elems
      ~trees:[ { Tree.tree = path_tree_from_tail n_gpus; share = 1. } ]
  in
  run_gbps fabric prog ~bytes:(4. *. Float.of_int elems)

let chain_reduce_broadcast ?chunk_elems ~n_gpus  mbytes =
  let fabric, spec = chain_spec ?chunk_elems ~n_gpus () in
  let elems = elems_of_mbytes mbytes in
  let prog, _ =
    Codegen.all_reduce spec ~elems
      ~trees:[ { Tree.tree = path_tree_from_tail n_gpus; share = 1. } ]
  in
  run_gbps fabric prog ~bytes:(4. *. Float.of_int elems)

(* Fan topologies: sources are GPUs 5/6/7, the center GPU 4, the successor
   GPU 0 — all NVLink neighbours of GPU 4 on the DGX-1V. Ranks: 0 =
   successor, 1 = center, 2.. = sources. *)
let fan_fabric degree =
  if degree < 1 || degree > 3 then
    invalid_arg "Micro: fan degree must be 1..3 on a DGX-1";
  let sources = Array.sub [| 5; 6; 7 |] 0 degree in
  let gpus = Array.append [| 0; 4 |] sources in
  (Fabric.of_server Server.dgx1v ~gpus, 2 + degree)

let fan_tree k =
  (* successor <- center <- sources *)
  Tree.of_edges ~n_ranks:k ~root:0
    ((0, 1) :: List.init (k - 2) (fun i -> (1, i + 2)))

let fan_in_forward ?chunk_elems ~degree  mbytes =
  let fabric, k = fan_fabric degree in
  let spec = Codegen.spec ?chunk_elems fabric in
  let elems = elems_of_mbytes mbytes in
  let prog, _ =
    Codegen.gather spec ~root:0 ~elems
      ~trees:[ { Tree.tree = fan_tree k; share = 1. } ]
  in
  (* The center-to-successor link is the bottleneck: it carries every
     non-root contribution. *)
  run_gbps fabric prog ~bytes:(4. *. Float.of_int ((k - 1) * elems))

let fan_in_reduce ?chunk_elems ~degree  mbytes =
  let fabric, k = fan_fabric degree in
  let spec = Codegen.spec ?chunk_elems fabric in
  let elems = elems_of_mbytes mbytes in
  let prog, _ =
    Codegen.reduce spec ~root:0 ~elems
      ~trees:[ { Tree.tree = fan_tree k; share = 1. } ]
  in
  run_gbps fabric prog ~bytes:(4. *. Float.of_int elems)

let fan_out_forward ?chunk_elems ~degree  mbytes =
  let fabric, k = fan_fabric degree in
  let spec = Codegen.spec ?chunk_elems fabric in
  let elems = elems_of_mbytes mbytes in
  let prog, _ =
    Codegen.broadcast spec ~root:0 ~elems
      ~trees:[ { Tree.tree = fan_tree k; share = 1. } ]
  in
  run_gbps fabric prog ~bytes:(4. *. Float.of_int elems)

(* MIMO (figure 8a): two reduce+forward chains crossing GPU 2:
   0 -> 2 -> 3 and 1 -> 2 -> 6. Each flow owns half of a double-size
   buffer so the center's accumulations stay disjoint. *)
let mimo ?chunk_elems  mbytes =
  let fabric = Fabric.of_server Server.dgx1v ~gpus:[| 0; 1; 2; 3; 6 |] in
  let spec = Codegen.spec ?chunk_elems fabric in
  let elems = elems_of_mbytes mbytes in
  let ctx =
    Emit.create ~fabric ~elem_bytes:spec.Codegen.elem_bytes
      ~staging_elems:(2 * elems) ()
  in
  let data = Codegen.declare_data ctx ~elems:(2 * elems) in
  (* ranks: 0 -> 0, 1 -> 1, 2 -> 2, 3 -> 3, 6 -> 4 *)
  let flow root edges =
    Tree.of_undirected ~n_ranks:(Fabric.n_ranks fabric) ~root edges
  in
  let chunks region_off =
    Codegen.split_chunks ~chunk:spec.Codegen.chunk_elems ~off:region_off ~len:elems
  in
  ignore
    (Codegen.emit_tree_reduce spec ctx ~tree_idx:0
       ~tree:(flow 3 [ (3, 2); (2, 0) ]) ~chunks:(chunks 0) ~data);
  ignore
    (Codegen.emit_tree_reduce spec ctx ~tree_idx:1
       ~tree:(flow 4 [ (4, 2); (2, 1) ]) ~chunks:(chunks elems) ~data);
  run_gbps fabric (Emit.program ctx) ~bytes:(4. *. Float.of_int elems)

(* MCA (figure 8b): chains from GPUs 0 and 1 merge at GPU 2, which forwards
   the combined reduction to GPU 3. *)
let mca ?chunk_elems  mbytes =
  let fabric = Fabric.of_server Server.dgx1v ~gpus:[| 0; 1; 2; 3 |] in
  let spec = Codegen.spec ?chunk_elems fabric in
  let elems = elems_of_mbytes mbytes in
  let tree =
    Tree.of_edges ~n_ranks:4 ~root:3 [ (3, 2); (2, 0); (2, 1) ]
  in
  let prog, _ =
    Codegen.reduce spec ~root:3 ~elems ~trees:[ { Tree.tree; share = 1. } ]
  in
  run_gbps fabric prog ~bytes:(4. *. Float.of_int elems)
