module Fabric = Blink_topology.Fabric

(* ReduceScatter: segment r -> rank r, over tree [r mod n_trees] re-rooted
   at r. *)
let reduce_scatter spec ~elems ~trees =
  Codegen.check_trees spec ~root:None ~trees;
  Codegen.instrument spec ~name:"reduce_scatter" ~elems ~trees @@ fun () ->
  let k = Fabric.n_ranks spec.Codegen.fabric in
  let ctx =
    Emit.create ~fabric:spec.Codegen.fabric ~elem_bytes:spec.Codegen.elem_bytes
      ~staging_elems:elems ()
  in
  let data = Codegen.declare_data ctx ~elems in
  let shapes = Array.of_list (List.map (fun w -> w.Tree.tree) trees) in
  let boundary r = r * elems / k in
  for r = 0 to k - 1 do
    let off = boundary r in
    let len = boundary (r + 1) - off in
    if len > 0 then begin
      let tree = Tree.reroot shapes.(r mod Array.length shapes) ~root:r in
      let chunks = Codegen.split_chunks ~chunk:spec.Codegen.chunk_elems ~off ~len in
      ignore (Codegen.emit_tree_reduce spec ctx ~tree_idx:r ~tree ~chunks ~data)
    end
  done;
  (Emit.program ctx, { Codegen.data; output = None })
