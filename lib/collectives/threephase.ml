module Program = Blink_sim.Program
module Fabric = Blink_topology.Fabric

type plan = {
  trees : Tree.t list;
  ranks : int list;
  cls : Fabric.link_class;
}

exception No_surviving_root of { server : int }

let () =
  Printexc.register_printer (function
    | No_surviving_root { server } ->
        Some
          (Printf.sprintf
             "Threephase.No_surviving_root { server = %d } (every rank of \
              the server is excluded by avoid_roots)"
             server)
    | _ -> None)

let validate spec plans =
  if Array.length plans = 0 then invalid_arg "Threephase: no plans";
  let n_ranks = Fabric.n_ranks spec.Codegen.fabric in
  Array.iter
    (fun plan ->
      if plan.trees = [] then invalid_arg "Threephase: plan without trees";
      let want = List.sort compare plan.ranks in
      List.iter
        (fun tree ->
          if Tree.n_ranks tree <> n_ranks then
            invalid_arg "Threephase: tree rank count does not match fabric";
          if Tree.members tree <> want then
            invalid_arg "Threephase: tree does not cover the plan's ranks")
        plan.trees)
    plans

let all_reduce ?pool ?(avoid_roots = []) spec ~n_partitions ~plans ~elems =
  validate spec plans;
  if n_partitions <= 0 then invalid_arg "Threephase: n_partitions <= 0";
  let n_servers = Array.length plans in
  (* Per-server root rotation, restricted to ranks whose network attach
     still works: a rank in [avoid_roots] can relay local-phase traffic
     but must not serve as a partition's cross-server endpoint. With no
     exclusions this is exactly the plan's rank list, so the emitted
     program is unchanged. *)
  let eligible_roots =
    Array.mapi
      (fun s plan ->
        let ok = List.filter (fun r -> not (List.mem r avoid_roots)) plan.ranks in
        if ok = [] then raise (No_surviving_root { server = s });
        Array.of_list ok)
      plans
  in
  let ctx =
    Emit.create ~fabric:spec.Codegen.fabric ~elem_bytes:spec.Codegen.elem_bytes
      ~staging_elems:elems ()
  in
  let data = Codegen.declare_data ctx ~elems in
  (* Partition p's region, local tree (re-rooted) and hub server. *)
  let boundary p = p * elems / n_partitions in
  let local_tree s p =
    let plan = plans.(s) in
    let tree = List.nth plan.trees (p mod List.length plan.trees) in
    let roots = eligible_roots.(s) in
    Tree.reroot tree ~root:roots.(p mod Array.length roots)
  in
  (* Re-rooting every server's tree for every partition is pure, so the
     per-partition batches fan out across the pool when one is supplied
     (results come back in partition order, so the emitted program is
     identical to the sequential build). Emission below stays sequential:
     ops must enter the shared context in program order. *)
  let partition_trees =
    let build p = Array.init n_servers (fun s -> local_tree s p) in
    let ps = List.init n_partitions Fun.id in
    Array.of_list (Blink_parallel.Pool.map ?pool build ps)
  in
  for p = 0 to n_partitions - 1 do
    let off = boundary p in
    let len = boundary (p + 1) - off in
    if len > 0 then begin
      let chunks = Codegen.split_chunks ~chunk:spec.Codegen.chunk_elems ~off ~len in
      let chunks_arr = Array.of_list chunks in
      let hub = p mod n_servers in
      let trees = partition_trees.(p) in
      let roots = Array.map (fun (t : Tree.t) -> t.Tree.root) trees in
      let local_spec s = { spec with Codegen.cls = plans.(s).cls } in
      (* Phase 1: local reductions. *)
      let local_done =
        Array.init n_servers (fun s ->
            Codegen.emit_tree_reduce (local_spec s) ctx ~tree_idx:p
              ~tree:trees.(s) ~chunks ~data)
      in
      (* Phase 2: one-hop cross-server reduce then scatter-back, between
         the partition's server-local roots, over the network. *)
      let net_hops src dst =
        match
          Emit.streams_for ctx ~cls:Fabric.Net ~src ~dst ~tree:p ~flow:src
            ~reuse:spec.Codegen.stream_reuse
        with
        | Some hops -> hops
        | None -> invalid_arg "Threephase: servers not network-connected"
      in
      let hub_ready =
        Array.mapi
          (fun ci (coff, clen) ->
            let into_hub =
              List.filteri (fun s _ -> s <> hub) (Array.to_list (Array.mapi (fun s r -> (s, r)) roots))
              |> List.map (fun (s, root) ->
                     let src =
                       { Program.node = root; buf = data.(root); off = coff; len = clen }
                     in
                     let dst =
                       { Program.node = roots.(hub); buf = data.(roots.(hub)); off = coff; len = clen }
                     in
                     Emit.send ctx ~hops:(net_hops root roots.(hub)) ~src ~dst
                       ~reduce:true
                       ~deps:(local_done.(s).(ci) @ local_done.(hub).(ci)))
            in
            (* Single-server degenerate case: the hub's sum is just its own
               local reduction. *)
            if into_hub = [] then local_done.(hub).(ci) else into_hub)
          chunks_arr
      in
      let root_has =
        Array.mapi
          (fun ci _ ->
            Array.init n_servers (fun s ->
                if s = hub then hub_ready.(ci)
                else
                  let coff, clen = chunks_arr.(ci) in
                  let src =
                    { Program.node = roots.(hub); buf = data.(roots.(hub)); off = coff; len = clen }
                  in
                  let dst =
                    { Program.node = roots.(s); buf = data.(roots.(s)); off = coff; len = clen }
                  in
                  [ Emit.send ctx
                      ~hops:(net_hops roots.(hub) roots.(s))
                      ~src ~dst ~reduce:false ~deps:hub_ready.(ci) ]))
          chunks_arr
      in
      (* Phase 3: local broadcasts from each server-local root. *)
      Array.iteri
        (fun s tree ->
          let source ci =
            let coff, clen = chunks_arr.(ci) in
            ( { Program.node = roots.(s); buf = data.(roots.(s)); off = coff; len = clen },
              root_has.(ci).(s) )
          in
          ignore
            (Codegen.emit_tree_broadcast (local_spec s) ctx
               ~tree_idx:(n_partitions + p) ~tree ~chunks ~source
               ~dst_buf:(fun r -> data.(r))))
        trees
    end
  done;
  (Emit.program ctx, { Codegen.data; output = None })
