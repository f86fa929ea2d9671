module Program = Blink_sim.Program
module Engine = Blink_sim.Engine
module Fabric = Blink_topology.Fabric
module Telemetry = Blink_telemetry.Telemetry
module Json = Blink_telemetry.Json

type spec = {
  fabric : Fabric.t;
  cls : Fabric.link_class;
  chunk_elems : int;
  stream_reuse : bool;
  elem_bytes : float;
  telemetry : Telemetry.t;
}

let spec ?(cls = Fabric.Nv) ?(chunk_elems = 262_144) ?(stream_reuse = true)
    ?(elem_bytes = 4.) ?(telemetry = Telemetry.disabled) fabric =
  if chunk_elems <= 0 then invalid_arg "Codegen.spec: chunk_elems <= 0";
  { fabric; cls; chunk_elems; stream_reuse; elem_bytes; telemetry }

type layout = { data : int array; output : int array option }

let check_trees spec ~root ~trees =
  let k = Fabric.n_ranks spec.fabric in
  if trees = [] then invalid_arg "Codegen: empty tree list";
  List.iter
    (fun { Tree.tree; share } ->
      if Tree.n_ranks tree <> k then
        invalid_arg "Codegen: tree rank count does not match fabric";
      if not (Tree.spans tree) then
        invalid_arg "Codegen: tree does not span the fabric";
      if share <= 0. then invalid_arg "Codegen: non-positive tree share";
      match root with
      | Some r when tree.Tree.root <> r ->
          invalid_arg "Codegen: tree rooted at the wrong rank"
      | Some _ | None -> ())
    trees

(* Contiguous per-tree regions by share, via cumulative rounding so lengths
   sum exactly to [elems]. *)
let regions ~elems trees =
  let total = List.fold_left (fun acc t -> acc +. t.Tree.share) 0. trees in
  let boundary cum = int_of_float (Float.round (cum /. total *. Float.of_int elems)) in
  let _, out =
    List.fold_left
      (fun (cum, acc) t ->
        let cum' = cum +. t.Tree.share in
        let start = boundary cum and stop = boundary cum' in
        (cum', (t, start, stop - start) :: acc))
      (0., []) trees
  in
  List.rev out

let split_chunks ~chunk ~off ~len =
  let rec go o remaining acc =
    if remaining <= 0 then List.rev acc
    else begin
      let this = min chunk remaining in
      go (o + this) (remaining - this) ((o, this) :: acc)
    end
  in
  go off len []

(* Wrap one generator invocation: a wall-clock span plus ops/chunks
   counters, all behind the spec's telemetry handle (a single match when
   telemetry is disabled). [payload] (default [elems]) is the element
   count the trees' regions partition. *)
let instrument ?payload spec ~name ~elems ~trees f =
  let tel = spec.telemetry in
  if not (Telemetry.enabled tel) then f ()
  else begin
    let t0 = Telemetry.now_s tel in
    let (prog, _) as result = f () in
    let ops = Program.n_ops prog in
    let chunks =
      List.fold_left
        (fun acc (_, _, len) ->
          if len <= 0 then acc
          else acc + ((len + spec.chunk_elems - 1) / spec.chunk_elems))
        0
        (regions ~elems:(Option.value payload ~default:elems) trees)
    in
    let labels = [ ("collective", name) ] in
    Telemetry.incr tel ~labels "codegen.invocations";
    Telemetry.incr tel ~labels ~by:ops "codegen.ops";
    Telemetry.incr tel ~labels ~by:chunks "codegen.chunks";
    Telemetry.span tel ~cat:"codegen" ~start:t0
      ~args:
        [
          ("ops", Json.int ops);
          ("chunks", Json.int chunks);
          ("elems", Json.int elems);
          ("chunk_elems", Json.int spec.chunk_elems);
          ("trees", Json.int (List.length trees));
        ]
      ("codegen." ^ name);
    result
  end

let edge_streams spec ctx ~tree_idx ~src ~dst ~flow =
  match
    Emit.streams_for ctx ~cls:spec.cls ~src ~dst ~tree:tree_idx ~flow
      ~reuse:spec.stream_reuse
  with
  | Some hops -> hops
  | None ->
      invalid_arg
        (Printf.sprintf "Codegen: ranks %d -> %d not connected in this class"
          src dst)

let mem ~node ~buf ~off ~len = { Program.node; buf; off; len }

let declare_data ctx ~elems =
  let k = Fabric.n_ranks (Emit.fabric ctx) in
  Array.init k (fun r -> Emit.data_buffer ctx ~rank:r ~len:elems)

(* Broadcast one region of a source buffer down a tree. [source ci] gives
   (mem_ref on the tree root, deps) for chunk [ci]; [dst_buf r] the target
   buffer on rank [r]. Returns per-(rank, chunk) arrival op ids. *)
let emit_tree_broadcast spec ctx ~tree_idx ~(tree : Tree.t) ~chunks ~source
    ~dst_buf =
  let arrival = Hashtbl.create 64 in
  List.iter
    (fun v ->
      if v <> tree.Tree.root then begin
        let u = tree.Tree.parent.(v) in
        let hops = edge_streams spec ctx ~tree_idx ~src:u ~dst:v ~flow:v in
        List.iteri
          (fun ci (off, len) ->
            let src, deps =
              if u = tree.Tree.root then source ci
              else
                let src_ref =
                  mem ~node:u ~buf:(dst_buf u) ~off ~len
                in
                (src_ref, [ Hashtbl.find arrival (u, ci) ])
            in
            let dst = mem ~node:v ~buf:(dst_buf v) ~off ~len in
            let op = Emit.send ctx ~hops ~src ~dst ~reduce:false ~deps in
            Hashtbl.replace arrival (v, ci) op)
          chunks
      end)
    tree.Tree.order;
  arrival

(* Reduce one region of every rank's data buffer towards the tree root,
   in place. Returns, per chunk, the ops that completed the root's sum. *)
let emit_tree_reduce spec ctx ~tree_idx ~(tree : Tree.t) ~chunks ~data =
  let contributions : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
  let contrib key = Option.value (Hashtbl.find_opt contributions key) ~default:[] in
  List.iter
    (fun v ->
      if v <> tree.Tree.root then begin
        let u = tree.Tree.parent.(v) in
        let hops = edge_streams spec ctx ~tree_idx ~src:v ~dst:u ~flow:v in
        List.iteri
          (fun ci (off, len) ->
            let src = mem ~node:v ~buf:data.(v) ~off ~len in
            let dst = mem ~node:u ~buf:data.(u) ~off ~len in
            let deps = contrib (v, ci) in
            let op = Emit.send ctx ~hops ~src ~dst ~reduce:true ~deps in
            Hashtbl.replace contributions (u, ci) (op :: contrib (u, ci)))
          chunks
      end)
    (List.rev tree.Tree.order);
  Array.of_list (List.mapi (fun ci _ -> contrib (tree.Tree.root, ci)) chunks)

let broadcast spec ~root ~elems ~trees =
  check_trees spec ~root:(Some root) ~trees;
  instrument spec ~name:"broadcast" ~elems ~trees @@ fun () ->
  let ctx = Emit.create ~fabric:spec.fabric ~elem_bytes:spec.elem_bytes ~staging_elems:elems () in
  let data = declare_data ctx ~elems in
  List.iteri
    (fun tree_idx ({ Tree.tree; _ }, off, len) ->
      if len > 0 then begin
        let chunks = split_chunks ~chunk:spec.chunk_elems ~off ~len in
        let source ci =
          let o, l = List.nth chunks ci in
          (mem ~node:root ~buf:data.(root) ~off:o ~len:l, [])
        in
        ignore
          (emit_tree_broadcast spec ctx ~tree_idx ~tree ~chunks ~source
             ~dst_buf:(fun r -> data.(r)))
      end)
    (regions ~elems trees);
  (Emit.program ctx, { data; output = None })

let reduce spec ~root ~elems ~trees =
  check_trees spec ~root:(Some root) ~trees;
  instrument spec ~name:"reduce" ~elems ~trees @@ fun () ->
  let ctx = Emit.create ~fabric:spec.fabric ~elem_bytes:spec.elem_bytes ~staging_elems:elems () in
  let data = declare_data ctx ~elems in
  List.iteri
    (fun tree_idx ({ Tree.tree; _ }, off, len) ->
      if len > 0 then begin
        let chunks = split_chunks ~chunk:spec.chunk_elems ~off ~len in
        ignore (emit_tree_reduce spec ctx ~tree_idx ~tree ~chunks ~data)
      end)
    (regions ~elems trees);
  (Emit.program ctx, { data; output = None })

let all_reduce spec ~elems ~trees =
  check_trees spec ~root:None ~trees;
  instrument spec ~name:"all_reduce" ~elems ~trees @@ fun () ->
  let ctx = Emit.create ~fabric:spec.fabric ~elem_bytes:spec.elem_bytes ~staging_elems:elems () in
  let data = declare_data ctx ~elems in
  List.iteri
    (fun tree_idx ({ Tree.tree; _ }, off, len) ->
      if len > 0 then begin
        let chunks = split_chunks ~chunk:spec.chunk_elems ~off ~len in
        let root_done = emit_tree_reduce spec ctx ~tree_idx ~tree ~chunks ~data in
        let source ci =
          let o, l = List.nth chunks ci in
          ( mem ~node:tree.Tree.root ~buf:data.(tree.Tree.root) ~off:o ~len:l,
            root_done.(ci) )
        in
        ignore
          (emit_tree_broadcast spec ctx ~tree_idx ~tree ~chunks ~source
             ~dst_buf:(fun r -> data.(r)))
      end)
    (regions ~elems trees);
  (Emit.program ctx, { data; output = None })

(* Forwarding buffers for gather-style collectives: pass-through data at
   intermediate ranks stages here, addressed by global output offset. *)
let forward_buffers ctx ~total =
  let k = Fabric.n_ranks (Emit.fabric ctx) in
  let bufs = Array.make k (-1) in
  fun r ->
    if bufs.(r) < 0 then bufs.(r) <- Emit.data_buffer ctx ~rank:r ~len:total;
    bufs.(r)

let emit_gather spec ctx ~root ~elems ~trees ~data ~out =
  let total = Fabric.n_ranks spec.fabric * elems in
  let fwd = forward_buffers ctx ~total in
  List.iteri
    (fun tree_idx ({ Tree.tree; _ }, off, len) ->
      if len > 0 then begin
        let chunks = split_chunks ~chunk:spec.chunk_elems ~off ~len in
        Array.iteri
          (fun w _ ->
            if w <> root then begin
              let path = Tree.path_to_root tree w in
              List.iter
                (fun (coff, clen) ->
                  let goff = (w * elems) + coff in
                  let rec forward src deps = function
                    | x :: (y :: _ as rest) ->
                        let hops =
                          edge_streams spec ctx ~tree_idx ~src:x ~dst:y ~flow:x
                        in
                        let dst =
                          if y = root then
                            mem ~node:root ~buf:out ~off:goff ~len:clen
                          else mem ~node:y ~buf:(fwd y) ~off:goff ~len:clen
                        in
                        let op =
                          Emit.send ctx ~hops ~src ~dst ~reduce:false ~deps
                        in
                        if y <> root then forward dst [ op ] rest
                    | [ _ ] | [] -> ()
                  in
                  let src0 = mem ~node:w ~buf:data.(w) ~off:coff ~len:clen in
                  forward src0 [] path)
                chunks
            end)
          data
      end)
    (regions ~elems trees);
  (* The root's own contribution is a local copy. *)
  ignore
    (Emit.local_copy ctx ~rank:root
       ~src:(mem ~node:root ~buf:data.(root) ~off:0 ~len:elems)
       ~dst:(mem ~node:root ~buf:out ~off:(root * elems) ~len:elems)
       ~deps:[])

let gather spec ~root ~elems ~trees =
  check_trees spec ~root:(Some root) ~trees;
  instrument spec ~name:"gather" ~elems ~trees @@ fun () ->
  let k = Fabric.n_ranks spec.fabric in
  let total = k * elems in
  let ctx = Emit.create ~fabric:spec.fabric ~elem_bytes:spec.elem_bytes ~staging_elems:total () in
  let data = declare_data ctx ~elems in
  let out_root = Emit.data_buffer ctx ~rank:root ~len:total in
  emit_gather spec ctx ~root ~elems ~trees ~data ~out:out_root;
  let output = Array.make k (-1) in
  output.(root) <- out_root;
  (Emit.program ctx, { data; output = Some output })

(* The root-less collectives run over per-root packings: [trees] holds
   every rank's own trees, each rooted at its owner, with the shares of
   one root's trees summing to that root's whole segment. [seg root]
   gives the root's segment [(base, len)] in the buffer the chunks
   address; each tree's region of it is pipelined as its own chunk
   sequence, with the tree's index in [trees] as its stream identity. *)
let iter_root_regions spec ~trees ~seg f =
  let k = Fabric.n_ranks spec.fabric in
  let owned = Array.make k [] in
  List.iteri
    (fun tree_idx w ->
      let r = w.Tree.tree.Tree.root in
      owned.(r) <- (tree_idx, w) :: owned.(r))
    trees;
  Array.iteri
    (fun root mine ->
      if mine = [] then invalid_arg "Codegen: a rank roots no tree";
      let mine = List.rev mine in
      let base, len = seg root in
      List.iter2
        (fun (tree_idx, _) ({ Tree.tree; _ }, off, l) ->
          if l > 0 then
            f ~root ~tree_idx ~tree
              ~chunks:
                (split_chunks ~chunk:spec.chunk_elems ~off:(base + off) ~len:l))
        mine
        (regions ~elems:len (List.map snd mine)))
    owned

let all_gather spec ~elems ~trees =
  check_trees spec ~root:None ~trees;
  let k = Fabric.n_ranks spec.fabric in
  let total = k * elems in
  instrument spec ~name:"all_gather" ~payload:total ~elems ~trees @@ fun () ->
  let ctx = Emit.create ~fabric:spec.fabric ~elem_bytes:spec.elem_bytes ~staging_elems:total () in
  let data = declare_data ctx ~elems in
  let output = Array.init k (fun r -> Emit.data_buffer ctx ~rank:r ~len:total) in
  for r = 0 to k - 1 do
    ignore
      (Emit.local_copy ctx ~rank:r
         ~src:(mem ~node:r ~buf:data.(r) ~off:0 ~len:elems)
         ~dst:(mem ~node:r ~buf:output.(r) ~off:(r * elems) ~len:elems)
         ~deps:[])
  done;
  (* Rank r broadcasts its shard straight from its data buffer into
     segment r of every output buffer. *)
  iter_root_regions spec ~trees
    ~seg:(fun r -> (r * elems, elems))
    (fun ~root ~tree_idx ~tree ~chunks ->
      let base = root * elems in
      let chunk_at = Array.of_list chunks in
      let source ci =
        let o, l = chunk_at.(ci) in
        (mem ~node:root ~buf:data.(root) ~off:(o - base) ~len:l, [])
      in
      ignore
        (emit_tree_broadcast spec ctx ~tree_idx ~tree ~chunks ~source
           ~dst_buf:(fun r -> output.(r))));
  (Emit.program ctx, { data; output = Some output })

let reduce_scatter spec ~elems ~trees =
  check_trees spec ~root:None ~trees;
  instrument spec ~name:"reduce_scatter" ~elems ~trees @@ fun () ->
  let k = Fabric.n_ranks spec.fabric in
  let ctx = Emit.create ~fabric:spec.fabric ~elem_bytes:spec.elem_bytes ~staging_elems:elems () in
  let data = declare_data ctx ~elems in
  let boundary r = r * elems / k in
  iter_root_regions spec ~trees
    ~seg:(fun r -> (boundary r, boundary (r + 1) - boundary r))
    (fun ~root:_ ~tree_idx ~tree ~chunks ->
      ignore (emit_tree_reduce spec ctx ~tree_idx ~tree ~chunks ~data));
  (Emit.program ctx, { data; output = None })

let run ?policy spec prog =
  Engine.run ?policy ~resources:(Fabric.resources spec.fabric) prog
