module Server = Blink_topology.Server
module Fabric = Blink_topology.Fabric
module Tree = Blink_collectives.Tree
module Codegen = Blink_collectives.Codegen
module Threephase = Blink_collectives.Threephase
module Micro = Blink_collectives.Micro
module Emit = Blink_collectives.Emit
module P = Blink_sim.Program
module Sem = Blink_sim.Semantics
module E = Blink_sim.Engine

(* ------------------------------------------------------------------ *)
(* Tree *)

let test_tree_of_edges () =
  let t = Tree.of_edges ~n_ranks:4 ~root:1 [ (1, 0); (1, 2); (2, 3) ] in
  Alcotest.(check int) "root" 1 t.Tree.root;
  Alcotest.(check int) "depth of 3" 2 t.Tree.depth.(3);
  Alcotest.(check (list int)) "children of 1" [ 0; 2 ] t.Tree.children.(1);
  Alcotest.(check int) "max depth" 2 (Tree.max_depth t);
  Alcotest.(check (list int)) "path to root" [ 3; 2; 1 ] (Tree.path_to_root t 3);
  Alcotest.(check (list int)) "bfs order head" [ 1 ] [ List.hd t.Tree.order ]

let test_tree_validation () =
  let bad edges = try ignore (Tree.of_edges ~n_ranks:3 ~root:0 edges); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "wrong count" true (bad [ (0, 1) ]);
  Alcotest.(check bool) "cycle" true (bad [ (1, 2); (2, 1) ]);
  Alcotest.(check bool) "edge into root" true (bad [ (1, 0); (0, 2) ]);
  Alcotest.(check bool) "duplicate child" true (bad [ (0, 1); (2, 1) ])

let test_normalize_shares () =
  let t = Tree.of_edges ~n_ranks:2 ~root:0 [ (0, 1) ] in
  let w = Tree.normalize_shares [ (t, 3.); (t, 1.); (t, 0.) ] in
  Alcotest.(check int) "drops non-positive" 2 (List.length w);
  Alcotest.(check (float 1e-9)) "share" 0.75 (List.hd w).Tree.share;
  Alcotest.check_raises "all zero"
    (Invalid_argument "Tree.normalize_shares: no positive weights") (fun () ->
      ignore (Tree.normalize_shares [ (t, 0.) ]))

(* ------------------------------------------------------------------ *)
(* regions / chunks *)

let test_split_chunks () =
  Alcotest.(check (list (pair int int))) "exact"
    [ (0, 4); (4, 4) ]
    (Codegen.split_chunks ~chunk:4 ~off:0 ~len:8);
  Alcotest.(check (list (pair int int))) "remainder"
    [ (10, 4); (14, 1) ]
    (Codegen.split_chunks ~chunk:4 ~off:10 ~len:5);
  Alcotest.(check (list (pair int int))) "empty" [] (Codegen.split_chunks ~chunk:4 ~off:0 ~len:0)

let prop_regions_partition =
  QCheck.Test.make ~name:"regions partition the buffer" ~count:200
    QCheck.(pair (int_range 1 1000) (list_of_size Gen.(1 -- 6) (int_range 1 10)))
    (fun (elems, weights) ->
      let t = Tree.of_edges ~n_ranks:2 ~root:0 [ (0, 1) ] in
      let trees =
        List.map (fun w -> { Tree.tree = t; share = Float.of_int w }) weights
      in
      let regions = Codegen.regions ~elems trees in
      let total = List.fold_left (fun acc (_, _, len) -> acc + len) 0 regions in
      let contiguous =
        let rec check expected = function
          | [] -> expected = elems
          | (_, off, len) :: rest -> off = expected && len >= 0 && check (off + len) rest
        in
        check 0 regions
      in
      total = elems && contiguous)

(* ------------------------------------------------------------------ *)
(* Collective semantics helpers *)

let input_for rank elems =
  Array.init elems (fun i -> Float.of_int (((i * 7) + (rank * 131)) mod 41))

let expected_sum k elems =
  let acc = Array.make elems 0. in
  for r = 0 to k - 1 do
    Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) (input_for r elems)
  done;
  acc

let load_inputs mem (layout : Codegen.layout) k elems =
  for r = 0 to k - 1 do
    Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) (input_for r elems)
  done

let array_eq a b =
  Array.length a = Array.length b
  && Array.for_all Fun.id (Array.mapi (fun i x -> Float.abs (x -. b.(i)) < 1e-6) a)

let dgx1v_handle gpus = Blink_core.Blink.create Server.dgx1v ~gpus

let trees_for gpus =
  let h = dgx1v_handle gpus in
  (Blink_core.Blink.fabric h, Blink_core.Blink.broadcast_trees h,
   Blink_core.Blink.all_reduce_trees h, Blink_core.Blink.root h)

let test_broadcast_semantics () =
  List.iter
    (fun (gpus, elems, chunk) ->
      let fabric, btrees, _, root = trees_for gpus in
      let spec = Codegen.spec ~chunk_elems:chunk fabric in
      let prog, layout = Codegen.broadcast spec ~root ~elems ~trees:btrees in
      let mem = Sem.memory_of_program prog in
      let k = Array.length gpus in
      load_inputs mem layout k elems;
      Sem.run prog mem;
      let want = input_for root elems in
      for r = 0 to k - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "rank %d got root data" r)
          true
          (array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
      done)
    [
      ([| 0; 1; 2; 3; 4; 5; 6; 7 |], 10_007, 1000);
      ([| 1; 4; 5; 6 |], 4_096, 512);
      ([| 2; 3 |], 100, 7);
      ([| 0; 1; 3 |], 33, 100);
    ]

let test_reduce_semantics () =
  let gpus = [| 0; 1; 2; 3 |] in
  let fabric, btrees, _, root = trees_for gpus in
  let elems = 5_000 in
  let spec = Codegen.spec ~chunk_elems:640 fabric in
  let prog, layout = Codegen.reduce spec ~root ~elems ~trees:btrees in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 4 elems;
  Sem.run prog mem;
  Alcotest.(check bool) "root has the sum" true
    (array_eq (expected_sum 4 elems) (Sem.read mem ~node:root ~buf:layout.Codegen.data.(root)))

let test_all_reduce_semantics () =
  List.iter
    (fun (gpus, elems, chunk) ->
      let fabric, _, artrees, _ = trees_for gpus in
      let spec = Codegen.spec ~chunk_elems:chunk fabric in
      let prog, layout = Codegen.all_reduce spec ~elems ~trees:artrees in
      let mem = Sem.memory_of_program prog in
      let k = Array.length gpus in
      load_inputs mem layout k elems;
      Sem.run prog mem;
      let want = expected_sum k elems in
      for r = 0 to k - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "rank %d has the sum" r)
          true
          (array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
      done)
    [
      ([| 0; 1; 2; 3; 4; 5; 6; 7 |], 9_973, 1000);
      ([| 1; 4; 5; 6 |], 2_048, 100);
      ([| 0; 4 |], 64, 64);
    ]

let test_all_reduce_one_hop_roots () =
  (* DGX-2 one-hop trees have 16 distinct roots. *)
  let h = Blink_core.Blink.create Server.dgx2 ~gpus:(Array.init 16 Fun.id) in
  let elems = 4_800 in
  let prog, layout = Blink_core.Blink.all_reduce ~chunk_elems:100 h ~elems in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 16 elems;
  Sem.run prog mem;
  let want = expected_sum 16 elems in
  for r = 0 to 15 do
    Alcotest.(check bool) "dgx-2 sum" true
      (array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
  done

let test_gather_semantics () =
  let gpus = [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
  let fabric, btrees, _, root = trees_for gpus in
  let elems = 1_001 in
  let spec = Codegen.spec ~chunk_elems:128 fabric in
  let prog, layout = Codegen.gather spec ~root ~elems ~trees:btrees in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 8 elems;
  Sem.run prog mem;
  let out =
    match layout.Codegen.output with
    | Some o -> Sem.read mem ~node:root ~buf:o.(root)
    | None -> Alcotest.fail "gather must produce an output buffer"
  in
  for r = 0 to 7 do
    let want = input_for r elems in
    let got = Array.sub out (r * elems) elems in
    Alcotest.(check bool) (Printf.sprintf "segment %d" r) true (array_eq want got)
  done

let test_all_gather_semantics () =
  let gpus = [| 1; 4; 5; 6 |] in
  let h = dgx1v_handle gpus in
  let elems = 777 in
  let spec = Codegen.spec ~chunk_elems:100 (Blink_core.Blink.fabric h) in
  let trees = List.concat (Array.to_list (Blink_core.Blink.root_trees h)) in
  let prog, layout = Codegen.all_gather spec ~elems ~trees in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 4 elems;
  Sem.run prog mem;
  for q = 0 to 3 do
    let out =
      match layout.Codegen.output with
      | Some o -> Sem.read mem ~node:q ~buf:o.(q)
      | None -> Alcotest.fail "all_gather output"
    in
    for r = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "rank %d segment %d" q r)
        true
        (array_eq (input_for r elems) (Array.sub out (r * elems) elems))
    done
  done

let prop_all_reduce_random_allocations =
  QCheck.Test.make ~name:"all_reduce correct on random connected allocations"
    ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 5 |] in
      let size = 2 + Random.State.int rng 6 in
      (* pick a random NVLink-connected subset by growing from a seed GPU *)
      let chosen = ref [ Random.State.int rng 8 ] in
      while List.length !chosen < size do
        let candidates =
          List.filter
            (fun g ->
              (not (List.mem g !chosen))
              && List.exists (fun h -> Server.pair_capacity Server.dgx1v g h > 0) !chosen)
            (List.init 8 Fun.id)
        in
        match candidates with
        | [] -> chosen := [ Random.State.int rng 8 ] (* restart *)
        | _ -> chosen := List.nth candidates (Random.State.int rng (List.length candidates)) :: !chosen
      done;
      let gpus = Array.of_list (List.sort compare !chosen) in
      let fabric, _, artrees, _ = trees_for gpus in
      let elems = 128 + Random.State.int rng 2_000 in
      let chunk = 1 + Random.State.int rng 500 in
      let spec = Codegen.spec ~chunk_elems:chunk fabric in
      let prog, layout = Codegen.all_reduce spec ~elems ~trees:artrees in
      let mem = Sem.memory_of_program prog in
      let k = Array.length gpus in
      load_inputs mem layout k elems;
      Sem.run prog mem;
      let want = expected_sum k elems in
      List.for_all
        (fun r -> array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
        (List.init k Fun.id))

let test_check_trees_validation () =
  let fabric = Fabric.of_server Server.dgx1v ~gpus:[| 0; 1 |] in
  let spec = Codegen.spec fabric in
  let t = Tree.of_edges ~n_ranks:2 ~root:0 [ (0, 1) ] in
  Alcotest.(check bool) "empty trees rejected" true
    (try ignore (Codegen.broadcast spec ~root:0 ~elems:4 ~trees:[]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong root rejected" true
    (try
       ignore (Codegen.broadcast spec ~root:1 ~elems:4 ~trees:[ { Tree.tree = t; share = 1. } ]);
       false
     with Invalid_argument _ -> true);
  (* The whole-fabric generators take spanning trees only: a subset tree
     would leave non-members without data. *)
  let fabric3 = Fabric.of_server Server.dgx1v ~gpus:[| 0; 1; 2 |] in
  let subset = Tree.of_undirected ~n_ranks:3 ~root:0 [ (0, 1) ] in
  Alcotest.(check bool) "subset tree rejected" true
    (try
       ignore
         (Codegen.broadcast (Codegen.spec fabric3) ~root:0 ~elems:4
            ~trees:[ { Tree.tree = subset; share = 1. } ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Subset trees and the three-phase protocol *)

let rejects f = try ignore (f ()); false with Invalid_argument _ -> true

let test_tree_reroot () =
  let t = Tree.of_undirected ~n_ranks:8 ~root:2 [ (2, 5); (5, 7) ] in
  Alcotest.(check (list int)) "members" [ 2; 5; 7 ] (Tree.members t);
  Alcotest.(check bool) "subset does not span" false (Tree.spans t);
  Alcotest.(check int) "off-tree parent" (-1) t.Tree.parent.(0);
  Alcotest.(check int) "off-tree depth" (-1) t.Tree.depth.(0);
  Alcotest.(check (list int)) "bfs order" [ 2; 5; 7 ] t.Tree.order;
  let r = Tree.reroot t ~root:7 in
  Alcotest.(check int) "new root" 7 r.Tree.root;
  Alcotest.(check (list int)) "same members" (Tree.members t) (Tree.members r);
  Alcotest.(check (list int)) "re-oriented" [ 7; 5; 2 ] r.Tree.order;
  Alcotest.(check (list int)) "single rank" [ 4 ]
    (Tree.members (Tree.of_undirected ~n_ranks:8 ~root:4 []));
  Alcotest.(check bool) "bad edges rejected" true
    (rejects (fun () -> Tree.of_undirected ~n_ranks:2 ~root:0 [ (0, 1); (1, 0) ]));
  Alcotest.(check bool) "root off the edges rejected" true
    (rejects (fun () -> Tree.of_undirected ~n_ranks:4 ~root:0 [ (1, 2) ]));
  Alcotest.(check bool) "non-member root rejected" true
    (rejects (fun () -> Tree.reroot t ~root:0))

(* A random tree over a random subset of [n] ranks (every rank when the
   subset is full), built by attaching each member to an earlier one. *)
let random_tree rng =
  let n = 1 + Random.State.int rng 12 in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let m = 1 + Random.State.int rng n in
  let edges =
    List.init (m - 1) (fun i ->
        let child = perm.(i + 1) and parent = perm.(Random.State.int rng (i + 1)) in
        if Random.State.bool rng then (parent, child) else (child, parent))
  in
  Tree.of_undirected ~n_ranks:n ~root:perm.(Random.State.int rng m) edges

let undirected_edges (t : Tree.t) =
  List.filter_map
    (fun v -> if v = t.Tree.root then None else Some (min v t.Tree.parent.(v), max v t.Tree.parent.(v)))
    t.Tree.order
  |> List.sort compare

let prop_reroot =
  QCheck.Test.make ~name:"reroot keeps edges, round-trips" ~count:300
    QCheck.(pair (int_bound 100_000) (int_bound 1_000))
    (fun (seed, pick) ->
      let t = random_tree (Random.State.make [| seed |]) in
      let members = Tree.members t in
      let root = List.nth members (pick mod List.length members) in
      let r = Tree.reroot t ~root in
      r.Tree.root = root
      && Tree.members r = members
      && Tree.spans r = Tree.spans t
      && undirected_edges r = undirected_edges t
      && (Tree.reroot r ~root:t.Tree.root).Tree.parent = t.Tree.parent)

let test_threephase_semantics () =
  let servers = [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ] in
  let ms = Blink_core.Multiserver.create servers in
  let elems = 3_000 in
  let prog, layout = Blink_core.Multiserver.all_reduce ~chunk_elems:256 ms ~elems in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 8 elems;
  Sem.run prog mem;
  let want = expected_sum 8 elems in
  for r = 0 to 7 do
    Alcotest.(check bool) (Printf.sprintf "rank %d" r) true
      (array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
  done

let test_threephase_three_servers () =
  let servers =
    [ (Server.dgx1v, [| 0; 1 |]); (Server.dgx1v, [| 4; 5 |]); (Server.dgx1v, [| 2; 3; 6; 7 |]) ]
  in
  let ms = Blink_core.Multiserver.create servers in
  let elems = 1_024 in
  let prog, layout = Blink_core.Multiserver.all_reduce ~chunk_elems:100 ms ~elems in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 8 elems;
  Sem.run prog mem;
  let want = expected_sum 8 elems in
  for r = 0 to 7 do
    Alcotest.(check bool) (Printf.sprintf "rank %d" r) true
      (array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
  done

(* ------------------------------------------------------------------ *)
(* Program pins: op count, makespan (printed [%h]) and the MD5 of every
   op printed in full, for the programs the three-phase emitter and the
   re-rooted reduce-scatter build. A change to tree orientation, op
   order, streams or dependencies fails here. *)

let op_line (o : P.op) =
  let mref (m : P.mem_ref) = Printf.sprintf "%d:%d[%d+%d]" m.node m.buf m.off m.len in
  let action = function
    | None -> "-"
    | Some (P.Copy { src; dst }) -> "copy " ^ mref src ^ ">" ^ mref dst
    | Some (P.Reduce { src; dst }) -> "reduce " ^ mref src ^ ">" ^ mref dst
  in
  let kind =
    match o.P.kind with
    | P.Transfer { bytes; link; bw_scale; action = a } ->
        Printf.sprintf "xfer %h l%d %h %s" bytes link bw_scale (action a)
    | P.Compute { bytes; engine; action = a } ->
        Printf.sprintf "compute %h e%d %s" bytes engine (action a)
    | P.Delay { seconds } -> Printf.sprintf "delay %h" seconds
  in
  Printf.sprintf "%d %s s%d [%s]\n" o.P.id kind o.P.stream
    (String.concat "," (List.map string_of_int o.P.deps))

let program_pin prog makespan =
  let b = Buffer.create 4096 in
  List.iter (fun op -> Buffer.add_string b (op_line op)) (P.ops prog);
  ( P.n_ops prog,
    Printf.sprintf "%h" makespan,
    Digest.to_hex (Digest.string (Buffer.contents b)) )

let three_plus_five = [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ]

let pinned_programs =
  let module MS = Blink_core.Multiserver in
  let module H = Blink_baselines.Hierarchical in
  let module B = Blink_core.Blink in
  let multiserver ?avoid_roots () =
    let ms = MS.create three_plus_five in
    let prog, _ = MS.all_reduce ?avoid_roots ~chunk_elems:256 ms ~elems:3_000 in
    program_pin prog (MS.time ms prog).E.makespan
  in
  let reduce_scatter server gpus =
    let h = B.create server ~gpus in
    let prog, _ = B.reduce_scatter ~chunk_elems:512 h ~elems:16_000 in
    program_pin prog (B.time h prog).E.makespan
  in
  [
    ( "multiserver 3+5",
      (fun () -> multiserver ()),
      (240, "0x1.a9194f636936ap-12", "95f008611b68dceeac577125b95adbea") );
    ( "multiserver 3+5 avoid_roots",
      (fun () -> multiserver ~avoid_roots:[ 0; 3 ] ()),
      (240, "0x1.af761e820b98dp-12", "9e52420e4b98d3dcb18e7312bd58e1ed") );
    ( "hierarchical 3+5",
      (fun () ->
        let hi = H.create three_plus_five in
        let prog, _ = H.all_reduce ~chunk_elems:256 hi ~elems:3_000 in
        program_pin prog (H.time hi prog).E.makespan),
      (492, "0x1.7de969ef38483p-11", "93181dd81f9a6b307bf6f32d5daa051f") );
    ( "reduce_scatter dgx-2-16",
      (fun () -> reduce_scatter Server.dgx2 (Array.init 16 Fun.id)),
      (960, "0x1.72cb3816a63f4p-15", "813872aa459ab1abd73a73442c532825") );
    ( "reduce_scatter dgx-1v-8",
      (fun () -> reduce_scatter Server.dgx1v (Array.init 8 Fun.id)),
      (336, "0x1.494d19de1071fp-14", "9f43d7ce4d645f0ae00ec9cc0223abb7") );
  ]

(* Micro.mimo reduces two flows over trees covering a subset of its
   fabric; its rate is pinned the same way. *)
let test_program_pins () =
  Alcotest.(check string) "mimo rate" "0x1.e3266a4576266p+1"
    (Printf.sprintf "%h" (Micro.mimo ~chunk_elems:4096 1.));
  List.iter
    (fun (label, build, (ops, makespan, digest)) ->
      let ops', makespan', digest' = build () in
      Alcotest.(check int) (label ^ ": ops") ops ops';
      Alcotest.(check string) (label ^ ": makespan") makespan makespan';
      Alcotest.(check string) (label ^ ": op digest") digest digest')
    pinned_programs

(* ------------------------------------------------------------------ *)
(* Calibration: the simulator must land on the paper's micro-benchmarks *)

let in_range name lo hi x =
  Alcotest.(check bool) (Printf.sprintf "%s = %.2f in [%.1f, %.1f]" name x lo hi)
    true (x >= lo && x <= hi)

let test_micro_calibration () =
  (* paper section 2.2 / appendix A.1, 1000 MB points *)
  in_range "chain-8 forward" 20. 22.5 (Micro.chain_forward ~n_gpus:8 1000.);
  in_range "chain-8 reduce+forward" 17. 19.5 (Micro.chain_reduce_forward ~n_gpus:8 1000.);
  in_range "chain-8 reduce-broadcast" 15.5 19. (Micro.chain_reduce_broadcast ~n_gpus:8 1000.);
  in_range "mimo" 17. 19. (Micro.mimo 100.);
  in_range "mca" 17. 19. (Micro.mca 100.);
  in_range "fan-in forward" 20. 22.5 (Micro.fan_in_forward ~degree:3 100.);
  in_range "fan-in reduce" 17. 19. (Micro.fan_in_reduce ~degree:3 100.);
  in_range "fan-out forward" 20. 22.5 (Micro.fan_out_forward ~degree:3 100.)

let test_micro_small_sizes_degrade () =
  let small = Micro.chain_forward ~n_gpus:8 10. in
  let large = Micro.chain_forward ~n_gpus:8 1000. in
  Alcotest.(check bool) "small sizes slower" true (small < large *. 0.8)

let test_stream_reuse_helps () =
  let h = dgx1v_handle [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
  let elems = 25_000_000 in
  let on, _ = Blink_core.Blink.all_reduce ~chunk_elems:1_048_576 ~stream_reuse:true h ~elems in
  let off, _ = Blink_core.Blink.all_reduce ~chunk_elems:1_048_576 ~stream_reuse:false h ~elems in
  let t_on = (Blink_core.Blink.time h on).E.makespan in
  let t_off = (Blink_core.Blink.time h off).E.makespan in
  Alcotest.(check bool)
    (Printf.sprintf "stream management faster (%.2fms <= %.2fms)" (t_on *. 1e3) (t_off *. 1e3))
    true (t_on <= t_off +. 1e-9)

let test_timing_deterministic () =
  let h = dgx1v_handle [| 1; 4; 5; 6 |] in
  let prog, _ = Blink_core.Blink.all_reduce ~chunk_elems:65_536 h ~elems:1_000_000 in
  let a = (Blink_core.Blink.time h prog).E.makespan in
  let b = (Blink_core.Blink.time h prog).E.makespan in
  Alcotest.(check (float 0.)) "identical runs" a b

let () =
  Alcotest.run "collectives"
    [
      ( "tree",
        [
          Alcotest.test_case "of_edges" `Quick test_tree_of_edges;
          Alcotest.test_case "validation" `Quick test_tree_validation;
          Alcotest.test_case "normalize shares" `Quick test_normalize_shares;
        ] );
      ( "chunking",
        [
          Alcotest.test_case "split chunks" `Quick test_split_chunks;
          QCheck_alcotest.to_alcotest prop_regions_partition;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "broadcast" `Quick test_broadcast_semantics;
          Alcotest.test_case "reduce" `Quick test_reduce_semantics;
          Alcotest.test_case "all_reduce" `Quick test_all_reduce_semantics;
          Alcotest.test_case "all_reduce one-hop roots" `Quick test_all_reduce_one_hop_roots;
          Alcotest.test_case "gather" `Quick test_gather_semantics;
          Alcotest.test_case "all_gather" `Quick test_all_gather_semantics;
          Alcotest.test_case "validation" `Quick test_check_trees_validation;
          QCheck_alcotest.to_alcotest prop_all_reduce_random_allocations;
        ] );
      ( "subtree/threephase",
        [
          Alcotest.test_case "reroot" `Quick test_tree_reroot;
          QCheck_alcotest.to_alcotest prop_reroot;
          Alcotest.test_case "three-phase 3+5" `Quick test_threephase_semantics;
          Alcotest.test_case "three-phase 2+2+4" `Quick test_threephase_three_servers;
          Alcotest.test_case "program pins" `Quick test_program_pins;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "paper micro-benchmarks" `Quick test_micro_calibration;
          Alcotest.test_case "small sizes degrade" `Quick test_micro_small_sizes_degrade;
          Alcotest.test_case "stream management helps" `Quick test_stream_reuse_helps;
          Alcotest.test_case "deterministic" `Quick test_timing_deterministic;
        ] );
    ]
