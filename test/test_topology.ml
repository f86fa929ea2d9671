module Link = Blink_topology.Link
module Server = Blink_topology.Server
module Alloc = Blink_topology.Alloc
module Fabric = Blink_topology.Fabric
module D = Blink_graph.Digraph

(* ------------------------------------------------------------------ *)
(* Link *)

let test_link_tags () =
  List.iter
    (fun k -> Alcotest.(check bool) "roundtrip" true (Link.of_tag (Link.tag k) = k))
    [ Link.Nvlink_gen1; Link.Nvlink_gen2; Link.Pcie; Link.Qpi; Link.Nic ];
  Alcotest.check_raises "bad tag" (Invalid_argument "Link.of_tag: 99") (fun () ->
      ignore (Link.of_tag 99))

let test_link_constants () =
  Alcotest.(check bool) "gen2 faster than gen1" true
    (Link.bandwidth Link.Nvlink_gen2 > Link.bandwidth Link.Nvlink_gen1);
  Alcotest.(check bool) "nvlink beats pcie" true
    (Link.bandwidth Link.Nvlink_gen1 > Link.bandwidth Link.Pcie);
  Alcotest.(check bool) "reduce penalty sane" true
    (Link.reduce_scale > 0.5 && Link.reduce_scale < 1.)

(* ------------------------------------------------------------------ *)
(* Server *)

let test_dgx1p_wiring () =
  let s = Server.dgx1p in
  Alcotest.(check int) "16 links" 16 (List.length s.Server.nvlinks);
  (* every GPU has exactly 4 NVLink ports in use *)
  for g = 0 to 7 do
    let degree =
      List.fold_left
        (fun acc h -> acc + Server.pair_capacity s g h)
        0
        (List.filter (fun h -> h <> g) (List.init 8 Fun.id))
    in
    Alcotest.(check int) (Printf.sprintf "gpu %d degree" g) 4 degree
  done;
  Alcotest.(check int) "quad pair" 1 (Server.pair_capacity s 0 1);
  Alcotest.(check int) "cross pair" 1 (Server.pair_capacity s 2 6);
  Alcotest.(check int) "absent" 0 (Server.pair_capacity s 0 5)

let test_dgx1v_wiring () =
  let s = Server.dgx1v in
  Alcotest.(check int) "24 links" 24 (List.length s.Server.nvlinks);
  for g = 0 to 7 do
    let degree =
      List.fold_left
        (fun acc h -> acc + Server.pair_capacity s g h)
        0
        (List.filter (fun h -> h <> g) (List.init 8 Fun.id))
    in
    Alcotest.(check int) (Printf.sprintf "gpu %d has 6 ports" g) 6 degree
  done;
  (* V100 keeps every P100 pair *)
  List.iter
    (fun (u, v, _) ->
      Alcotest.(check bool) "pair kept" true (Server.pair_capacity s u v >= 1))
    Server.dgx1p.Server.nvlinks;
  Alcotest.(check int) "doubled pair" 2 (Server.pair_capacity s 0 3);
  Alcotest.(check int) "single pair" 1 (Server.pair_capacity s 0 1)

let test_nvlink_digraph () =
  let g = Server.nvlink_digraph Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  Alcotest.(check int) "vertices" 4 (D.n_vertices g);
  (* links among {1,4,5,6}: (4,5)x1, (4,6)x1, (5,6)x2, (1,5)x2 = 6 links,
     12 directed edges *)
  Alcotest.(check int) "directed edges" 12 (D.n_edges g);
  Alcotest.check_raises "duplicate gpus"
    (Invalid_argument "Server: duplicate gpu in allocation") (fun () ->
      ignore (Server.nvlink_digraph Server.dgx1v ~gpus:[| 1; 1 |]))

let test_dgx2_digraph () =
  let g = Server.nvlink_digraph Server.dgx2 ~gpus:(Array.init 16 Fun.id) in
  Alcotest.(check int) "complete digraph" (16 * 15) (D.n_edges g);
  (* per-vertex egress sums to the 6-link attach bandwidth *)
  let out = List.fold_left (fun acc e -> acc +. e.D.cap) 0. (D.out_edges g 0) in
  Alcotest.(check (float 1e-6)) "attach bandwidth"
    (6. *. Link.bandwidth Link.Nvlink_gen2)
    out

let test_pcie_structure () =
  let s = Server.dgx1v in
  Alcotest.(check int) "gpu0 switch" 0 (Server.switch_of_gpu s 0);
  Alcotest.(check int) "gpu5 switch" 2 (Server.switch_of_gpu s 5);
  Alcotest.(check int) "switch0 cpu" 0 (Server.cpu_of_switch s 0);
  Alcotest.(check int) "switch3 cpu" 1 (Server.cpu_of_switch s 3)

(* ------------------------------------------------------------------ *)
(* Alloc: the paper's topology-uniqueness counts *)

let test_unique_configs_dgx1v () =
  Alcotest.(check int) "46 unique DGX-1V configs (paper 5.2)" 46
    (List.length (Alloc.unique_configs Server.dgx1v ~sizes:[ 3; 4; 5; 6; 7; 8 ]))

let test_unique_configs_dgx1p () =
  Alcotest.(check int) "14 unique DGX-1P configs (paper 5.2)" 14
    (List.length (Alloc.unique_configs Server.dgx1p ~sizes:[ 3; 4; 5; 6; 7; 8 ]))

let test_quads_isomorphic () =
  let key = Alloc.canonical_key Server.dgx1p in
  Alcotest.(check string) "two quads same bin" (key [ 0; 1; 2; 3 ]) (key [ 4; 5; 6; 7 ]);
  Alcotest.(check bool) "quad vs cross differ" true
    (key [ 0; 1; 2; 3 ] <> key [ 0; 1; 4; 5 ])

let test_connectivity () =
  Alcotest.(check bool) "quad connected" true
    (Alloc.nvlink_connected Server.dgx1v [ 0; 1; 2; 3 ]);
  (* 0-5: no link; 0-6: no link; 5-6 linked -> 0 isolated *)
  Alcotest.(check bool) "fragmented disconnected" false
    (Alloc.nvlink_connected Server.dgx1v [ 0; 5; 6 ])

let test_class_sizes_partition () =
  (* class sizes of size-3 connected classes sum to the number of connected
     size-3 subsets *)
  let server = Server.dgx1v in
  let reps =
    List.filter (fun s -> List.length s = 3) (Alloc.unique_configs server ~sizes:[ 3 ])
  in
  let covered = List.fold_left (fun acc rep -> acc + Alloc.class_size server rep) 0 reps in
  let connected =
    List.length
      (List.filter (Alloc.nvlink_connected server)
         (Blink_graph.Automorphism.subsets ~n:8 ~size:3))
  in
  Alcotest.(check int) "classes partition connected subsets" connected covered

let test_automorphism_counts () =
  Alcotest.(check int) "dgx1p group order" 48
    (List.length (Alloc.automorphisms Server.dgx1p));
  Alcotest.(check int) "dgx1v group order" 4
    (List.length (Alloc.automorphisms Server.dgx1v))

(* ------------------------------------------------------------------ *)
(* Fabric *)

let test_fabric_single_server () =
  let f = Fabric.of_server Server.dgx1v ~gpus:[| 0; 3; 4 |] in
  Alcotest.(check int) "ranks" 3 (Fabric.n_ranks f);
  Alcotest.(check int) "gpu of rank 1" 3 (Fabric.gpu_of_rank f 1);
  (* 0-3 doubled, 0-4 doubled, 3-4 absent *)
  Alcotest.(check bool) "direct 0-3" true (Fabric.nv_direct f ~src:0 ~dst:1 <> None);
  Alcotest.(check bool) "no direct 3-4" true (Fabric.nv_direct f ~src:1 ~dst:2 = None);
  (match Fabric.nv_direct f ~src:0 ~dst:1 with
  | Some res ->
      Alcotest.(check int) "doubled pair lanes" 2
        (Fabric.resources f).(res).Blink_sim.Engine.lanes
  | None -> Alcotest.fail "direct link expected");
  (* PCIe route same switch (0,1 on switch0? gpus 0 and 3: switch 0 and 1,
     same CPU): gpu -> sw -> cpu -> sw -> gpu = 4 hops *)
  (match Fabric.route f ~cls:Fabric.Pcie ~src:0 ~dst:1 with
  | Some hops -> Alcotest.(check int) "same-cpu pcie hops" 4 (List.length hops)
  | None -> Alcotest.fail "pcie route expected");
  (* cross-cpu: gpu0 (cpu0) to gpu4 (cpu1): + qpi = 5 hops *)
  (match Fabric.route f ~cls:Fabric.Pcie ~src:0 ~dst:2 with
  | Some hops -> Alcotest.(check int) "cross-cpu pcie hops" 5 (List.length hops)
  | None -> Alcotest.fail "pcie route expected");
  Alcotest.(check bool) "no net class on single server" true
    (Fabric.route f ~cls:Fabric.Net ~src:0 ~dst:1 = None)

let test_fabric_same_switch_route () =
  let f = Fabric.of_server Server.dgx1v ~gpus:[| 0; 1 |] in
  match Fabric.route f ~cls:Fabric.Pcie ~src:0 ~dst:1 with
  | Some hops -> Alcotest.(check int) "same-switch hops" 2 (List.length hops)
  | None -> Alcotest.fail "route expected"

let test_fabric_nvswitch () =
  let f = Fabric.of_server Server.dgx2 ~gpus:(Array.init 16 Fun.id) in
  Alcotest.(check bool) "no direct links" true (Fabric.nv_direct f ~src:0 ~dst:1 = None);
  match Fabric.route f ~cls:Fabric.Nv ~src:0 ~dst:15 with
  | Some hops ->
      Alcotest.(check int) "via switch" 2 (List.length hops);
      let res, _ = List.hd hops in
      Alcotest.(check int) "6 lanes" 6 (Fabric.resources f).(res).Blink_sim.Engine.lanes
  | None -> Alcotest.fail "switch route expected"

let test_fabric_cluster () =
  let f =
    Fabric.of_cluster ~net_bw:5.
      [ Server.dgx1v; Server.dgx1v ]
      ~allocs:[ [| 0; 1; 2 |]; [| 0; 1; 2; 3; 4 |] ]
  in
  Alcotest.(check int) "ranks" 8 (Fabric.n_ranks f);
  Alcotest.(check int) "servers" 2 (Fabric.n_servers f);
  Alcotest.(check (list int)) "server 1 ranks" [ 3; 4; 5; 6; 7 ] (Fabric.ranks_of_server f 1);
  (* cross-server: gpu -> nic -> netswitch -> nic -> gpu *)
  (match Fabric.route f ~cls:Fabric.Net ~src:0 ~dst:5 with
  | Some hops ->
      Alcotest.(check int) "net hops" 4 (List.length hops);
      Alcotest.(check (float 1e-6)) "bottleneck is the NIC" 5e9
        (Fabric.route_bandwidth f hops)
  | None -> Alcotest.fail "net route expected");
  Alcotest.(check bool) "no cross-server nvlink" true
    (Fabric.route f ~cls:Fabric.Nv ~src:0 ~dst:5 = None)

let test_fabric_pcie_bandwidth () =
  let f = Fabric.of_server Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
  let bw = Fabric.pcie_bandwidth f ~ranks:(List.init 8 Fun.id) in
  (* chain 0..7 crosses the QPI at 9 GB/s *)
  Alcotest.(check (float 1e-3)) "chain bottleneck" 9e9 bw

let test_fabric_engines () =
  let f = Fabric.of_server Server.dgx1v ~gpus:[| 0; 1 |] in
  let e0 = Fabric.engine f ~rank:0 and e1 = Fabric.engine f ~rank:1 in
  Alcotest.(check bool) "distinct engines" true (e0 <> e1);
  Alcotest.(check bool) "valid resource ids" true
    (e0 < Array.length (Fabric.resources f) && e1 < Array.length (Fabric.resources f))


(* ------------------------------------------------------------------ *)
(* Probe: nvidia-smi topo -m parsing *)

let dgx1v_matrix =
  "        GPU0  GPU1  GPU2  GPU3  GPU4  GPU5  GPU6  GPU7  CPU Affinity\n\
   GPU0     X    NV1   NV1   NV2   NV2   SYS   SYS   SYS   0-19\n\
   GPU1    NV1    X    NV2   NV1   SYS   NV2   SYS   SYS   0-19\n\
   GPU2    NV1   NV2    X    NV2   SYS   SYS   NV1   SYS   0-19\n\
   GPU3    NV2   NV1   NV2    X    SYS   SYS   SYS   NV1   0-19\n\
   GPU4    NV2   SYS   SYS   SYS    X    NV1   NV1   NV2   20-39\n\
   GPU5    SYS   NV2   SYS   SYS   NV1    X    NV2   NV1   20-39\n\
   GPU6    SYS   SYS   NV1   SYS   NV1   NV2    X    NV2   20-39\n\
   GPU7    SYS   SYS   SYS   NV1   NV2   NV1   NV2    X    20-39\n"

let test_probe_matches_builtin_dgx1v () =
  let probed = Blink_topology.Probe.parse_exn ~name:"aws-p3" dgx1v_matrix in
  Alcotest.(check int) "8 gpus" 8 probed.Server.n_gpus;
  for u = 0 to 7 do
    for v = 0 to 7 do
      if u <> v then
        Alcotest.(check int)
          (Printf.sprintf "pair %d-%d" u v)
          (Server.pair_capacity Server.dgx1v u v)
          (Server.pair_capacity probed u v)
    done
  done;
  (* and the whole pipeline agrees: same planned rate *)
  let gpus = [| 1; 4; 5; 6 |] in
  let g_ref = Server.nvlink_digraph Server.dgx1v ~gpus in
  let g_probed = Server.nvlink_digraph probed ~gpus in
  let rate g = (Blink_core.Treegen.plan g ~root:0 ~undirected:false).rate in
  Alcotest.(check (float 1e-6)) "same planned rate" (rate g_ref) (rate g_probed)

let test_probe_errors () =
  let bad s =
    match Blink_topology.Probe.parse s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "asymmetric" true
    (bad "GPU0 X NV1\nGPU1 NV2 X\n");
  Alcotest.(check bool) "unknown token" true
    (bad "GPU0 X WAT\nGPU1 WAT X\n");
  Alcotest.(check bool) "short row" true (bad "GPU0 X\nGPU1 NV1 X\n")

let test_probe_small () =
  let s =
    Blink_topology.Probe.parse_exn ~nvlink:Link.Nvlink_gen1
      "GPU0 X NV2\nGPU1 NV2 X\n"
  in
  Alcotest.(check int) "two links" 2 (Server.pair_capacity s 0 1);
  match Server.pair_links s 0 1 with
  | Some (kind, 2) -> Alcotest.(check bool) "gen1" true (kind = Link.Nvlink_gen1)
  | _ -> Alcotest.fail "expected doubled gen1 pair"

let prop_probe_roundtrip =
  QCheck.Test.make ~name:"probe roundtrips random topologies" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 17 |] in
      let n = 2 + Random.State.int rng 6 in
      let caps = Array.make_matrix n n 0 in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let c = Random.State.int rng 3 in
          caps.(u).(v) <- c;
          caps.(v).(u) <- c
        done
      done;
      (* synthesize an nvidia-smi-style matrix and parse it back *)
      let buf = Buffer.create 256 in
      Buffer.add_string buf "     ";
      for v = 0 to n - 1 do
        Buffer.add_string buf (Printf.sprintf " GPU%d" v)
      done;
      Buffer.add_char buf '\n';
      for u = 0 to n - 1 do
        Buffer.add_string buf (Printf.sprintf "GPU%d " u);
        for v = 0 to n - 1 do
          Buffer.add_string buf
            (if u = v then " X"
             else if caps.(u).(v) = 0 then " SYS"
             else Printf.sprintf " NV%d" caps.(u).(v))
        done;
        Buffer.add_char buf '\n'
      done;
      match Blink_topology.Probe.parse (Buffer.contents buf) with
      | Error _ -> false
      | Ok server ->
          let ok = ref (server.Server.n_gpus = n) in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              if u <> v && Server.pair_capacity server u v <> caps.(u).(v) then
                ok := false
            done
          done;
          !ok)

let () =
  Alcotest.run "topology"
    [
      ( "link",
        [
          Alcotest.test_case "tags" `Quick test_link_tags;
          Alcotest.test_case "constants" `Quick test_link_constants;
        ] );
      ( "server",
        [
          Alcotest.test_case "dgx-1p wiring" `Quick test_dgx1p_wiring;
          Alcotest.test_case "dgx-1v wiring" `Quick test_dgx1v_wiring;
          Alcotest.test_case "nvlink digraph" `Quick test_nvlink_digraph;
          Alcotest.test_case "dgx-2 digraph" `Quick test_dgx2_digraph;
          Alcotest.test_case "pcie structure" `Quick test_pcie_structure;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "46 DGX-1V configs" `Quick test_unique_configs_dgx1v;
          Alcotest.test_case "14 DGX-1P configs" `Quick test_unique_configs_dgx1p;
          Alcotest.test_case "quads isomorphic" `Quick test_quads_isomorphic;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "class sizes partition" `Quick test_class_sizes_partition;
          Alcotest.test_case "automorphism counts" `Quick test_automorphism_counts;
        ] );
      ( "probe",
        [
          Alcotest.test_case "dgx-1v matrix" `Quick test_probe_matches_builtin_dgx1v;
          Alcotest.test_case "errors" `Quick test_probe_errors;
          Alcotest.test_case "small custom" `Quick test_probe_small;
          QCheck_alcotest.to_alcotest prop_probe_roundtrip;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "single server" `Quick test_fabric_single_server;
          Alcotest.test_case "same-switch route" `Quick test_fabric_same_switch_route;
          Alcotest.test_case "nvswitch" `Quick test_fabric_nvswitch;
          Alcotest.test_case "cluster" `Quick test_fabric_cluster;
          Alcotest.test_case "pcie bandwidth" `Quick test_fabric_pcie_bandwidth;
          Alcotest.test_case "engines" `Quick test_fabric_engines;
        ] );
    ]
