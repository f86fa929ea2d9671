module D = Blink_graph.Digraph
module Server = Blink_topology.Server
module Link = Blink_topology.Link
module Treegen = Blink_core.Treegen
module Blink = Blink_core.Blink
module Chunking = Blink_core.Chunking
module Hybrid = Blink_core.Hybrid
module Multiserver = Blink_core.Multiserver
module E = Blink_sim.Engine

let check_float = Alcotest.(check (float 1e-6))
let gen2 = Link.bandwidth Link.Nvlink_gen2
let gen1 = Link.bandwidth Link.Nvlink_gen1

let dgx1v_graph gpus = Server.nvlink_digraph Server.dgx1v ~gpus
let full8 = Array.init 8 Fun.id

(* ------------------------------------------------------------------ *)
(* Treegen: the paper's headline planning numbers *)

let test_dgx1v_directed_packing () =
  (* Paper section 3.2: the optimal DGX-1V packing is 6 unit-rate trees. *)
  let g = dgx1v_graph full8 in
  let p = Treegen.plan g ~root:0 ~undirected:false in
  Alcotest.(check int) "6 trees" 6 (List.length p.Treegen.trees);
  check_float "rate = 6 units" (6. *. gen2) p.Treegen.rate;
  check_float "optimal = 6 units" (6. *. gen2) p.Treegen.optimal;
  Alcotest.(check bool) "feasible" true (Treegen.feasible g p);
  List.iter
    (fun t -> check_float "unit weight" gen2 t.Treegen.weight)
    p.Treegen.trees

let test_dgx1p_directed_packing () =
  let g = Server.nvlink_digraph Server.dgx1p ~gpus:full8 in
  let p = Treegen.plan g ~root:0 ~undirected:false in
  Alcotest.(check int) "4 trees" 4 (List.length p.Treegen.trees);
  check_float "rate = 4 units" (4. *. gen1) p.Treegen.rate;
  Alcotest.(check bool) "feasible" true (Treegen.feasible g p)

let test_mwu_within_guarantee () =
  let g = dgx1v_graph full8 in
  let epsilon = 0.1 in
  let p = Treegen.pack ~epsilon g ~root:0 ~undirected:false in
  Alcotest.(check bool) "rate within (1-2eps) of optimal" true
    (p.Treegen.rate >= (1. -. (2. *. epsilon)) *. p.Treegen.optimal);
  Alcotest.(check bool) "never exceeds optimal" true
    (p.Treegen.rate <= p.Treegen.optimal +. 1e-6);
  Alcotest.(check bool) "feasible" true (Treegen.feasible g p)

let test_ilp_reduces_tree_count () =
  let g = dgx1v_graph full8 in
  let raw = Treegen.pack ~epsilon:0.05 g ~root:0 ~undirected:false in
  let mini = Treegen.minimize g raw in
  Alcotest.(check bool) "fewer or equal trees" true
    (List.length mini.Treegen.trees <= List.length raw.Treegen.trees);
  Alcotest.(check bool) "keeps 95% of rate" true
    (mini.Treegen.rate >= 0.95 *. raw.Treegen.optimal);
  Alcotest.(check bool) "feasible" true (Treegen.feasible g mini)

let test_undirected_packing_dgx1v () =
  (* 24 duplex links / 7 tree edges = 24/7 units fractional optimum. *)
  let g = dgx1v_graph full8 in
  let p = Treegen.plan g ~root:0 ~undirected:true in
  Alcotest.(check bool) "undirected flag" true p.Treegen.undirected;
  check_float "optimal = 24/7 units" (24. /. 7. *. gen2) p.Treegen.optimal;
  Alcotest.(check bool) "within 5% of optimal" true
    (p.Treegen.rate >= 0.95 *. p.Treegen.optimal);
  Alcotest.(check bool) "feasible under link capacities" true (Treegen.feasible g p)

let test_partial_allocation_packing () =
  (* Figure 1/2's fragmented allocation 1,4,5,6. *)
  let g = dgx1v_graph [| 1; 4; 5; 6 |] in
  let p = Treegen.plan g ~root:0 ~undirected:false in
  check_float "2 units" (2. *. gen2) p.Treegen.rate;
  Alcotest.(check bool) "feasible" true (Treegen.feasible g p)

let test_disconnected_packing () =
  (* 0,5,6: gpu 0 has no NVLink to 5 or 6 *)
  let g = dgx1v_graph [| 0; 5; 6 |] in
  let p = Treegen.pack g ~root:0 ~undirected:false in
  Alcotest.(check (list int)) "no trees" []
    (List.map (fun t -> List.length t.Treegen.edges) p.Treegen.trees);
  check_float "zero rate" 0. p.Treegen.rate

let test_best_root () =
  (* asymmetric graph: only vertex 0 reaches everything *)
  let g = D.create ~n:3 in
  ignore (D.add_edge g ~src:0 ~dst:1 ~cap:1.);
  ignore (D.add_edge g ~src:1 ~dst:2 ~cap:1.);
  ignore (D.add_edge g ~src:2 ~dst:1 ~cap:1.);
  Alcotest.(check int) "root 0" 0 (Treegen.best_root g)

let prop_packing_sound_on_allocations =
  QCheck.Test.make ~name:"plan feasible and near-optimal on random allocations"
    ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 13 |] in
      (* any subset of size 2..8 whose nvlink graph is connected *)
      let rec pick () =
        let size = 2 + Random.State.int rng 7 in
        let all = Array.init 8 Fun.id in
        for i = 7 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = all.(i) in
          all.(i) <- all.(j);
          all.(j) <- t
        done;
        let gpus = Array.sub all 0 size in
        Array.sort compare gpus;
        if Blink_topology.Alloc.nvlink_connected Server.dgx1v (Array.to_list gpus)
        then gpus
        else pick ()
      in
      let gpus = pick () in
      let g = dgx1v_graph gpus in
      let p = Treegen.plan ~epsilon:0.1 g ~root:0 ~undirected:false in
      Treegen.feasible g p
      && p.Treegen.rate >= 0.8 *. p.Treegen.optimal
      && p.Treegen.rate <= p.Treegen.optimal +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Per-root packings: all_gather and reduce_scatter *)

module Plan = Blink_core.Plan
module Tree = Blink_collectives.Tree
module Codegen = Blink_collectives.Codegen
module Sem = Blink_sim.Semantics
module Telemetry = Blink_telemetry.Telemetry

let per_root_fabrics =
  [
    ("dgx-1v-8", fun () -> Blink.create Server.dgx1v ~gpus:full8);
    ("dgx-1p-8", fun () -> Blink.create Server.dgx1p ~gpus:full8);
    ("1,4,5,6", fun () -> Blink.create Server.dgx1v ~gpus:[| 1; 4; 5; 6 |]);
    ( "2-3 down",
      fun () ->
        Blink.create ~link_faults:[ ((2, 3), Server.Down) ] Server.dgx1v
          ~gpus:full8 );
    ("dgx-2-16", fun () -> Blink.create Server.dgx2 ~gpus:(Array.init 16 Fun.id));
    ("0,1,2", fun () -> Blink.create Server.dgx1v ~gpus:[| 0; 1; 2 |]);
  ]

let root_input r elems =
  Array.init elems (fun i -> Float.of_int (((i * 3) + (r * 7)) mod 11))

(* Both collectives on every fabric: the compiled kernels agree with the
   reference interpreter on every buffer, and the buffers hold what the
   collective promises. *)
let test_per_root_data () =
  let elems = 3_001 in
  List.iter
    (fun (label, make) ->
      let h = make () in
      let k = Blink.n_ranks h in
      List.iter
        (fun collective ->
          let name = label ^ " " ^ Plan.collective_name collective in
          let plan = Blink.plan ~chunk_elems:256 h collective ~elems in
          let prog = plan.Plan.program in
          let data = plan.Plan.layout.Codegen.data in
          let mem = Sem.memory_of_program prog in
          let rmem = Sem.Ref.memory_of_program prog in
          for r = 0 to k - 1 do
            Sem.write mem ~node:r ~buf:data.(r) (root_input r elems);
            Sem.Ref.write rmem ~node:r ~buf:data.(r) (root_input r elems)
          done;
          Sem.run prog mem;
          Sem.Ref.run prog rmem;
          List.iter
            (fun (node, buf, _) ->
              Alcotest.(check (array (float 0.)))
                (Printf.sprintf "%s node=%d buf=%d" name node buf)
                (Sem.Ref.read rmem ~node ~buf)
                (Sem.read mem ~node ~buf))
            (Blink_sim.Program.buffers prog);
          match collective with
          | Plan.All_gather ->
              let out = Option.get plan.Plan.layout.Codegen.output in
              for q = 0 to k - 1 do
                let got = Sem.read mem ~node:q ~buf:out.(q) in
                for r = 0 to k - 1 do
                  Alcotest.(check (array (float 0.)))
                    (Printf.sprintf "%s rank %d segment %d" name q r)
                    (root_input r elems)
                    (Array.sub got (r * elems) elems)
                done
              done
          | _ ->
              let inputs = Array.init k (fun q -> root_input q elems) in
              for r = 0 to k - 1 do
                let lo = r * elems / k and hi = (r + 1) * elems / k in
                let want =
                  Array.init (hi - lo) (fun i ->
                      Array.fold_left (fun acc a -> acc +. a.(lo + i)) 0. inputs)
                in
                Alcotest.(check (array (float 0.)))
                  (Printf.sprintf "%s segment %d" name r)
                  want
                  (Array.sub (Sem.read mem ~node:r ~buf:data.(r)) lo (hi - lo))
              done)
        Plan.[ All_gather; Reduce_scatter ])
    per_root_fabrics

let root_packing_count h source =
  Telemetry.counter_value (Blink.telemetry h)
    ~labels:[ ("source", source) ] "plan.root_packings"

(* Every per-root packing — the handle's own, orbit-mapped or planned —
   is a feasible packing rooted at its rank; its trees' shares sum to
   1. On the DGX-1V the automorphisms leave two root orbits, so one rank
   outside the handle root's orbit is packed and the other six are
   mapped. *)
let test_root_packings_feasible () =
  List.iter
    (fun (label, make) ->
      let h = make () in
      let trees = Blink.root_trees h in
      Array.iteri
        (fun r ts ->
          List.iter
            (fun w ->
              Alcotest.(check int)
                (Printf.sprintf "%s tree root %d" label r)
                r w.Tree.tree.Tree.root)
            ts;
          check_float
            (Printf.sprintf "%s shares of %d" label r)
            1.
            (List.fold_left (fun acc w -> acc +. w.Tree.share) 0. ts))
        trees;
      match Blink.root_packings h with
      | None -> Alcotest.(check bool) (label ^ " one-hop") true (Blink.packing h = None)
      | Some packs ->
          Array.iteri
            (fun r p ->
              Alcotest.(check int)
                (Printf.sprintf "%s root %d" label r)
                r p.Treegen.root;
              Alcotest.(check bool)
                (Printf.sprintf "%s feasible from %d" label r)
                true
                (Treegen.feasible (Blink.graph h) p))
            packs)
    per_root_fabrics;
  let h = Blink.create Server.dgx1v ~gpus:full8 in
  ignore (Blink.root_trees h);
  Alcotest.(check (list int)) "dgx-1v-8 handle/mapped/planned" [ 1; 6; 1 ]
    (List.map (root_packing_count h) [ "handle"; "mapped"; "planned" ])

(* A failed link drops the per-root memo with the other trees: the
   next all_gather/reduce_scatter plans are rebuilt over the degraded
   graph's per-root trees, identical to a fresh handle's on that graph,
   and none of them crosses the dead pair. *)
let test_per_root_after_fail_link () =
  let elems = 65_536 and chunk_elems = 4_096 in
  List.iter
    (fun replan ->
      let h = Blink.create Server.dgx1v ~gpus:full8 in
      let before =
        List.map
          (fun c -> Blink.plan ~chunk_elems h c ~elems)
          Plan.[ All_gather; Reduce_scatter ]
      in
      Blink.fail_link ~replan h ~u:2 ~v:3;
      let fresh =
        Blink.create ~link_faults:[ ((2, 3), Server.Down) ] Server.dgx1v ~gpus:full8
      in
      let flat h = List.concat (Array.to_list (Blink.root_trees h)) in
      (* A warm replan keeps the root's surviving trees, so only the cold
         path is bound to a fresh handle's packings. *)
      if replan = `Cold then
        Alcotest.(check bool) "per-root trees as on a fresh handle" true
          (flat h = flat fresh);
      Array.iter
        (fun p ->
          Alcotest.(check bool) "feasible on the new graph" true
            (Treegen.feasible (Blink.graph h) p))
        (Option.get (Blink.root_packings h));
      List.iter2
        (fun c old ->
          let plan = Blink.plan ~chunk_elems h c ~elems in
          Alcotest.(check bool) "rebuilt" true (plan != old);
          Alcotest.(check bool) "over the new per-root trees" true
            (plan.Plan.trees = flat h);
          List.iter
            (fun w ->
              let p = w.Tree.tree.Tree.parent in
              Alcotest.(check bool) "avoids 2-3" false (p.(2) = 3 || p.(3) = 2))
            plan.Plan.trees)
        Plan.[ All_gather; Reduce_scatter ]
        before)
    [ `Cold; `Warm ]

(* The per-root schedule reaches the all_gather cut bound on the full
   DGX-1V in the bandwidth regime. *)
let test_all_gather_near_bound () =
  let h = Blink.create Server.dgx1v ~gpus:full8 in
  let elems = 33_554_432 in
  let plan = Blink.plan ~chunk_elems:131_072 h Plan.All_gather ~elems in
  let gbps = Blink.algbw_gbps ~elems (Plan.execute ~data:false plan).Plan.timing in
  let bound = Blink.edge_cut_bound h Plan.All_gather in
  if gbps < 0.95 *. bound then
    Alcotest.failf "all_gather %.2f GB/s below 95%% of the %.2f GB/s bound" gbps bound

(* No schedule beats the edge-cut bound on the full DGX-2: the one-hop
   reduce_scatter at 500 MB, where its stars come closest to the
   single-attach cut, and all six collectives at 64 MB. Broadcast and
   reduce relay through every attach, so at 64 MB they reach at least
   half their bound; the root's single star reached 6.5%. *)
let test_dgx2_within_bound () =
  let h = Blink.create Server.dgx2 ~gpus:(Array.init 16 Fun.id) in
  let check collective ~mbytes =
    let elems = Blink_scenario.Scenario.elems_of_mb mbytes in
    let r = Blink_core.Analysis.analyze h collective ~elems in
    if r.achieved_gbps > r.bound_gbps then
      Alcotest.failf "%s at %.0f MB: %.2f GB/s beats its %.2f GB/s bound"
        (Plan.collective_name collective) mbytes r.achieved_gbps r.bound_gbps;
    if (collective = Plan.Broadcast || collective = Plan.Reduce)
       && r.efficiency < 0.5
    then
      Alcotest.failf "%s at %.0f MB: %.2f GB/s, %.1f%% of its bound"
        (Plan.collective_name collective) mbytes r.achieved_gbps
        (100. *. r.efficiency)
  in
  check Plan.Reduce_scatter ~mbytes:500.;
  List.iter
    (fun c -> check c ~mbytes:64.)
    Plan.[ All_reduce; Broadcast; Reduce; Gather; All_gather; Reduce_scatter ]

(* ------------------------------------------------------------------ *)
(* All-reduce families: packed trees, or per-root reduce-scatter +
   all-gather *)

(* The four fabrics of the topology sweep. *)
let sweep_fabrics = List.filteri (fun i _ -> i < 4) per_root_fabrics

let per_root_all_reduce ?(chunk_elems = 256) h ~elems =
  Codegen.all_reduce
    (Blink.spec ~chunk_elems h)
    ~elems
    ~trees:(List.concat (Array.to_list (Blink.root_trees h)))

(* The per-root all-reduce over every fabric: the compiled kernels agree
   with the reference interpreter on every buffer, every rank ends with
   the sum, and no two ops race on a buffer. *)
let test_per_root_all_reduce_data () =
  let elems = 3_001 in
  List.iter
    (fun (label, make) ->
      let h = make () in
      let k = Blink.n_ranks h in
      let prog, layout = per_root_all_reduce h ~elems in
      let data = layout.Codegen.data in
      let mem = Sem.memory_of_program prog in
      let rmem = Sem.Ref.memory_of_program prog in
      let inputs = Array.init k (fun r -> root_input r elems) in
      for r = 0 to k - 1 do
        Sem.write mem ~node:r ~buf:data.(r) inputs.(r);
        Sem.Ref.write rmem ~node:r ~buf:data.(r) inputs.(r)
      done;
      Sem.run prog mem;
      Sem.Ref.run prog rmem;
      List.iter
        (fun (node, buf, _) ->
          Alcotest.(check (array (float 0.)))
            (Printf.sprintf "%s node=%d buf=%d" label node buf)
            (Sem.Ref.read rmem ~node ~buf)
            (Sem.read mem ~node ~buf))
        (Blink_sim.Program.buffers prog);
      let sum =
        Array.init elems (fun i ->
            Array.fold_left (fun acc a -> acc +. a.(i)) 0. inputs)
      in
      for r = 0 to k - 1 do
        Alcotest.(check (array (float 0.)))
          (Printf.sprintf "%s rank %d holds the sum" label r)
          sum
          (Sem.read mem ~node:r ~buf:data.(r))
      done;
      Alcotest.(check bool) (label ^ " race-free") true
        (Blink_sim.Hazard.is_race_free prog))
    per_root_fabrics

(* [Blink.plan] keeps the faster family: on the sweep's fabrics and
   sizes its plan is never slower than the trees at its chunk, nor than
   the per-root schedule wherever both gates admit it (its cut value
   beats the trees' bound, and every per-root region holds a chunk:
   elems >= chunk * n * directed trees), and it is per-root exactly
   when that schedule is admitted and faster. Per-root wins on the full
   DGX-1V and DGX-1P at 32M elements. *)
let test_all_reduce_keeps_faster () =
  List.iter
    (fun (label, make) ->
      let h = make () in
      let n_trees = List.length (Option.get (Blink.packing h)).Treegen.trees in
      let cut_beats_trees =
        Blink.edge_cut_bound h Plan.All_reduce
        > Link.reduce_scale *. Blink.all_reduce_rate h
      in
      List.iter
        (fun elems ->
          let plan = Blink.plan h Plan.All_reduce ~elems in
          let chunk_elems = plan.Plan.chunk_elems in
          let chosen = Plan.seconds (Plan.execute ~data:false plan) in
          let trees =
            (Blink.time h (fst (Blink.all_reduce ~chunk_elems h ~elems))).E.makespan
          in
          let per_root =
            (Blink.time h (fst (per_root_all_reduce ~chunk_elems h ~elems)))
              .E.makespan
          in
          let admitted =
            cut_beats_trees && elems >= chunk_elems * Blink.n_ranks h * n_trees
          in
          let name = Printf.sprintf "%s at %d" label elems in
          let best = if admitted then Float.min trees per_root else trees in
          if chosen > best then
            Alcotest.failf "%s: plan %.6f s, trees %.6f s, per-root %.6f s" name
              chosen trees per_root;
          Alcotest.(check string) (name ^ " family")
            (if admitted && per_root < trees then "per_root" else "trees")
            (Plan.family_name plan.Plan.family);
          if elems = 33_554_432 && (label = "dgx-1v-8" || label = "dgx-1p-8") then
            Alcotest.(check string) (name ^ " per-root wins") "per_root"
              (Plan.family_name plan.Plan.family))
        [ 262_144; 4_194_304; 33_554_432 ])
    sweep_fabrics

(* Trees, per-root plans and NCCL rings all stay within the all-reduce
   bound at 32M elements, which on the full DGX-1V and DGX-1P is the
   per-root family's cut value. *)
let test_all_reduce_within_bound () =
  let elems = 33_554_432 and chunk_elems = 131_072 in
  List.iter
    (fun (label, make) ->
      let h = make () in
      let bound = Blink.edge_cut_bound h Plan.All_reduce in
      let gbps prog = Blink.algbw_gbps ~elems (Blink.time h prog) in
      let ring =
        Blink_baselines.Ring.all_reduce
          (Blink.spec ~chunk_elems h)
          ~elems
          ~channels:
            (Blink_baselines.Ring.nccl_channels (Blink.server h) ~gpus:(Blink.gpus h))
      in
      List.iter
        (fun (family, prog) ->
          let rate = gbps prog in
          if rate > bound then
            Alcotest.failf "%s %s: %.2f GB/s beats its %.2f GB/s bound" label
              family rate bound)
        [
          ("trees", fst (Blink.all_reduce ~chunk_elems h ~elems));
          ("per-root", fst (per_root_all_reduce ~chunk_elems h ~elems));
          ("ring", fst ring);
        ])
    sweep_fabrics;
  List.iter
    (fun (server, want) ->
      let h = Blink.create server ~gpus:full8 in
      Alcotest.(check (float 0.01))
        (server.Server.name ^ " all_reduce bound")
        want
        (Blink.edge_cut_bound h Plan.All_reduce))
    [ (Server.dgx1v, 67.74); (Server.dgx1p, 40.96) ]

(* Below the size where every per-root region holds a chunk the trees
   are planned alone: no per-root packing is computed. *)
let test_small_all_reduce_skips_root_packings () =
  List.iter
    (fun elems ->
      let h = Blink.create Server.dgx1v ~gpus:full8 in
      let plan = Blink.plan h Plan.All_reduce ~elems in
      Alcotest.(check string) "trees" "trees" (Plan.family_name plan.Plan.family);
      Alcotest.(check (list int))
        (Printf.sprintf "no root packings at %d" elems)
        [ 0; 0; 0 ]
        (List.map (root_packing_count h) [ "handle"; "mapped"; "planned" ]))
    [ 262_144; 1_000_000 ]

(* ------------------------------------------------------------------ *)
(* Blink facade *)

let test_facade_rates () =
  let h = Blink.create Server.dgx1v ~gpus:full8 in
  check_float "broadcast rate" (6. *. gen2) (Blink.rate h);
  Alcotest.(check bool) "allreduce rate near 24/7 units" true
    (Blink.all_reduce_rate h >= 0.95 *. (24. /. 7. *. gen2));
  Alcotest.(check int) "ranks" 8 (Blink.n_ranks h);
  Alcotest.(check bool) "has packing" true (Blink.packing h <> None);
  Alcotest.(check bool) "has undirected packing" true (Blink.undirected_packing h <> None)

let test_facade_dgx2 () =
  let h = Blink.create Server.dgx2 ~gpus:(Array.init 16 Fun.id) in
  Alcotest.(check bool) "no packing on nvswitch" true (Blink.packing h = None);
  check_float "one-hop rate" (6. *. gen2) (Blink.rate h);
  Alcotest.(check int) "16 one-hop trees" 16 (List.length (Blink.all_reduce_trees h));
  let roots =
    List.map (fun t -> t.Blink_collectives.Tree.tree.Blink_collectives.Tree.root)
      (Blink.all_reduce_trees h)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "distinct roots" 16 (List.length roots);
  (* Broadcast and reduce relay: root -> i -> the rest, one tree per
     non-root rank. Gather keeps the root's star. *)
  let relay = Blink.broadcast_trees h in
  Alcotest.(check int) "15 relay trees" 15 (List.length relay);
  List.iter
    (fun w ->
      Alcotest.(check int) "two hops" 2
        (Blink_collectives.Tree.max_depth w.Blink_collectives.Tree.tree);
      check_float "relay share" (1. /. 15.) w.Blink_collectives.Tree.share)
    relay;
  let gather = Blink.plan h Plan.Gather ~elems:4_096 in
  Alcotest.(check int) "gather star" 1 (List.length gather.Plan.trees)

let test_facade_rejects_disconnected () =
  Alcotest.(check bool) "disconnected rejected" true
    (try ignore (Blink.create Server.dgx1v ~gpus:[| 0; 5; 6 |]); false
     with Invalid_argument _ -> true)

(* One GPU has nothing to plan over: [create] says so up front instead of
   failing inside share normalization. *)
let test_facade_rejects_single_gpu () =
  List.iter
    (fun gpus ->
      Alcotest.(check bool)
        (Printf.sprintf "%d gpus rejected" (Array.length gpus))
        true
        (try ignore (Blink.create Server.dgx1v ~gpus); false
         with Invalid_argument msg -> msg = "Blink.create: gpus must name at least 2 GPUs"))
    [ [| 3 |]; [||] ]

let test_facade_beats_pcie_fallback () =
  (* The headline: on 1,4,5,6 Blink uses NVLinks NCCL cannot ring. *)
  let gpus = [| 1; 4; 5; 6 |] in
  let h = Blink.create Server.dgx1v ~gpus in
  let elems = 25_000_000 in
  let bp, _ = Blink.broadcast ~chunk_elems:262_144 h ~elems in
  let blink = Blink.algbw_gbps ~elems (Blink.time h bp) in
  let ch = Blink_baselines.Ring.nccl_channels Server.dgx1v ~gpus in
  Alcotest.(check bool) "nccl falls to pcie" true
    (ch.Blink_baselines.Ring.cls = Blink_topology.Fabric.Pcie);
  let spec =
    Blink_collectives.Codegen.spec ~chunk_elems:262_144 (Blink.fabric h)
  in
  let np, _ = Blink_baselines.Ring.broadcast spec ~root:(Blink.root h) ~elems ~channels:ch in
  let nccl = Blink.algbw_gbps ~elems (Blink.time h np) in
  Alcotest.(check bool)
    (Printf.sprintf "blink %.1f >= 3x nccl %.1f" blink nccl)
    true
    (blink >= 3. *. nccl)

let test_one_hop_trees_shape () =
  let trees = Blink.one_hop_trees ~n_ranks:4 in
  Alcotest.(check int) "4 trees" 4 (List.length trees);
  List.iteri
    (fun i { Blink_collectives.Tree.tree; share } ->
      Alcotest.(check int) "root i" i tree.Blink_collectives.Tree.root;
      Alcotest.(check int) "depth 1" 1 (Blink_collectives.Tree.max_depth tree);
      check_float "equal shares" 0.25 share)
    trees

(* ------------------------------------------------------------------ *)
(* Chunking (MIAD) *)

let test_miad_finds_peak () =
  (* unimodal throughput curve peaking at 2 MiB *)
  let peak = 2. *. 1024. *. 1024. in
  let measure ~chunk_elems =
    let x = Float.of_int chunk_elems in
    1. /. ((x /. peak) +. (peak /. x))
  in
  let r = Chunking.tune ~init:65_536 ~measure () in
  let best = measure ~chunk_elems:r.Chunking.chosen in
  Alcotest.(check bool) "within 15% of peak" true (best >= 0.85 *. 0.5);
  Alcotest.(check bool) "trace non-empty" true (List.length r.Chunking.trace >= 3)

let test_miad_trace_phases () =
  (* monotone-increasing measure: MIAD keeps growing to max_iters *)
  let measure ~chunk_elems = Float.of_int chunk_elems in
  let r = Chunking.tune ~init:1024 ~max_iters:5 ~measure () in
  Alcotest.(check bool) "grew" true (r.Chunking.chosen > 1024);
  let sizes = List.map (fun s -> s.Chunking.chunk_elems) r.Chunking.trace in
  Alcotest.(check bool) "multiplicative phase doubles" true
    (match sizes with a :: b :: _ -> b = 2 * a | _ -> false)

let test_miad_validation () =
  Alcotest.(check bool) "bad init" true
    (try ignore (Chunking.tune ~init:0 ~measure:(fun ~chunk_elems:_ -> 0.) ()); false
     with Invalid_argument _ -> true)

let test_facade_tuner_runs () =
  let h = Blink.create Server.dgx1v ~gpus:[| 2; 3; 6; 7 |] in
  let r = Blink.tune_chunk ~elems:4_000_000 h in
  Alcotest.(check bool) "positive chunk" true (r.Chunking.chosen > 0);
  Alcotest.(check bool) "probed several sizes" true (List.length r.Chunking.trace >= 3)

let test_miad_decrease_has_own_budget () =
  (* Unimodal with a peak just past the up-sweep's reach: the up phase
     exhausts its whole budget, so under the seed accounting (decrease
     seeded with the probe count) back-off would never probe at all. *)
  let peak = 3_500_000. in
  let measure ~chunk_elems =
    let x = Float.of_int chunk_elems in
    1. /. ((x /. peak) +. (peak /. x))
  in
  let max_iters = 5 in
  let r = Chunking.tune ~init:65_536 ~max_iters ~measure () in
  let sizes = List.map (fun s -> s.Chunking.chunk_elems) r.Chunking.trace in
  (* Up phase: init + (max_iters - 1) growth probes, all improving. *)
  let up_probes = List.filteri (fun i _ -> i < max_iters) sizes in
  Alcotest.(check bool) "up phase used its full budget" true
    (List.length sizes > max_iters);
  let last_up = List.nth up_probes (max_iters - 1) in
  Alcotest.(check bool) "decrease probed below the up endpoint" true
    (List.exists (fun c -> c < last_up) (List.filteri (fun i _ -> i >= max_iters) sizes))

(* The decrease floor: whatever the throughput curve, no probe lands
   below [min init (max 1 (init / 2))]. From an odd init the additive
   decrease used to step down to a 1-element chunk. *)
let prop_miad_probe_floor =
  QCheck.Test.make ~name:"probes stay above the floor" ~count:300
    QCheck.(pair (int_range 1 8_000_000) int)
    (fun (elems, seed) ->
      let init = Blink.heuristic_chunk ~elems in
      let measure ~chunk_elems =
        Float.of_int (Hashtbl.hash (seed, chunk_elems) mod 1000)
      in
      let r = Chunking.tune ~init ~measure () in
      let floor = min init (max 1 (init / 2)) in
      List.for_all (fun s -> s.Chunking.chunk_elems >= floor) r.Chunking.trace)

(* ------------------------------------------------------------------ *)
(* Hybrid *)

let test_hybrid_split_properties () =
  let total = 1e9 in
  let d_pcie, d_nvl = Hybrid.split ~total_bytes:total ~bw_pcie:1e10 ~bw_nvl:1e11 ~t_dpa:0. in
  check_float "conserves" total (d_pcie +. d_nvl);
  (* equal finish times when interior *)
  check_float "balanced" (d_pcie /. 1e10) (d_nvl /. 1e11);
  let d_pcie, _ = Hybrid.split ~total_bytes:total ~bw_pcie:1e10 ~bw_nvl:1e11 ~t_dpa:1e3 in
  check_float "clamps to zero" 0. d_pcie;
  Alcotest.(check bool) "rejects bad bandwidth" true
    (try ignore (Hybrid.split ~total_bytes:1. ~bw_pcie:0. ~bw_nvl:1. ~t_dpa:0.); false
     with Invalid_argument _ -> true)

let prop_hybrid_split_sound =
  QCheck.Test.make ~name:"hybrid split conserves bytes and stays in range" ~count:200
    QCheck.(triple (float_range 1e6 1e10) (float_range 1e9 1e11) (float_range 0. 0.01))
    (fun (total, bw, t_dpa) ->
      let d_pcie, d_nvl = Hybrid.split ~total_bytes:total ~bw_pcie:bw ~bw_nvl:(3. *. bw) ~t_dpa in
      d_pcie >= 0. && d_nvl >= 0. && Float.abs (d_pcie +. d_nvl -. total) < 1e-3)

let test_hybrid_never_slower () =
  List.iter
    (fun n ->
      let gpus = Blink_collectives.Micro.chain_gpus n in
      let h = Blink.create Server.dgx1v ~gpus in
      let elems = 25_000_000 in
      let np, _ = Blink.broadcast h ~elems in
      let hp, _ = Hybrid.broadcast h ~elems in
      let t_nv = (Blink.time h np).E.makespan in
      let t_hy = (Blink.time h hp).E.makespan in
      Alcotest.(check bool)
        (Printf.sprintf "%d gpus: hybrid %.2fms <= nvlink %.2fms * 1.02" n
           (t_hy *. 1e3) (t_nv *. 1e3))
        true
        (t_hy <= t_nv *. 1.02))
    [ 3; 4; 6; 8 ]

let test_hybrid_semantics () =
  let h = Blink.create Server.dgx1v ~gpus:[| 0; 1; 2 |] in
  let elems = 200_000 in
  let prog, layout = Hybrid.broadcast ~chunk_elems:10_000 h ~elems in
  let mem = Blink_sim.Semantics.memory_of_program prog in
  let root = Blink.root h in
  let input = Array.init elems (fun i -> Float.of_int (i mod 251)) in
  Blink_sim.Semantics.write mem ~node:root
    ~buf:layout.Blink_collectives.Codegen.data.(root) input;
  Blink_sim.Semantics.run prog mem;
  for r = 0 to 2 do
    Alcotest.(check bool) (Printf.sprintf "rank %d" r) true
      (Blink_sim.Semantics.read mem ~node:r
         ~buf:layout.Blink_collectives.Codegen.data.(r)
      = input)
  done

let test_pcie_chain_tree () =
  let h = Blink.create Server.dgx1v ~gpus:full8 in
  let chain = Hybrid.pcie_chain_tree h in
  Alcotest.(check int) "rooted at blink root" (Blink.root h)
    chain.Blink_collectives.Tree.root;
  (* a path: every rank has at most 2 neighbours *)
  Array.iteri
    (fun v children ->
      let neighbours =
        List.length children + if v = chain.Blink_collectives.Tree.root then 0 else 1
      in
      Alcotest.(check bool) "path degree" true (neighbours <= 2))
    chain.Blink_collectives.Tree.children

(* ------------------------------------------------------------------ *)
(* Multiserver *)

let test_multiserver_plan () =
  let ms =
    Multiserver.create [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ]
  in
  Alcotest.(check int) "two plans" 2 (Array.length (Multiserver.plans ms));
  Alcotest.(check bool) "partitions cover servers and trees" true
    (Multiserver.n_partitions ms >= 2)

let test_multiserver_bandwidth_scaling () =
  let servers = [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ] in
  let elems = 12_500_000 in
  let throughput net_bw =
    let ms = Multiserver.create ~net_bw servers in
    let prog, _ = Multiserver.all_reduce ms ~elems in
    4. *. Float.of_int elems /. (Multiserver.time ms prog).E.makespan
  in
  let slow = throughput 5. in
  let fast = throughput 25. in
  Alcotest.(check bool)
    (Printf.sprintf "5x network helps (%.2f -> %.2f GB/s)" (slow /. 1e9) (fast /. 1e9))
    true
    (fast > slow *. 2.)

let test_multiserver_single_gpu_servers () =
  let ms = Multiserver.create [ (Server.dgx1v, [| 0 |]); (Server.dgx1v, [| 1 |]) ] in
  let elems = 10_000 in
  let prog, layout = Multiserver.all_reduce ~chunk_elems:1_000 ms ~elems in
  let mem = Blink_sim.Semantics.memory_of_program prog in
  let a = Array.init elems (fun i -> Float.of_int i) in
  let b = Array.init elems (fun i -> Float.of_int (2 * i)) in
  Blink_sim.Semantics.write mem ~node:0 ~buf:layout.Blink_collectives.Codegen.data.(0) a;
  Blink_sim.Semantics.write mem ~node:1 ~buf:layout.Blink_collectives.Codegen.data.(1) b;
  Blink_sim.Semantics.run prog mem;
  let got = Blink_sim.Semantics.read mem ~node:0 ~buf:layout.Blink_collectives.Codegen.data.(0) in
  Alcotest.(check (float 1e-9)) "summed" 3. got.(1)

let () =
  Alcotest.run "core"
    [
      ( "treegen",
        [
          Alcotest.test_case "dgx-1v: 6 unit trees" `Quick test_dgx1v_directed_packing;
          Alcotest.test_case "dgx-1p: 4 unit trees" `Quick test_dgx1p_directed_packing;
          Alcotest.test_case "mwu guarantee" `Quick test_mwu_within_guarantee;
          Alcotest.test_case "ilp reduces trees" `Quick test_ilp_reduces_tree_count;
          Alcotest.test_case "undirected dgx-1v" `Quick test_undirected_packing_dgx1v;
          Alcotest.test_case "fragmented allocation" `Quick test_partial_allocation_packing;
          Alcotest.test_case "disconnected" `Quick test_disconnected_packing;
          Alcotest.test_case "best root" `Quick test_best_root;
          QCheck_alcotest.to_alcotest prop_packing_sound_on_allocations;
        ] );
      ( "facade",
        [
          Alcotest.test_case "rates" `Quick test_facade_rates;
          Alcotest.test_case "dgx-2" `Quick test_facade_dgx2;
          Alcotest.test_case "rejects disconnected" `Quick test_facade_rejects_disconnected;
          Alcotest.test_case "rejects a single gpu" `Quick test_facade_rejects_single_gpu;
          Alcotest.test_case "beats pcie fallback" `Quick test_facade_beats_pcie_fallback;
          Alcotest.test_case "one-hop trees" `Quick test_one_hop_trees_shape;
        ] );
      ( "per-root",
        [
          Alcotest.test_case "data" `Quick test_per_root_data;
          Alcotest.test_case "feasible packings" `Quick test_root_packings_feasible;
          Alcotest.test_case "after fail_link" `Quick test_per_root_after_fail_link;
          Alcotest.test_case "all_gather bound" `Quick test_all_gather_near_bound;
          Alcotest.test_case "dgx-2 within bound" `Quick test_dgx2_within_bound;
        ] );
      ( "allreduce",
        [
          Alcotest.test_case "per-root data" `Quick test_per_root_all_reduce_data;
          Alcotest.test_case "keeps the faster" `Quick test_all_reduce_keeps_faster;
          Alcotest.test_case "within bound" `Quick test_all_reduce_within_bound;
          Alcotest.test_case "small sizes skip root packings" `Quick
            test_small_all_reduce_skips_root_packings;
        ] );
      ( "chunking",
        [
          Alcotest.test_case "finds peak" `Quick test_miad_finds_peak;
          Alcotest.test_case "trace phases" `Quick test_miad_trace_phases;
          Alcotest.test_case "validation" `Quick test_miad_validation;
          Alcotest.test_case "facade tuner" `Quick test_facade_tuner_runs;
          Alcotest.test_case "decrease budget" `Quick
            test_miad_decrease_has_own_budget;
          QCheck_alcotest.to_alcotest prop_miad_probe_floor;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "split properties" `Quick test_hybrid_split_properties;
          QCheck_alcotest.to_alcotest prop_hybrid_split_sound;
          Alcotest.test_case "never slower" `Quick test_hybrid_never_slower;
          Alcotest.test_case "semantics" `Quick test_hybrid_semantics;
          Alcotest.test_case "pcie chain tree" `Quick test_pcie_chain_tree;
        ] );
      ( "multiserver",
        [
          Alcotest.test_case "plan" `Quick test_multiserver_plan;
          Alcotest.test_case "bandwidth scaling" `Quick test_multiserver_bandwidth_scaling;
          Alcotest.test_case "single-gpu servers" `Quick test_multiserver_single_gpu_servers;
        ] );
    ]
