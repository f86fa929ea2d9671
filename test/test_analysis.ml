(* Critical-path analysis, race-freedom of every generated collective, and the
   ReduceScatter primitive. *)

module Server = Blink_topology.Server
module Fabric = Blink_topology.Fabric
module Blink = Blink_core.Blink
module Ring = Blink_baselines.Ring
module Dbtree = Blink_baselines.Dbtree
module Hierarchical = Blink_baselines.Hierarchical
module Multiserver = Blink_core.Multiserver
module Hybrid = Blink_core.Hybrid
module Codegen = Blink_collectives.Codegen
module P = Blink_sim.Program
module E = Blink_sim.Engine
module Critical_path = Blink_sim.Critical_path
module Telemetry = Blink_telemetry.Telemetry
module Hazard = Blink_sim.Hazard
module Sem = Blink_sim.Semantics

(* ------------------------------------------------------------------ *)
(* Critical path, link table and the Chrome exporter *)

let two_op_program () =
  let resources =
    [| { E.bandwidth = 1e9; latency = 0.; lanes = 1; gap = 0. } |]
  in
  let p = P.create () in
  let s = P.fresh_stream p in
  let a = P.add p ~stream:s (P.Transfer { bytes = 1e9; link = 0; bw_scale = 1.; action = None }) in
  let s2 = P.fresh_stream p in
  let _b =
    P.add p ~deps:[ a ] ~stream:s2
      (P.Transfer { bytes = 5e8; link = 0; bw_scale = 1.; action = None })
  in
  (p, resources)

let test_utilizations () =
  let p, resources = two_op_program () in
  let r = E.run ~resources p in
  match (Critical_path.attribute ~resources p r).Critical_path.links with
  | [ l ] ->
      Alcotest.(check int) "resource id" 0 l.Critical_path.resource;
      Alcotest.(check (float 1e-9)) "busy" 1.5 l.Critical_path.busy_s;
      Alcotest.(check (float 1e-9)) "utilization" 1. l.Critical_path.utilization;
      Alcotest.(check bool) "on the path" true l.Critical_path.on_path;
      let util = [| nan |] in
      Alcotest.(check int) "bottleneck" 0
        (Critical_path.utilization ~resources r util);
      Alcotest.(check (float 0.)) "same utilization" l.Critical_path.utilization
        util.(0)
  | _ -> Alcotest.fail "one resource expected"

let path_of ~resources prog r =
  (Critical_path.attribute ~resources prog r).Critical_path.path

let test_critical_path () =
  let p, resources = two_op_program () in
  let r = E.run ~resources p in
  let path = path_of ~resources p r in
  Alcotest.(check (list int)) "path ops" [ 0; 1 ]
    (List.map (fun s -> s.Critical_path.op) path);
  (match path with
  | [ head; tail ] ->
      Alcotest.(check bool) "head starts the chain" true
        (head.Critical_path.via = `Start);
      Alcotest.(check bool) "tail waited on a dep" true
        (tail.Critical_path.via = `Dep)
  | _ -> Alcotest.fail "two spans");
  (* Path spans cover the makespan for a pure chain. *)
  let last = List.nth path (List.length path - 1) in
  Alcotest.(check (float 1e-9)) "ends at makespan" r.E.makespan
    last.Critical_path.finish

let test_critical_path_real_collective () =
  let handle = Blink.create Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  let prog, _ = Blink.all_reduce ~chunk_elems:262_144 handle ~elems:2_500_000 in
  let r = Blink.time handle prog in
  let resources = Fabric.resources (Blink.fabric handle) in
  let path = path_of ~resources prog r in
  Alcotest.(check bool) "non-trivial path" true (List.length path >= 3);
  (* Spans are ordered and non-overlapping along the chain. *)
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        a.Critical_path.finish <= b.Critical_path.start +. 1e-9 && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (ordered path);
  Alcotest.(check (float 1e-9)) "reaches makespan" r.E.makespan
    (List.nth path (List.length path - 1)).Critical_path.finish

(* The one Chrome exporter: a traced engine run feeds its per-op slices
   to [Telemetry.chrome_json]. *)
let test_chrome_json () =
  let p, resources = two_op_program () in
  let telemetry = Telemetry.create ~trace:true () in
  ignore (E.run ~telemetry ~resources p);
  let json = Telemetry.chrome_json telemetry in
  Alcotest.(check bool) "array" true
    (String.length json > 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  Alcotest.(check bool) "mentions both ops" true
    (let has sub =
       let re = Str.regexp_string sub in
       try ignore (Str.search_forward re json 0); true with Not_found -> false
     in
     has "xfer#0" && has "xfer#1")

(* ------------------------------------------------------------------ *)
(* Hazard detection *)

let racy_program () =
  (* Two unordered writes to the same region. *)
  let p = P.create () in
  let b = P.declare_buffer p ~node:0 ~len:4 in
  let src = P.declare_buffer p ~node:1 ~len:4 in
  let mref node buf = { P.node; buf; off = 0; len = 4 } in
  let s1 = P.fresh_stream p in
  let s2 = P.fresh_stream p in
  ignore
    (P.add p ~stream:s1
       (P.Transfer { bytes = 16.; link = 0; bw_scale = 1.;
                     action = Some (P.Copy { src = mref 1 src; dst = mref 0 b }) }));
  ignore
    (P.add p ~stream:s2
       (P.Transfer { bytes = 16.; link = 0; bw_scale = 1.;
                     action = Some (P.Copy { src = mref 1 src; dst = mref 0 b }) }));
  p

let test_hazard_detects_race () =
  let p = racy_program () in
  match Hazard.check p with
  | [ v ] ->
      Alcotest.(check (pair int int)) "ops" (0, 1) (v.Hazard.op_a, v.Hazard.op_b);
      Alcotest.(check bool) "flagged" false (Hazard.is_race_free p)
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs))

let test_hazard_ordered_ok () =
  (* Same two writes but ordered by a dependency: no race. *)
  let p = P.create () in
  let b = P.declare_buffer p ~node:0 ~len:4 in
  let src = P.declare_buffer p ~node:1 ~len:4 in
  let mref node buf = { P.node; buf; off = 0; len = 4 } in
  let s1 = P.fresh_stream p in
  let a =
    P.add p ~stream:s1
      (P.Transfer { bytes = 16.; link = 0; bw_scale = 1.;
                    action = Some (P.Copy { src = mref 1 src; dst = mref 0 b }) })
  in
  let s2 = P.fresh_stream p in
  ignore
    (P.add p ~deps:[ a ] ~stream:s2
       (P.Transfer { bytes = 16.; link = 0; bw_scale = 1.;
                     action = Some (P.Copy { src = mref 1 src; dst = mref 0 b }) }));
  Alcotest.(check bool) "ordered writes fine" true (Hazard.is_race_free p)

let test_hazard_accum_commutes () =
  (* Two unordered Reduce accumulations into one region are allowed. *)
  let p = P.create () in
  let b = P.declare_buffer p ~node:0 ~len:4 in
  let s1 = P.declare_buffer p ~node:1 ~len:4 in
  let s2 = P.declare_buffer p ~node:2 ~len:4 in
  let mref node buf = { P.node; buf; off = 0; len = 4 } in
  List.iter
    (fun (node, buf) ->
      let s = P.fresh_stream p in
      ignore
        (P.add p ~stream:s
           (P.Transfer { bytes = 16.; link = 0; bw_scale = 1.;
                         action = Some (P.Reduce { src = mref node buf; dst = mref 0 b }) })))
    [ (1, s1); (2, s2) ];
  Alcotest.(check bool) "fan-in accumulation allowed" true (Hazard.is_race_free p)

let check_race_free name prog =
  let violations = Hazard.check prog in
  Alcotest.(check int) (name ^ " race-free") 0 (List.length violations)

let test_collectives_race_free () =
  let gpus = [| 1; 4; 5; 6 |] in
  let handle = Blink.create Server.dgx1v ~gpus in
  let elems = 40_000 and chunk = 4_096 in
  let b, _ = Blink.broadcast ~chunk_elems:chunk handle ~elems in
  check_race_free "broadcast" b;
  let a, _ = Blink.all_reduce ~chunk_elems:chunk handle ~elems in
  check_race_free "all_reduce" a;
  let g, _ = Blink.gather ~chunk_elems:chunk handle ~elems in
  check_race_free "gather" g;
  let ag, _ = Blink.all_gather ~chunk_elems:chunk handle ~elems in
  check_race_free "all_gather" ag;
  let rs, _ = Blink.reduce_scatter ~chunk_elems:chunk handle ~elems in
  check_race_free "reduce_scatter" rs

let test_baselines_race_free () =
  let gpus = Array.init 8 Fun.id in
  let fabric = Fabric.of_server Server.dgx1v ~gpus in
  let spec = Codegen.spec ~chunk_elems:2_048 fabric in
  let ch = Ring.nccl_channels Server.dgx1v ~gpus in
  let a, _ = Ring.all_reduce spec ~elems:30_000 ~channels:ch in
  check_race_free "ring all_reduce" a;
  let b, _ = Ring.broadcast spec ~root:0 ~elems:30_000 ~channels:ch in
  check_race_free "ring broadcast" b;
  let fabric16 = Fabric.of_server Server.dgx2 ~gpus:(Array.init 16 Fun.id) in
  let spec16 = Codegen.spec ~chunk_elems:1_024 fabric16 in
  let d, _ = Dbtree.all_reduce spec16 ~elems:16_000 in
  check_race_free "dbtree all_reduce" d

let test_multiserver_race_free () =
  let servers = [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ] in
  let ms = Multiserver.create servers in
  let p, _ = Multiserver.all_reduce ~chunk_elems:2_048 ms ~elems:20_000 in
  check_race_free "three-phase all_reduce" p;
  let hi = Hierarchical.create servers in
  let hp, _ = Hierarchical.all_reduce ~chunk_elems:2_048 hi ~elems:20_000 in
  check_race_free "hierarchical all_reduce" hp;
  let handle = Blink.create Server.dgx1v ~gpus:[| 0; 1; 2; 3 |] in
  let hy, _ = Hybrid.broadcast ~chunk_elems:2_048 handle ~elems:100_000 in
  check_race_free "hybrid broadcast" hy

let prop_random_collectives_race_free =
  QCheck.Test.make ~name:"random collectives are race-free" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 91 |] in
      (* grow a random NVLink-connected allocation *)
      let size = 2 + Random.State.int rng 5 in
      let chosen = ref [ Random.State.int rng 8 ] in
      let guard = ref 0 in
      while List.length !chosen < size && !guard < 100 do
        incr guard;
        let candidates =
          List.filter
            (fun g ->
              (not (List.mem g !chosen))
              && List.exists
                   (fun h -> Server.pair_capacity Server.dgx1v g h > 0)
                   !chosen)
            (List.init 8 Fun.id)
        in
        match candidates with
        | [] -> chosen := [ Random.State.int rng 8 ]
        | _ ->
            chosen :=
              List.nth candidates (Random.State.int rng (List.length candidates))
              :: !chosen
      done;
      let gpus = Array.of_list (List.sort compare !chosen) in
      let handle = Blink.create Server.dgx1v ~gpus in
      let elems = 64 + Random.State.int rng 4_000 in
      let chunk = 1 + Random.State.int rng 800 in
      let prog, _ =
        match Random.State.int rng 5 with
        | 0 -> Blink.broadcast ~chunk_elems:chunk handle ~elems
        | 1 -> Blink.all_reduce ~chunk_elems:chunk handle ~elems
        | 2 -> Blink.gather ~chunk_elems:chunk handle ~elems
        | 3 -> Blink.all_gather ~chunk_elems:chunk handle ~elems
        | _ -> Blink.reduce_scatter ~chunk_elems:chunk handle ~elems
      in
      Hazard.is_race_free prog)

(* ------------------------------------------------------------------ *)
(* Engine timing bounds *)

let prop_makespan_bounds =
  QCheck.Test.make ~name:"makespan within work and critical-path bounds" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 7 |] in
      let gpus = [| 0; 1; 2; 3 |] in
      let handle = Blink.create Server.dgx1v ~gpus in
      let elems = 500_000 + Random.State.int rng 2_000_000 in
      let chunk = 32_768 + Random.State.int rng 262_144 in
      let prog, _ = Blink.all_reduce ~chunk_elems:chunk handle ~elems in
      let resources = Fabric.resources (Blink.fabric handle) in
      let r = Blink.time handle prog in
      (* Lower bound 1: the busiest resource's work divided by its lanes. *)
      let work_bound =
        Array.to_list r.E.busy
        |> List.mapi (fun i b -> b /. Float.of_int resources.(i).E.lanes)
        |> List.fold_left Float.max 0.
      in
      (* Lower bound 2: sum of service times along the critical path. *)
      let path = path_of ~resources prog r in
      let path_bound =
        List.fold_left
          (fun acc s -> acc +. (s.Critical_path.finish -. s.Critical_path.start))
          0. path
      in
      r.E.makespan >= work_bound -. 1e-9 && r.E.makespan >= path_bound -. 1e-9)

(* ------------------------------------------------------------------ *)
(* ReduceScatter *)

let input_for rank elems =
  Array.init elems (fun i -> Float.of_int (((i * 5) + (rank * 23)) mod 19))

let test_reduce_scatter_semantics () =
  List.iter
    (fun (gpus, elems, chunk) ->
      let handle = Blink.create Server.dgx1v ~gpus in
      let prog, layout = Blink.reduce_scatter ~chunk_elems:chunk handle ~elems in
      let mem = Sem.memory_of_program prog in
      let k = Array.length gpus in
      for r = 0 to k - 1 do
        Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) (input_for r elems)
      done;
      Sem.run prog mem;
      let expect = Array.make elems 0. in
      for r = 0 to k - 1 do
        Array.iteri (fun i x -> expect.(i) <- expect.(i) +. x) (input_for r elems)
      done;
      for r = 0 to k - 1 do
        let got = Sem.read mem ~node:r ~buf:layout.Codegen.data.(r) in
        let off = r * elems / k and stop = (r + 1) * elems / k in
        for i = off to stop - 1 do
          if Float.abs (got.(i) -. expect.(i)) > 1e-6 then
            Alcotest.failf "rank %d wrong at %d" r i
        done
      done)
    [ ([| 0; 1; 2; 3; 4; 5; 6; 7 |], 9_600, 600); ([| 1; 4; 5; 6 |], 1_000, 128) ]

let test_reduce_scatter_dgx2 () =
  let handle = Blink.create Server.dgx2 ~gpus:(Array.init 16 Fun.id) in
  let elems = 6_400 in
  let prog, layout = Blink.reduce_scatter ~chunk_elems:256 handle ~elems in
  check_race_free "dgx2 reduce_scatter" prog;
  let mem = Sem.memory_of_program prog in
  for r = 0 to 15 do
    Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) (input_for r elems)
  done;
  Sem.run prog mem;
  let expect = Array.make elems 0. in
  for r = 0 to 15 do
    Array.iteri (fun i x -> expect.(i) <- expect.(i) +. x) (input_for r elems)
  done;
  for r = 0 to 15 do
    let got = Sem.read mem ~node:r ~buf:layout.Codegen.data.(r) in
    let off = r * elems / 16 and stop = (r + 1) * elems / 16 in
    for i = off to stop - 1 do
      if Float.abs (got.(i) -. expect.(i)) > 1e-6 then
        Alcotest.failf "rank %d wrong at %d" r i
    done
  done

let test_reduce_scatter_cheaper_than_all_reduce () =
  let handle = Blink.create Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
  let elems = 25_000_000 in
  let rs, _ = Blink.reduce_scatter ~chunk_elems:262_144 handle ~elems in
  let ar, _ = Blink.all_reduce ~chunk_elems:262_144 handle ~elems in
  let t_rs = (Blink.time handle rs).E.makespan in
  let t_ar = (Blink.time handle ar).E.makespan in
  Alcotest.(check bool)
    (Printf.sprintf "reduce_scatter %.2fms < all_reduce %.2fms" (t_rs *. 1e3) (t_ar *. 1e3))
    true (t_rs < t_ar)

(* ------------------------------------------------------------------ *)
(* Tuned chunk cache *)

let test_tuned_chunk_cached () =
  let handle = Blink.create Server.dgx1v ~gpus:[| 0; 1; 2; 3 |] in
  let a = Blink.tuned_chunk handle ~elems:4_000_000 in
  let b = Blink.tuned_chunk handle ~elems:4_000_001 in
  Alcotest.(check int) "same size class reuses" a b;
  Alcotest.(check bool) "positive" true (a > 0)

let () =
  Alcotest.run "analysis"
    [
      ( "trace",
        [
          Alcotest.test_case "utilizations" `Quick test_utilizations;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "critical path (collective)" `Quick test_critical_path_real_collective;
          Alcotest.test_case "chrome json" `Quick test_chrome_json;
        ] );
      ( "hazard",
        [
          Alcotest.test_case "detects race" `Quick test_hazard_detects_race;
          Alcotest.test_case "ordered ok" `Quick test_hazard_ordered_ok;
          Alcotest.test_case "accumulation commutes" `Quick test_hazard_accum_commutes;
          Alcotest.test_case "blink collectives race-free" `Quick test_collectives_race_free;
          Alcotest.test_case "baselines race-free" `Quick test_baselines_race_free;
          Alcotest.test_case "multi-server race-free" `Quick test_multiserver_race_free;
          QCheck_alcotest.to_alcotest prop_random_collectives_race_free;
          QCheck_alcotest.to_alcotest prop_makespan_bounds;
        ] );
      ( "reduce_scatter",
        [
          Alcotest.test_case "semantics" `Quick test_reduce_scatter_semantics;
          Alcotest.test_case "dgx-2" `Quick test_reduce_scatter_dgx2;
          Alcotest.test_case "cheaper than all_reduce" `Quick test_reduce_scatter_cheaper_than_all_reduce;
        ] );
      ( "autotune",
        [ Alcotest.test_case "tuned chunk cached" `Quick test_tuned_chunk_cached ] );
    ]
