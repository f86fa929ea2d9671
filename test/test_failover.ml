(* Degraded-topology replanning: after a link/GPU fault report with
   [~replan:`Cold] the handle must behave exactly like a fresh handle
   created on the already-degraded fabric — same trees, same tuned
   chunks, same programs, same timing, same data — and a partitioned
   fabric must fail with the typed error, never execute a stale plan.

   The default warm path keeps surviving trees and re-packs only the
   displaced flow, so its guarantee is weaker: capacity-feasible, fast,
   and — on the scenarios asserted below — the exact same degraded rate
   as a cold replan. Contingency plans are cold plans built ahead of
   time, so a contingency failover keeps the full bit-identity
   guarantee. *)

module Server = Blink_topology.Server
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Comm = Blink_core.Comm
module Tree = Blink_collectives.Tree
module Telemetry = Blink_telemetry.Telemetry
module Fault = Blink_sim.Fault
module Program = Blink_sim.Program
module E = Blink_sim.Engine

let full = Array.init 8 Fun.id

let ops_of prog =
  let acc = ref [] in
  Program.iter_ops
    (fun o ->
      acc :=
        (o.Program.id, o.Program.kind, o.Program.stream, o.Program.deps) :: !acc)
    prog;
  List.rev !acc

(* Bit-for-bit plan equality: identical op stream, chunk, and timing. *)
let check_same_plan label (a : Plan.t) (b : Plan.t) =
  Alcotest.(check int) (label ^ ": chunk") a.Plan.chunk_elems b.Plan.chunk_elems;
  Alcotest.(check int)
    (label ^ ": op count")
    (Program.n_ops a.Plan.program)
    (Program.n_ops b.Plan.program);
  Alcotest.(check bool)
    (label ^ ": identical ops")
    true
    (ops_of a.Plan.program = ops_of b.Plan.program);
  Alcotest.(check (float 0.))
    (label ^ ": identical makespan")
    (Plan.seconds (Plan.execute ~data:false a))
    (Plan.seconds (Plan.execute ~data:false b))

(* GPU pairs some tree of the plan routes over (canonical u < v order). *)
let used_pairs (p : Plan.t) ~gpus =
  List.concat_map
    (fun { Tree.tree; _ } ->
      Array.to_list (Array.mapi (fun r pr -> (r, pr)) tree.Tree.parent))
    p.Plan.trees
  |> List.filter_map (fun (r, pr) ->
         if pr >= 0 then
           Some (min gpus.(r) gpus.(pr), max gpus.(r) gpus.(pr))
         else None)
  |> List.sort_uniq compare

let test_fail_link_matches_fresh_handle () =
  let h = Blink.create Server.dgx1v ~gpus:full in
  let before = Blink.plan h Plan.All_reduce ~elems:100_000 in
  (* Fail an edge the cached plan actually routes over, so the key is
     guaranteed affected. Any single NVLink loss keeps the 4-regular
     DGX-1V cube mesh connected. *)
  let u, v = List.hd (used_pairs before ~gpus:full) in
  Blink.fail_link ~replan:`Cold h ~u ~v;
  Alcotest.(check int) "cached plan invalidated" 1
    (Blink.plan_cache_invalidations h);
  Alcotest.(check int) "fault counted" 1
    (Telemetry.counter_value (Blink.telemetry h) "fault.injected");
  Alcotest.(check (list (pair (pair int int) bool)))
    "fault recorded"
    [ ((u, v), true) ]
    (List.map
       (fun (p, s) -> (p, s = Server.Down))
       (Blink.link_faults h));
  (* The next call on the affected key replans automatically. *)
  let { Blink.misses; _ } = Blink.plan_cache_stats h in
  let after = Blink.plan h Plan.All_reduce ~elems:100_000 in
  let { Blink.misses = misses'; _ } = Blink.plan_cache_stats h in
  Alcotest.(check int) "replan is a cache miss" (misses + 1) misses';
  Alcotest.(check bool) "no stale plan executes" true (before != after);
  (* And the replanned state is exactly a fresh handle on the degraded
     fabric: trees, tuned chunk, program and timing. *)
  let fresh =
    Blink.create ~link_faults:[ ((u, v), Server.Down) ] Server.dgx1v ~gpus:full
  in
  Alcotest.(check (float 0.)) "same degraded packing rate"
    (Blink.all_reduce_rate fresh) (Blink.all_reduce_rate h);
  Alcotest.(check int) "same root" (Blink.root fresh) (Blink.root h);
  check_same_plan "all_reduce after fail_link" after
    (Blink.plan fresh Plan.All_reduce ~elems:100_000);
  (* The loss costs bandwidth (or at best nothing). *)
  let healthy = Blink.create Server.dgx1v ~gpus:full in
  Alcotest.(check bool) "degraded rate not better" true
    (Blink.all_reduce_rate h <= Blink.all_reduce_rate healthy +. 1e-9)

let test_two_links_removed_matches_fresh_handle () =
  let h = Blink.create Server.dgx1v ~gpus:full in
  let p0 = Blink.plan h Plan.All_reduce ~elems:65_536 in
  let pairs = used_pairs p0 ~gpus:full in
  let u1, v1 = List.nth pairs 0 in
  let u2, v2 = List.nth pairs (List.length pairs - 1) in
  Blink.fail_link ~replan:`Cold h ~u:u1 ~v:v1;
  Blink.fail_link ~replan:`Cold h ~u:u2 ~v:v2;
  let faults = [ ((u1, v1), Server.Down); ((u2, v2), Server.Down) ] in
  let fresh = Blink.create ~link_faults:faults Server.dgx1v ~gpus:full in
  Alcotest.(check (float 0.)) "same doubly-degraded rate"
    (Blink.all_reduce_rate fresh) (Blink.all_reduce_rate h);
  check_same_plan "all_reduce after two fail_links"
    (Blink.plan h Plan.All_reduce ~elems:65_536)
    (Blink.plan fresh Plan.All_reduce ~elems:65_536);
  check_same_plan "broadcast after two fail_links"
    (Blink.plan h Plan.Broadcast ~elems:65_536)
    (Blink.plan fresh Plan.Broadcast ~elems:65_536)

let test_degrade_link_matches_fresh_handle () =
  let h = Blink.create Server.dgx1v ~gpus:full in
  let p0 = Blink.plan h Plan.All_reduce ~elems:65_536 in
  let t0 = Plan.seconds (Plan.execute ~data:false p0) in
  let u, v = List.hd (used_pairs p0 ~gpus:full) in
  Blink.degrade_link ~replan:`Cold h ~u ~v ~factor:0.25;
  let p1 = Blink.plan h Plan.All_reduce ~elems:65_536 in
  let t1 = Plan.seconds (Plan.execute ~data:false p1) in
  Alcotest.(check bool) "a slower link never speeds the collective up" true
    (t1 >= t0 -. 1e-12);
  let fresh =
    Blink.create
      ~link_faults:[ ((u, v), Server.Degraded 0.25) ]
      Server.dgx1v ~gpus:full
  in
  check_same_plan "all_reduce after degrade" p1
    (Blink.plan fresh Plan.All_reduce ~elems:65_536);
  (* Re-declaring the pair replaces its state: restoring factor 1.0 is a
     full-rate link again (the graph is the healthy one). *)
  Blink.degrade_link ~replan:`Cold h ~u ~v ~factor:1.0;
  let healthy = Blink.create Server.dgx1v ~gpus:full in
  Alcotest.(check (float 0.)) "factor 1.0 restores the healthy rate"
    (Blink.all_reduce_rate healthy) (Blink.all_reduce_rate h)

let test_fail_gpu_matches_fresh_handle () =
  let h = Blink.create Server.dgx1v ~gpus:full in
  ignore (Blink.plan h Plan.All_reduce ~elems:65_536);
  Blink.fail_gpu h ~gpu:7;
  Alcotest.(check int) "rank renumbering drops every plan" 1
    (Blink.plan_cache_invalidations h);
  Alcotest.(check (array int)) "allocation shrank" (Array.init 7 Fun.id)
    (Blink.gpus h);
  let fresh = Blink.create Server.dgx1v ~gpus:(Array.init 7 Fun.id) in
  Alcotest.(check int) "same ranks" (Blink.n_ranks fresh) (Blink.n_ranks h);
  check_same_plan "all_reduce after fail_gpu"
    (Blink.plan h Plan.All_reduce ~elems:65_536)
    (Blink.plan fresh Plan.All_reduce ~elems:65_536)

let test_keyed_invalidation_spares_unaffected_plans () =
  (* Root pinned so the replan cannot move it (a root change legitimately
     flushes everything). *)
  let h = Blink.create ~root:0 Server.dgx1v ~gpus:full in
  let ar = Blink.plan ~chunk_elems:512 h Plan.All_reduce ~elems:4_000 in
  let bc = Blink.plan ~chunk_elems:512 h Plan.Broadcast ~elems:4_000 in
  let ar_pairs = used_pairs ar ~gpus:full in
  let bc_pairs = used_pairs bc ~gpus:full in
  match List.filter (fun p -> not (List.mem p bc_pairs)) ar_pairs with
  | (u, v) :: _ ->
      Blink.fail_link h ~u ~v;
      Alcotest.(check int) "only the touching plan dropped" 1
        (Blink.plan_cache_invalidations h);
      (* The broadcast plan's trees avoid the dead edge: still cached,
         same instance — selective invalidation, not a full flush. *)
      let bc' = Blink.plan ~chunk_elems:512 h Plan.Broadcast ~elems:4_000 in
      Alcotest.(check bool) "unaffected key keeps its plan" true (bc == bc');
      let ar' = Blink.plan ~chunk_elems:512 h Plan.All_reduce ~elems:4_000 in
      Alcotest.(check bool) "affected key replanned" true (ar != ar')
  | [] ->
      (* Every all-reduce edge is also a broadcast edge on this packing:
         failing one must then drop both plans. *)
      let u, v = List.hd ar_pairs in
      Blink.fail_link h ~u ~v;
      Alcotest.(check int) "both touching plans dropped" 2
        (Blink.plan_cache_invalidations h)

let test_partition_raises_typed_error () =
  (* Within allocation {1,4,5,6} GPU 1's only NVLink is the (1,5) pair:
     failing it partitions the graph. Root pinned at gpu 5 (rank 2) so
     the reachable side is deterministic. *)
  let gpus = [| 1; 4; 5; 6 |] in
  let h = Blink.create ~root:2 Server.dgx1v ~gpus in
  ignore (Blink.plan ~chunk_elems:256 h Plan.All_reduce ~elems:2_000);
  let expect = Blink.Partitioned { alive = [ 4; 5; 6 ]; unreachable = [ 1 ] } in
  Alcotest.check_raises "partition detected" expect (fun () ->
      Blink.fail_link h ~u:1 ~v:5);
  (* The handle is permanently dead: planning, execution and further
     mutations all re-raise the same actionable error — a stale plan can
     never run on the partitioned fabric. *)
  Alcotest.check_raises "plan refuses" expect (fun () ->
      ignore (Blink.plan ~chunk_elems:256 h Plan.All_reduce ~elems:2_000));
  Alcotest.check_raises "tree accessors refuse" expect (fun () ->
      ignore (Blink.all_reduce_trees h));
  Alcotest.check_raises "mutations refuse" expect (fun () ->
      Blink.fail_gpu h ~gpu:6);
  (* A fresh create on the same dead fabric reports the same partition. *)
  Alcotest.check_raises "create on partitioned faults" expect (fun () ->
      ignore
        (Blink.create ~root:2
           ~link_faults:[ ((1, 5), Server.Down) ]
           Server.dgx1v ~gpus))

let test_comm_failover_data_path () =
  (* End to end through the NCCL-shaped surface: data results after a
     mid-life fault report equal a fresh communicator on the degraded
     fabric, element for element. *)
  let elems = 2_048 in
  let inputs k =
    Array.init k (fun r ->
        Array.init elems (fun i -> Float.of_int (((i * 3) + (r * 7)) mod 11)))
  in
  let c = Comm.init Server.dgx1v ~gpus:full in
  let healthy = Comm.all_reduce c (inputs 8) in
  Comm.fail_link ~replan:`Cold c ~u:5 ~v:6;
  let degraded = Comm.all_reduce c (inputs 8) in
  (* Same sums as before the fault (the collective is still correct)... *)
  Alcotest.(check bool) "sums survive the fault" true
    (healthy.Comm.value = degraded.Comm.value);
  (* ...at exactly the rate a fresh communicator on the degraded fabric
     achieves. *)
  let fresh =
    Comm.init ~link_faults:[ ((5, 6), Server.Down) ] Server.dgx1v ~gpus:full
  in
  let want = Comm.all_reduce fresh (inputs 8) in
  Alcotest.(check (float 0.)) "identical degraded time" want.Comm.seconds
    degraded.Comm.seconds;
  Alcotest.(check bool) "identical data" true
    (want.Comm.value = degraded.Comm.value);
  (* The warm path keeps the collective correct too: same sums, element
     for element, even when the packing differs from a cold replan. *)
  let cw = Comm.init Server.dgx1v ~gpus:full in
  ignore (Comm.all_reduce cw (inputs 8));
  Comm.fail_link cw ~u:5 ~v:6;
  let warm = Comm.all_reduce cw (inputs 8) in
  Alcotest.(check bool) "warm replan preserves the data" true
    (healthy.Comm.value = warm.Comm.value)

let test_midrun_fault_on_compiled_plan () =
  (* The engine-level fault model over a real compiled collective: a
     flaky window on a link the plan uses forces retries; the run still
     completes, later than the clean run. *)
  let h = Blink.create Server.dgx1v ~gpus:full in
  let plan = Blink.plan ~chunk_elems:4_096 h Plan.All_reduce ~elems:65_536 in
  let link = ref (-1) in
  Program.iter_ops
    (fun o ->
      match o.Program.kind with
      | Program.Transfer { link = l; _ } when !link < 0 -> link := l
      | _ -> ())
    plan.Plan.program;
  Alcotest.(check bool) "plan has a transfer" true (!link >= 0);
  let clean = Fault.run ~resources:plan.Plan.resources plan.Plan.program in
  Alcotest.(check int) "clean run has no retries" 0 clean.Fault.retries;
  let out =
    Fault.run ~resources:plan.Plan.resources
      ~events:
        [
          Fault.Flaky
            {
              res = !link;
              from_s = 0.;
              until_s = clean.Fault.timing.E.makespan /. 2.;
            };
        ]
      plan.Plan.program
  in
  Alcotest.(check bool) "flaky window forces retries" true
    (out.Fault.retries > 0);
  Alcotest.(check bool) "retries cost time" true
    (out.Fault.timing.E.makespan > clean.Fault.timing.E.makespan)

let test_mutation_validation () =
  let h = Blink.create Server.dgx1v ~gpus:full in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Blink.degrade_link: factor must be in (0, 1]" (fun () ->
      Blink.degrade_link h ~u:0 ~v:1 ~factor:0.);
  raises "Blink.degrade_link: factor must be in (0, 1]" (fun () ->
      Blink.degrade_link h ~u:0 ~v:1 ~factor:1.5);
  raises "Blink: link fault on a self pair" (fun () -> Blink.fail_link h ~u:3 ~v:3);
  raises "Blink: no NVLink between gpus 1 and 4" (fun () ->
      Blink.fail_link h ~u:1 ~v:4);
  raises "Blink: link fault on a gpu outside the live allocation" (fun () ->
      Blink.fail_link h ~u:0 ~v:9);
  raises "Blink.fail_gpu: gpu is not in the live allocation" (fun () ->
      Blink.fail_gpu h ~gpu:12);
  let pinned = Blink.create ~root:0 Server.dgx1v ~gpus:full in
  raises "Blink.fail_gpu: cannot drop the pinned root gpu" (fun () ->
      Blink.fail_gpu pinned ~gpu:0);
  let dgx2 = Blink.create Server.dgx2 ~gpus:(Array.init 4 Fun.id) in
  raises "Blink: link faults are unsupported on NVSwitch machines" (fun () ->
      Blink.fail_link dgx2 ~u:0 ~v:1)

let test_replan_telemetry () =
  let h = Blink.create Server.dgx1v ~gpus:full in
  ignore (Blink.plan ~chunk_elems:512 h Plan.All_reduce ~elems:4_000);
  Blink.fail_link h ~u:5 ~v:6;
  Blink.degrade_link ~replan:`Cold h ~u:0 ~v:3 ~factor:0.5;
  let t = Blink.telemetry h in
  Alcotest.(check int) "every mutation counted" 2
    (Telemetry.counter_value t "fault.injected");
  (* Neither mutation could be answered by a prewarmed bucket. *)
  Alcotest.(check int) "contingency misses counted" 2
    (Telemetry.counter_value t "plan.contingency.misses");
  Alcotest.(check int) "no contingency hits" 0
    (Telemetry.counter_value t "plan.contingency.hits");
  (* The warm replan reported its tree bookkeeping. *)
  Alcotest.(check bool) "kept trees counted" true
    (Telemetry.counter_value t "plan.replan.kept_trees" > 0);
  Alcotest.(check bool) "displaced trees counted" true
    (Telemetry.counter_value t "plan.replan.displaced_trees" > 0);
  (* The replan-latency histogram recorded one observation per replan,
     in per-path labelled series. *)
  let doc = Telemetry.metrics_json_string t in
  let contains needle =
    match Str.search_forward (Str.regexp_string needle) doc 0 with
    | _ -> true
    | exception Not_found -> false
  in
  Alcotest.(check bool) "replan histogram exported" true
    (contains "plan.replan_s");
  Alcotest.(check bool) "warm series labelled" true (contains "warm");
  Alcotest.(check bool) "cold series labelled" true (contains "cold")

(* ------------------------------------------------------------------ *)
(* Incremental (warm) replanning and background contingency plans. *)

module Treegen = Blink_core.Treegen

let test_warm_replan_exact_rate_matrix () =
  (* Scenarios where the kept-tree warm replan provably achieves the
     exact degraded rate of a cold replan — asserted as float equality,
     not a tolerance. (Scenarios where the warm candidate pool cannot
     express the cold optimum are legitimately weaker and not listed.) *)
  let scenarios =
    [
      ("dgx1v 5-6", Server.dgx1v, [ (5, 6) ]);
      ("dgx1v 5-6 + 0-3", Server.dgx1v, [ (5, 6); (0, 3) ]);
      ("dgx1p 0-3", Server.dgx1p, [ (0, 3) ]);
      ("dgx1p 5-6 + 0-3", Server.dgx1p, [ (5, 6); (0, 3) ]);
    ]
  in
  List.iter
    (fun (label, server, fails) ->
      let gpus = Array.init server.Server.n_gpus Fun.id in
      let warm = Blink.create server ~gpus in
      let cold = Blink.create server ~gpus in
      List.iter (fun (u, v) -> Blink.fail_link ~replan:`Warm warm ~u ~v) fails;
      List.iter (fun (u, v) -> Blink.fail_link ~replan:`Cold cold ~u ~v) fails;
      Alcotest.(check (float 0.))
        (label ^ ": exact all_reduce rate")
        (Blink.all_reduce_rate cold) (Blink.all_reduce_rate warm);
      match (Blink.packing warm, Blink.packing cold) with
      | Some w, Some c ->
          Alcotest.(check (float 0.))
            (label ^ ": exact broadcast rate")
            c.Treegen.rate w.Treegen.rate
      | _ -> Alcotest.fail (label ^ ": missing packing"))
    scenarios

let test_warm_replan_feasible_on_all_single_faults () =
  (* Every single-link warm replan yields a usable packing on the
     degraded graph within half of the cold replan's rate (the kept
     trees alone guarantee far more in practice; this is the hard
     floor). Both paths are heuristic integral roundings of the same
     fractional packing, so neither strictly dominates — warm
     occasionally beats cold (e.g. fail 2-3 on DGX-1V) — and only the
     floor is asserted. *)
  List.iter
    (fun (u, v, _) ->
      let gpus = Array.init 8 Fun.id in
      let warm = Blink.create Server.dgx1v ~gpus in
      let cold = Blink.create Server.dgx1v ~gpus in
      Blink.fail_link ~replan:`Warm warm ~u ~v;
      Blink.fail_link ~replan:`Cold cold ~u ~v;
      let label = Printf.sprintf "fail %d-%d" u v in
      let wr = Blink.all_reduce_rate warm and cr = Blink.all_reduce_rate cold in
      Alcotest.(check bool) (label ^ ": warm rate positive") true (wr > 0.);
      Alcotest.(check bool) (label ^ ": warm above the floor") true
        (wr >= 0.5 *. cr))
    Server.dgx1v.Server.nvlinks

let test_treegen_replan_short_circuit () =
  (* When no tree is displaced (identical graph), the MWU/ILP stages are
     skipped and the previous trees come back verbatim. *)
  let g = Server.nvlink_digraph Server.dgx1v ~gpus:full in
  let root = Treegen.best_root g in
  let prev = Treegen.plan g ~root ~undirected:true in
  let packing, stats = Treegen.replan ~prev ~prev_graph:g g ~root in
  Alcotest.(check int) "all trees kept"
    (List.length prev.Treegen.trees)
    stats.Treegen.kept_trees;
  Alcotest.(check int) "nothing displaced" 0 stats.Treegen.displaced_trees;
  Alcotest.(check bool) "not a cold fallback" false stats.Treegen.cold_fallback;
  Alcotest.(check bool) "trees identical" true
    (packing.Treegen.trees = prev.Treegen.trees);
  Alcotest.(check (float 0.)) "rate identical" prev.Treegen.rate
    packing.Treegen.rate

let test_contingency_prewarm_and_hit () =
  let elems = 65_536 in
  let h = Blink.create Server.dgx1v ~gpus:full in
  ignore (Blink.plan h Plan.All_reduce ~elems);
  let built =
    Blink.prewarm ~contingencies:(`Pairs [ (5, 6) ]) h
      [ (Plan.All_reduce, elems) ]
  in
  Alcotest.(check bool) "prewarm built the contingency" true (built >= 1);
  Blink.fail_link h ~u:5 ~v:6;
  let t = Blink.telemetry h in
  Alcotest.(check int) "failover hit the contingency bucket" 1
    (Telemetry.counter_value t "plan.contingency.hits");
  Alcotest.(check int) "no live replan" 0
    (Telemetry.counter_value t "plan.contingency.misses");
  (* A contingency plan is a cold plan built early: full bit-identity
     against a fresh handle on the degraded fabric. *)
  let fresh =
    Blink.create ~link_faults:[ ((5, 6), Server.Down) ] Server.dgx1v ~gpus:full
  in
  Alcotest.(check (float 0.)) "exact degraded rate"
    (Blink.all_reduce_rate fresh) (Blink.all_reduce_rate h);
  check_same_plan "all_reduce after contingency failover"
    (Blink.plan h Plan.All_reduce ~elems)
    (Blink.plan fresh Plan.All_reduce ~elems)

let test_isomorphic_tenants_share_contingencies () =
  (* One tenant pays for the contingency; an isomorphic tenant on the
     same shared store fails over through it without ever replanning. *)
  let elems = 65_536 in
  let store = Blink.new_store () in
  let a = Blink.create ~store Server.dgx1v ~gpus:full in
  let b = Blink.create ~store Server.dgx1v ~gpus:full in
  ignore (Blink.plan a Plan.All_reduce ~elems);
  ignore
    (Blink.prewarm ~contingencies:(`Pairs [ (5, 6) ]) a
       [ (Plan.All_reduce, elems) ]);
  Blink.fail_link b ~u:5 ~v:6;
  Alcotest.(check int) "tenant B hit tenant A's contingency" 1
    (Telemetry.counter_value (Blink.telemetry b) "plan.contingency.hits");
  let stats = Blink.store_stats store in
  Alcotest.(check int) "store counted the shared hit" 1
    stats.Blink_store.Store.contingency_hits;
  Alcotest.(check int) "no store-level miss" 0
    stats.Blink_store.Store.contingency_misses;
  let fresh =
    Blink.create ~link_faults:[ ((5, 6), Server.Down) ] Server.dgx1v ~gpus:full
  in
  Alcotest.(check (float 0.)) "exact degraded rate via shared contingency"
    (Blink.all_reduce_rate fresh) (Blink.all_reduce_rate b);
  check_same_plan "tenant B plan after shared-contingency failover"
    (Blink.plan b Plan.All_reduce ~elems)
    (Blink.plan fresh Plan.All_reduce ~elems)

let test_chunk_reuse_only_when_rate_unchanged () =
  (* First fault moves the bottleneck rate: the tuned chunk re-probes
     (from the old optimum). Second fault leaves the repacked rate
     unchanged: the chunk is reused outright, no probes. *)
  let elems = 65_536 in
  let h = Blink.create Server.dgx1v ~gpus:full in
  ignore (Blink.plan h Plan.All_reduce ~elems);
  let t = Blink.telemetry h in
  Blink.fail_link h ~u:0 ~v:1;
  ignore (Blink.plan h Plan.All_reduce ~elems);
  Alcotest.(check int) "rate moved: chunk re-probed" 1
    (Telemetry.counter_value t "plan.chunk.retuned");
  Alcotest.(check int) "rate moved: no blind reuse" 0
    (Telemetry.counter_value t "plan.chunk.reused");
  let rate_before = Blink.all_reduce_rate h in
  Blink.fail_link h ~u:0 ~v:3;
  Alcotest.(check (float 0.)) "second fault leaves the rate unchanged"
    rate_before (Blink.all_reduce_rate h);
  ignore (Blink.plan h Plan.All_reduce ~elems);
  Alcotest.(check int) "rate unchanged: chunk reused" 1
    (Telemetry.counter_value t "plan.chunk.reused");
  Alcotest.(check int) "rate unchanged: no re-probe" 1
    (Telemetry.counter_value t "plan.chunk.retuned")

(* Bit-identity pins for the planner's numerics: the campaign's two
   slowest fault sequences (bench/e2e failover), each on a fresh DGX-1V-8
   handle, with both packings pinned after every step — tree count, rate
   (float equality) and, per tree, the MD5 of its edge list and its
   weight printed [%h]. A numerics change in the simplex, the ILP or
   TreeGen that alters either packing on these sequences fails here. *)
type pin = { trees : int; rate : float; digests : string list }

let pin trees rate digests = { trees; rate; digests }

let tree_digest (t : Treegen.tree) =
  Digest.to_hex
    (Digest.string
       (String.concat "," (List.map string_of_int t.Treegen.edges)
       ^ Printf.sprintf "|%h" t.Treegen.weight))

let check_pin label expected = function
  | None -> Alcotest.fail (label ^ ": missing packing")
  | Some (p : Treegen.packing) ->
      Alcotest.(check int) (label ^ ": trees") expected.trees
        (List.length p.Treegen.trees);
      Alcotest.(check (float 0.)) (label ^ ": rate") expected.rate p.Treegen.rate;
      Alcotest.(check (list string))
        (label ^ ": tree digests")
        expected.digests
        (List.map tree_digest p.Treegen.trees)

let pinned_sequences =
  [
    [
      ( "warm degrade 1-5",
        (fun h -> Blink.degrade_link h ~u:1 ~v:5 ~factor:0.5),
        pin 7 0x1.aep+6
          [
            "0933d6c317b5604db7f3f8c4bb94f709"; "2f6e84b769b362c0c34ec6f6997b3946";
            "a881351432453dc2f88fa14296bfa92b"; "839fd1dba2651ad6535e8b8c6710e509";
            "40a1b0a4e92b254716fc9fd9c1c9576f"; "9bba2588add5d76c0aa25800b14e0ec9";
            "803e42e2c639be6a57dcb2f6c0eca892";
          ],
        pin 14 0x1.1055555555554p+6
          [
            "10b2253628c208eb0adea1d5759ccf2f"; "27c852a70376db8cda347b3d22c5f477";
            "8fa235128629144e4e8f5fafa64734dc"; "36f8436eaedf960139a3ecc6042ef862";
            "657f6f8a400ce727904c2cc2819a689d"; "516b6327e1bd6cb060fddf1a83d573a9";
            "715ac8e8a1dfd5ad4c26053cc0222f22"; "d6086110cbc061786a196f7d1e494412";
            "fb8b8b7c0c033286e68bdac4ecfe1177"; "7bf50408156fa9edcd688dcc76e7618e";
            "b6ff8760f2f543f58745338bb9526ee8"; "64c28f962f8ceb48e47cdc97f43c45bd";
            "271c2e395ffc27df0cbda4741df2347a"; "d47b6128368024def43b37cd5e1167be";
          ] );
      ( "warm fail 4-6",
        (fun h -> Blink.fail_link h ~u:4 ~v:6),
        pin 7 0x1.aep+6
          [
            "350f5c08f99366d5fab8aca39020f869"; "9383e847520a673c230b3c18a2183add";
            "797746f3e20a61bbca07d1e32ac16f6a"; "7e0d5b78ed7f54f315a479061dc58de3";
            "a311d7736f0cd123081ffcc4c34b4f47"; "09f940ff9550c50ae8479b472f3df52d";
            "026c091dcc47943e55c57b66ce89d17d";
          ],
        pin 11 0x1.02p+6
          [
            "f2382690fa2081be9c4e01afb0fc7432"; "9b784df0740ea78835c463637eccd413";
            "7ca7d2a575c551e9f2ea1362674f0724"; "242c1409b0fb542e100e27554ac305d9";
            "21d6fd82f7daf1a26cdb1cb3e356a028"; "4b50f8b7e62e7c659f8693ea558ea6d7";
            "8101a1785671818d3ec2c7f213ef0003"; "e2605bb5dee775a53e8a2d96b919f766";
            "116c274450236bf4fa681a3b7559d7ab"; "c76d92b8aefe974ff2788fd8447b1575";
            "eca1aaebc5267f6ab76d1027e36dd93a";
          ] );
      ( "warm fail 0-1",
        (fun h -> Blink.fail_link h ~u:0 ~v:1),
        pin 5 0x1.58p+6
          [
            "887e84a0d6afe3f7345083d3e8fa5320"; "cae6ffd36058e04701fc93722f6d853e";
            "7465933dd9509b5875b5161316bfb200"; "0de4a7f6a4f2c62bd3424d1edf54118a";
            "28d758910004a1d7f1919cd1f292cc0b";
          ],
        pin 12 0x1.f9ae147ae1478p+5
          [
            "7a17da9ead84ec7c9a56d953dcfa4726"; "cc77d4a0db9b276961e435f3704c798a";
            "570efdcbd2d06e85a1e974b0a83095ad"; "d48dbc584ab74c0a2b331e16cdbf3cf6";
            "003c804a07630b6249de3496065967e4"; "1b0d855346450d891fddb9ecd8a8290e";
            "916afdafc3097386962bac0317df66c1"; "becfb8051c8d8a76fac0dfe46f5b13f4";
            "5dfecf4638d9331311c606098e0bebcd"; "ed8750c14d135dc8e3f2ab08bd64341d";
            "b2d4fcb877bf2b9b22162eea8ca6d73e"; "8e8efa05620d1901ca731fda485468c7";
          ] );
    ];
    [
      ( "cold degrade 2-3",
        (fun h -> Blink.degrade_link ~replan:`Cold h ~u:2 ~v:3 ~factor:0.5),
        pin 10 0x1.aep+6
          [
            "9968df13da1fe1d6d5a4b3e3304a27d9"; "a89b8ae5cf25c7f9139fb4e324ccaa18";
            "086affaf9e01f20c6c974ef65ebefd71"; "8caf2708f6a379fe0dab2bc643e49863";
            "7617ed00023d4f9b8d5bd50b06512451"; "0be51a64c5f0ef88af8775eb41447491";
            "aec7c6e1726d275a0e906393d12c58d2"; "c3a19b2770f5cd32a10fd9bae18452c1";
            "8d1bfdc730438d5b290a989b161953fd"; "f010e0930fda240c5d0c88bc4fb9bd67";
          ],
        pin 14 0x1.11a2e8ba2e8b9p+6
          [
            "62a79e34f5ba582b6166131ecb93e544"; "4632965e23ee8b2deade746921837baa";
            "cb1f39487cc7b9ba7fa7880610185be8"; "cc2d98d06d69d9a3a6a88f598de253e9";
            "4af0d46f4b691b75cca92befef834be2"; "ef5c4a3b2cb0b937f426e4f27c7d28eb";
            "dd7d6248f34b3d6e7e5a30166a58f7d8"; "4a99b009209e8a58273831d091ed005d";
            "b58bf9b1dc62a353163fdd9ac4cae3dc"; "caaba07ed901c56b61a7d978746d89d6";
            "c364d7aae81e3c7b9f1a09145e45e13b"; "0d31ed582e8318f1b3441a86509e5721";
            "a8f7619b502fa5e031b786b305de368c"; "5e20411d525a1d3c6bdbac7d9e6e70ad";
          ] );
      ( "warm fail 4-7",
        (fun h -> Blink.fail_link h ~u:4 ~v:7),
        pin 6 0x1.58p+6
          [
            "d27911b791fa384611a4dae09326d031"; "b93266610ae6969a9440d0204ed1e1dc";
            "32007110f5d82d625c90af1c975394bb"; "e37d126b7af7b7e860dcc07f312868c7";
            "8f414fa133ddb9702d322bb049fef313"; "2cf6d94cf9da60e2d7076c56d961a747";
          ],
        pin 6 0x1.02p+6
          [
            "436895cfa631e37938c7ab1898fa028c"; "1787f724b8db273ee4a8845386c30ed1";
            "654c94a32f5800a96a2207472d0c5708"; "40d27b636cc6f715dc5dd4a764f8dba0";
            "e36def20693b0b6de85c5fa8bb0374dd"; "febf9673afaf1d8f3290a6cfff3b72d7";
          ] );
      ( "warm fail 0-2",
        (fun h -> Blink.fail_link h ~u:0 ~v:2),
        pin 8 0x1.58p+6
          [
            "1e1d0b34ae2c2d49662f65b71dc534bd"; "db2c3584311d943aa08d1a82d06dbb95";
            "5525bb1f65db88f128bc6a06662264ba"; "24ab5ddf40ceb836e5d9ae597d089765";
            "67ba77a3d54773da39035d1cfe097ae2"; "06cca9a57fd88f7e91582d50762d1db0";
            "fe45cbad4fc20a392ac3cc3a73166b00"; "a182e1f8232535ad25570a69ae7b0758";
          ],
        pin 8 0x1.d9p+5
          [
            "a6f19c664eac22640ed2d1cfd3769d4e"; "2073d725553c9000f13e5e3f343c57de";
            "2f46a8a61a14bd43fbaceac5ac667822"; "1331984a2989e88917f3b79c8dbf523b";
            "de6a9ee1ec39ca39b309e5f96dfb23a6"; "29b06c63f89b8952851354cf2dca375f";
            "24c0a940137ed6ad404825f0a87436e2"; "e7d96bbe20c033b77f93dae19e4bcaea";
          ] );
    ];
  ]

let test_slowest_sequences_pinned () =
  List.iter
    (fun steps ->
      let h = Blink.create Server.dgx1v ~gpus:full in
      List.iter
        (fun (label, fault, directed, undirected) ->
          fault h;
          check_pin (label ^ " directed") directed (Blink.packing h);
          check_pin (label ^ " undirected") undirected
            (Blink.undirected_packing h))
        steps;
      (* The relaxation-count search is exact only while every
         branch-and-bound finishes: none may stop at its node limit. *)
      let t = Blink.telemetry h in
      List.iter
        (fun mode ->
          let labels = [ ("mode", mode) ] in
          Alcotest.(check bool)
            (mode ^ ": ILP attempts recorded") true
            (Telemetry.counter_value t ~labels "treegen.ilp.attempts" > 0);
          Alcotest.(check int)
            (mode ^ ": no node-limit hits") 0
            (Telemetry.counter_value t ~labels "treegen.ilp.node_limit_hits"))
        [ "directed"; "undirected" ])
    pinned_sequences

let () =
  Alcotest.run "failover"
    [
      ( "replanning",
        [
          Alcotest.test_case "fail_link matches fresh handle" `Quick
            test_fail_link_matches_fresh_handle;
          Alcotest.test_case "two links removed" `Quick
            test_two_links_removed_matches_fresh_handle;
          Alcotest.test_case "degrade_link matches fresh handle" `Quick
            test_degrade_link_matches_fresh_handle;
          Alcotest.test_case "fail_gpu matches fresh handle" `Quick
            test_fail_gpu_matches_fresh_handle;
          Alcotest.test_case "keyed invalidation spares unaffected" `Quick
            test_keyed_invalidation_spares_unaffected_plans;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "warm replan exact-rate matrix" `Quick
            test_warm_replan_exact_rate_matrix;
          Alcotest.test_case "warm replan feasible on all single faults"
            `Quick test_warm_replan_feasible_on_all_single_faults;
          Alcotest.test_case "treegen replan short-circuit" `Quick
            test_treegen_replan_short_circuit;
          Alcotest.test_case "contingency prewarm and hit" `Quick
            test_contingency_prewarm_and_hit;
          Alcotest.test_case "isomorphic tenants share contingencies" `Quick
            test_isomorphic_tenants_share_contingencies;
          Alcotest.test_case "chunk reuse only when rate unchanged" `Quick
            test_chunk_reuse_only_when_rate_unchanged;
          Alcotest.test_case "slowest campaign sequences pinned" `Quick
            test_slowest_sequences_pinned;
        ] );
      ( "partition",
        [
          Alcotest.test_case "typed error, no stale execution" `Quick
            test_partition_raises_typed_error;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "comm data path" `Quick test_comm_failover_data_path;
          Alcotest.test_case "mid-run fault on compiled plan" `Quick
            test_midrun_fault_on_compiled_plan;
        ] );
      ( "validation",
        [
          Alcotest.test_case "mutation arguments" `Quick test_mutation_validation;
          Alcotest.test_case "telemetry counters" `Quick test_replan_telemetry;
        ] );
    ]
