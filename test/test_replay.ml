(* Replay equivalence: the zero-allocation steady-state paths must be
   indistinguishable from the seed paths they replaced.

   - Data: the Bigarray float32 slab semantics produce element-identical
     buffers to the seed float-array reference (Semantics.Ref) for all
     six collectives (inputs are small integers, exact in float32), on
     DGX-1V {1,4,5,6} and on the full DGX-2's one-hop NVSwitch trees.
   - Timing: a plan's prepared-schedule replay (Engine.run_prepared on
     the plan's arena) returns the same makespan/start/finish/busy as a
     from-scratch Engine.run, under both queueing policies, including
     repeated runs on one arena.
   - Pooling: Plan.execute's pooled memory resets cleanly, so repeated
     executes yield identical replay buffers.
   - Allocation: steady-state Comm collectives with data in and out
     allocate a fixed, element-count-independent number of minor words,
     and timing-only replay stays within a fixed per-run budget. *)

module Server = Blink_topology.Server
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Comm = Blink_core.Comm
module Codegen = Blink_collectives.Codegen
module P = Blink_sim.Program
module E = Blink_sim.Engine
module Sem = Blink_sim.Semantics

let collectives =
  [
    Plan.All_reduce;
    Plan.Broadcast;
    Plan.Reduce;
    Plan.Gather;
    Plan.All_gather;
    Plan.Reduce_scatter;
  ]

let handle = lazy (Blink.create Server.dgx1v ~gpus:[| 1; 4; 5; 6 |])
let dgx2 = lazy (Blink.create Server.dgx2 ~gpus:(Array.init 16 Fun.id))

let elems = 3_000
let chunk_elems = 512

let plan_on handle collective =
  Blink.plan ~chunk_elems (Lazy.force handle) collective ~elems

let plan_for = plan_on handle

(* DGX-2-16 kernel tables as (raw, compiled): one kernel per op action,
   then what contiguity batching leaves. A change here is a compiler or
   codegen change, not noise. Broadcast and reduce run over the 15
   two-hop relay trees. *)
let dgx2_kernels = function
  | Plan.All_reduce -> (960, 960)
  | Plan.Broadcast -> (450, 450)
  | Plan.Reduce -> (450, 450)
  | Plan.Gather -> (181, 31)
  | Plan.All_gather -> (2896, 496)
  | Plan.Reduce_scatter -> (480, 480)

let inputs k =
  Array.init k (fun r ->
      Array.init elems (fun i -> Float.of_int (((i * 3) + (r * 7)) mod 11)))

(* Fill every rank's data buffer in both memories; rooted collectives
   read only some of them, identically in both implementations. *)
let load_both prog (layout : Codegen.layout) =
  let k = Array.length layout.Codegen.data in
  let ins = inputs k in
  let mem = Sem.memory_of_program prog in
  let rmem = Sem.Ref.memory_of_program prog in
  Array.iteri
    (fun r values ->
      Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) values;
      Sem.Ref.write rmem ~node:r ~buf:layout.Codegen.data.(r) values)
    ins;
  (mem, rmem)

(* Replay [collective] on [handle] through both implementations and
   return the compiled memory for further checks. *)
let check_against_ref label handle collective =
  let plan = plan_on handle collective in
  let prog = plan.Plan.program in
  let mem, rmem = load_both prog plan.Plan.layout in
  Sem.run prog mem;
  Sem.Ref.run prog rmem;
  (* Compare every declared buffer, not just the data ones: rooted
     collectives also produce scratch/output buffers. *)
  List.iter
    (fun (node, buf, _len) ->
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "%s %s node=%d buf=%d" label
           (Plan.collective_name collective)
           node buf)
        (Sem.Ref.read rmem ~node ~buf)
        (Sem.read mem ~node ~buf))
    (P.buffers prog);
  (prog, mem)

let test_data_equivalence collective () =
  ignore (check_against_ref "dgx1v-4" handle collective);
  let prog, mem = check_against_ref "dgx2-16" dgx2 collective in
  let raw, compiled = dgx2_kernels collective in
  Alcotest.(check (triple int int int))
    (Plan.collective_name collective ^ " dgx2-16 kernel_stats")
    (raw, compiled, 0)
    (Sem.kernel_stats mem prog)

let check_results_equal label (a : E.result) (b : E.result) =
  Alcotest.(check (float 0.)) (label ^ ": makespan") a.E.makespan b.E.makespan;
  Alcotest.(check (array (float 0.))) (label ^ ": start") a.E.start b.E.start;
  Alcotest.(check (array (float 0.))) (label ^ ": finish") a.E.finish b.E.finish;
  Alcotest.(check (array (float 0.))) (label ^ ": busy") a.E.busy b.E.busy

let test_timing_equivalence collective () =
  let plan = plan_for collective in
  let name = Plan.collective_name collective in
  List.iter
    (fun (pname, policy) ->
      let baseline =
        E.run ~policy ~resources:plan.Plan.resources plan.Plan.program
      in
      (* Three replays on the plan's own arena: first sizes it, the rest
         prove resets leak nothing. *)
      for round = 1 to 3 do
        let replay =
          E.run_prepared ~policy ~arena:plan.Plan.arena plan.Plan.prepared
        in
        check_results_equal
          (Printf.sprintf "%s %s round %d" name pname round)
          baseline replay
      done)
    [ ("fair", `Fair); ("priority", `Stream_priority) ]

let test_pooled_execute () =
  let plan = plan_for Plan.All_reduce in
  let k = plan.Plan.n_ranks in
  let ins = inputs k in
  let load mem (layout : Codegen.layout) =
    Array.iteri
      (fun r buf -> Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) buf)
      ins
  in
  let read exec =
    let mem = Option.get exec.Plan.memory in
    Array.init k (fun r ->
        Sem.read mem ~node:r ~buf:plan.Plan.layout.Codegen.data.(r))
  in
  let e1 = Plan.execute ~load plan in
  let out1 = read e1 in
  let e2 = Plan.execute ~load plan in
  let out2 = read e2 in
  Alcotest.(check bool) "pooled memory is reused" true
    (Option.get e1.Plan.memory == Option.get e2.Plan.memory);
  Array.iteri
    (fun r a ->
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "identical replay, rank %d" r)
        a out2.(r))
    out1;
  let e3 = Plan.execute ~reuse_memory:false ~load plan in
  Alcotest.(check bool) "fresh memory on request" true
    (Option.get e3.Plan.memory != Option.get e2.Plan.memory);
  Alcotest.(check (float 0.)) "same timing" (Plan.seconds e1) (Plan.seconds e3)

(* The pooled path zeroes lazily (only buffers a replay could observe,
   and only when the load didn't rewrite them). Executing with no load
   after a loaded execute is the adversarial case: every input buffer
   holds stale data and must come back as if the memory were fresh. *)
let test_pooled_no_load collective () =
  let plan = plan_for collective in
  let prog = plan.Plan.program in
  let k = plan.Plan.n_ranks in
  let ins = inputs k in
  let load mem (layout : Codegen.layout) =
    Array.iteri
      (fun r buf -> Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) buf)
      ins
  in
  ignore (Plan.execute ~load plan);
  let e = Plan.execute plan in
  let mem = Option.get e.Plan.memory in
  let fresh = Sem.memory_of_program prog in
  Sem.run prog fresh;
  List.iter
    (fun (node, buf, _len) ->
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "%s node=%d buf=%d"
           (Plan.collective_name collective)
           node buf)
        (Sem.read fresh ~node ~buf)
        (Sem.read mem ~node ~buf))
    (P.buffers prog)

(* Data-path allocation guard: a steady-state Comm collective with data
   in and out allocates a small fixed number of minor words per call.
   Each result buffer is one unboxed float array, past the minor-heap
   size limit at this size, so it lands on the major heap; per-element
   boxing on read-back would cost >= 2 words per element (millions per
   call here) and blow the budget immediately. *)
let guard_elems = 262_144
let minor_word_budget = 16_384.

let dgx8 = lazy (Comm.init Server.dgx1v ~gpus:(Array.init 8 Fun.id))

let minor_words_per_call f =
  (* Two warm-up calls: plan compile, pooled memory and kernel table. *)
  ignore (f ());
  ignore (f ());
  let calls = 4 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. Float.of_int calls

let test_alloc_guard name collective () =
  let c = Lazy.force dgx8 in
  let ins =
    Array.init 8 (fun r ->
        Array.init guard_elems (fun i -> Float.of_int ((i + r) land 15)))
  in
  let words = minor_words_per_call (fun () -> collective c ins) in
  if words > minor_word_budget then
    Alcotest.failf "%s: %.0f minor words per call at %d elems (budget %.0f)"
      name words guard_elems minor_word_budget

(* Timing-only replay guard: a steady-state [Plan.execute ~data:false]
   runs the engine's event loop on the plan's arena and allocates only
   the execution record and telemetry bookkeeping, never per op. The
   budget is the replay bench's; the fine chunking gives the plan ~1,800
   ops, so even one boxed float per op (2 words) would blow it. *)
let timing_word_budget = 2048.

let test_timing_alloc_guard () =
  let handle = Blink.create Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
  let plan =
    Blink.plan ~chunk_elems:8_192 handle Plan.All_reduce ~elems:1_000_000
  in
  let words = minor_words_per_call (fun () -> Plan.execute ~data:false plan) in
  if words > timing_word_budget then
    Alcotest.failf "all_reduce: %.0f minor words per timing-only run (budget %.0f)"
      words timing_word_budget

(* The allocation contract of the event loop: a steady-state
   [run_prepared] allocates the same minor words whatever the program
   size, the result record and nothing per op. The 2,016-op DGX-1V-8
   all-reduce of the guard above against one of 55,104 ops, under
   both policies, with and without the flight recorder. *)
let test_run_prepared_alloc_flat () =
  let handle = Blink.create Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
  let small = Blink.plan ~chunk_elems:8_192 handle Plan.All_reduce ~elems:1_000_000 in
  let big = Blink.plan ~chunk_elems:1_024 handle Plan.All_reduce ~elems:4_000_000 in
  let ops plan = E.prepared_ops plan.Plan.prepared in
  Alcotest.(check bool)
    (Printf.sprintf "big schedule has >= 50k ops (%d)" (ops big))
    true
    (ops big >= 50_000);
  List.iter
    (fun (label, policy, record) ->
      let words plan =
        let recorder = if record then plan.Plan.recorder else Blink_sim.Recorder.none in
        minor_words_per_call (fun () ->
            E.run_prepared ~policy ~arena:plan.Plan.arena ~recorder plan.Plan.prepared)
      in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s: %d ops vs %d ops" label (ops small) (ops big))
        (words small) (words big))
    [
      ("fair", `Fair, false);
      ("priority", `Stream_priority, false);
      ("fair, recorded", `Fair, true);
    ]

(* The event loop keeps all its state in the arena. The 72 plans of the
   end-to-end topology sweep replay on two domains at once, each domain
   on its own arena and in its own order, three rounds each; every
   result must be bit-identical to a sequential replay. *)
let test_domains_replay_like_sequential () =
  let plans = Blink_scenario.Scenario.sweep_plans () in
  let bits (r : E.result) =
    ( Int64.bits_of_float r.E.makespan,
      Array.map Int64.bits_of_float r.E.start,
      Array.map Int64.bits_of_float r.E.finish,
      Array.map Int64.bits_of_float r.E.busy )
  in
  let replay arena p = bits (E.run_prepared ~arena p.Plan.prepared) in
  let sequential = Array.map (replay (E.arena ())) plans in
  let n = Array.length plans in
  let ready = Atomic.make 0 in
  let worker order () =
    let arena = E.arena () in
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let mismatches = ref 0 in
    for _ = 1 to 3 do
      Array.iter
        (fun i -> if replay arena plans.(i) <> sequential.(i) then incr mismatches)
        order
    done;
    !mismatches
  in
  let forward = Array.init n Fun.id and backward = Array.init n (fun i -> n - 1 - i) in
  let other = Domain.spawn (worker backward) in
  let here = worker forward () in
  let there = Domain.join other in
  Alcotest.(check int) "72 plans" 72 n;
  Alcotest.(check (pair int int)) "no replay differs from sequential" (0, 0) (here, there)

let () =
  Alcotest.run "replay"
    [
      ( "data equivalence",
        List.map
          (fun c ->
            Alcotest.test_case (Plan.collective_name c) `Quick
              (test_data_equivalence c))
          collectives );
      ( "timing equivalence",
        List.map
          (fun c ->
            Alcotest.test_case (Plan.collective_name c) `Quick
              (test_timing_equivalence c))
          collectives );
      ( "pooled execute",
        [ Alcotest.test_case "reset + reuse" `Quick test_pooled_execute ] );
      ( "lazy reset",
        List.map
          (fun c ->
            Alcotest.test_case (Plan.collective_name c) `Quick
              (test_pooled_no_load c))
          collectives );
      ( "data-path allocation",
        [
          Alcotest.test_case "all_reduce" `Quick
            (test_alloc_guard "all_reduce" (fun c ins ->
                 (Comm.all_reduce c ins).Comm.value));
          Alcotest.test_case "reduce_scatter" `Quick
            (test_alloc_guard "reduce_scatter" (fun c ins ->
                 (Comm.reduce_scatter c ins).Comm.value));
        ] );
      ( "timing-only allocation",
        [
          Alcotest.test_case "all_reduce" `Quick test_timing_alloc_guard;
          Alcotest.test_case "flat in program size" `Quick test_run_prepared_alloc_flat;
        ] );
      ( "domains",
        [
          Alcotest.test_case "72 plans, two domains" `Quick
            test_domains_replay_like_sequential;
        ] );
    ]
