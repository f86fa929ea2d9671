(* Prepare-time op fusion: fused dispatch must be an invisible
   optimization.

   - Timing: Engine.prepare ~fuse:true vs ~fuse:false produce bit-identical
     makespan/start/finish/busy for all six collectives under both
     queueing policies (fusion only fires when the contention analysis
     proves it exact, so this holds whether or not chains formed).
   - Data: the compiled semantics replay of a fused plan still matches the
     seed float-array reference element for element.
   - Attribution: fused dispatch keeps original-op granularity — the
     recorder sees one begin/end pair per original op at the same times,
     the fused chains are the ones a reference walk over the program
     finds, and Critical_path output is unchanged.
   - Arena guard: concurrent use of one arena raises Invalid_argument
     instead of corrupting state, and the arena is reusable afterwards. *)

module Server = Blink_topology.Server
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Codegen = Blink_collectives.Codegen
module P = Blink_sim.Program
module E = Blink_sim.Engine
module Sem = Blink_sim.Semantics
module Recorder = Blink_sim.Recorder
module Critical_path = Blink_sim.Critical_path

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
let elems = 3_000
let chunk_elems = 512
let plan_for collective = Blink.plan ~chunk_elems (Lazy.force handle) collective ~elems

(* Chunks large enough that transfer durations exceed the issue gap: the
   contention analysis then proves four of the six collectives
   contention-free and chains actually form (tiny 2 KB chunks leave every
   schedule conservatively unfused — which the small-scale tests cover). *)
let fused_elems = 262_144
let fused_chunk = 32_768

let fused_plan_for collective =
  Blink.plan ~chunk_elems:fused_chunk (Lazy.force handle) collective
    ~elems:fused_elems

let check_results_equal label (a : E.result) (b : E.result) =
  Alcotest.(check (float 0.)) (label ^ ": makespan") a.E.makespan b.E.makespan;
  Alcotest.(check (array (float 0.))) (label ^ ": start") a.E.start b.E.start;
  Alcotest.(check (array (float 0.))) (label ^ ": finish") a.E.finish b.E.finish;
  Alcotest.(check (array (float 0.))) (label ^ ": busy") a.E.busy b.E.busy

(* Fused and unfused replays of the same program must be bit-identical in
   every timing output, under both policies. *)
let test_bit_identical collective () =
  let plan = fused_plan_for collective in
  let name = Plan.collective_name collective in
  let fused = E.prepare ~fuse:true ~resources:plan.Plan.resources plan.Plan.program in
  let plain = E.prepare ~fuse:false ~resources:plan.Plan.resources plan.Plan.program in
  Alcotest.(check bool)
    (name ^ ": ~fuse:false forces unfused dispatch")
    false (E.fusion_enabled plain);
  List.iter
    (fun (pname, policy) ->
      let a = E.run_prepared ~policy ~arena:(E.arena ()) fused in
      let b = E.run_prepared ~policy ~arena:(E.arena ()) plain in
      check_results_equal (Printf.sprintf "%s %s" name pname) b a)
    [ ("fair", `Fair); ("priority", `Stream_priority) ]

(* The suite must actually exercise the fused path: chains form on the
   pipelined chunk schedules whenever the contention analysis passes, and
   a disabled analysis must report zero chains. *)
let test_fusion_fires () =
  let fired =
    List.filter
      (fun c ->
        let plan = fused_plan_for c in
        let p =
          E.prepare ~fuse:true ~resources:plan.Plan.resources plan.Plan.program
        in
        if not (E.fusion_enabled p) then begin
          Alcotest.(check int)
            (Plan.collective_name c ^ ": no chains when fusion is off")
            0 (E.fused_chains p);
          false
        end
        else E.fused_chains p > 0)
      collectives
  in
  Alcotest.(check bool)
    (Printf.sprintf "fusion fires on %d/6 collectives" (List.length fired))
    true
    (List.length fired >= 3)

(* The op -> chain map, rebuilt from the program: a stream edge links a
   chain when both ops run on one resource and the stream edge is the
   successor's only dependency; chains are the maximal runs of such
   links. The engine's chain and op counts must match this walk. *)
let test_fused_map collective () =
  let plan = fused_plan_for collective in
  let prog = plan.Plan.program in
  let p = E.prepare ~fuse:true ~resources:plan.Plan.resources prog in
  let n = E.prepared_ops p in
  let next = Array.make n (-1) and linked = Array.make n false in
  if E.fusion_enabled p then
    P.iter_stream_edges
      (fun ~pred ~succ ->
        let res id = P.resource_of_op (P.op prog id) in
        if res pred <> None && res pred = res succ && (P.op prog succ).P.deps = []
        then begin
          next.(pred) <- succ;
          linked.(succ) <- true
        end)
      prog;
  let chains = ref 0 and covered = ref 0 in
  for id = 0 to n - 1 do
    if next.(id) >= 0 && not linked.(id) then begin
      incr chains;
      let m = ref id in
      while !m >= 0 do
        incr covered;
        m := next.(!m)
      done
    end
  done;
  let name = Plan.collective_name collective in
  Alcotest.(check int) (name ^ ": fused_chains matches chain walk") !chains
    (E.fused_chains p);
  Alcotest.(check int) (name ^ ": fused_ops matches chain walk") !covered
    (E.fused_ops p)

(* Recorder attribution: a fused replay still writes exactly one begin and
   one end event per original op, at that op's start/finish times. *)
let test_recorder_attribution collective () =
  let plan = fused_plan_for collective in
  let p = E.prepare ~fuse:true ~resources:plan.Plan.resources plan.Plan.program in
  let n = E.prepared_ops p in
  let cap = 4 * (n + 2) in
  let recorder = Recorder.create ~capacity:cap () in
  let r = E.run_prepared ~arena:(E.arena ()) ~recorder p in
  let begins = Array.make n 0 and ends = Array.make n 0 in
  List.iter
    (fun (e : Recorder.event) ->
      match e.Recorder.kind with
      | Recorder.Begin ->
          begins.(e.Recorder.op) <- begins.(e.Recorder.op) + 1;
          Alcotest.(check (float 0.))
            (Printf.sprintf "begin time of op %d" e.Recorder.op)
            r.E.start.(e.Recorder.op) e.Recorder.time
      | Recorder.End ->
          ends.(e.Recorder.op) <- ends.(e.Recorder.op) + 1;
          Alcotest.(check (float 0.))
            (Printf.sprintf "end time of op %d" e.Recorder.op)
            r.E.finish.(e.Recorder.op) e.Recorder.time
      | Recorder.Retry -> ())
    (Recorder.events recorder);
  for id = 0 to n - 1 do
    Alcotest.(check int) (Printf.sprintf "one begin for op %d" id) 1 begins.(id);
    Alcotest.(check int) (Printf.sprintf "one end for op %d" id) 1 ends.(id)
  done

(* Critical-path attribution consumes per-original-op start/finish, so a
   fused and an unfused run must attribute identically. *)
let test_critical_path collective () =
  let plan = fused_plan_for collective in
  let prog = plan.Plan.program in
  let fused = E.prepare ~fuse:true ~resources:plan.Plan.resources prog in
  let plain = E.prepare ~fuse:false ~resources:plan.Plan.resources prog in
  let ra = E.run_prepared ~arena:(E.arena ()) fused in
  let rb = E.run_prepared ~arena:(E.arena ()) plain in
  let resources = plan.Plan.resources in
  let aa = Critical_path.attribute ~resources prog ra in
  let ab = Critical_path.attribute ~resources prog rb in
  let ops att = List.map (fun s -> s.Critical_path.op) att.Critical_path.path in
  Alcotest.(check (list int)) "same critical path" (ops ab) (ops aa);
  Alcotest.(check (float 0.)) "same makespan" ab.Critical_path.makespan
    aa.Critical_path.makespan;
  Alcotest.(check (float 0.)) "same transfer attribution"
    ab.Critical_path.transfer_s aa.Critical_path.transfer_s;
  Alcotest.(check (float 0.)) "same wait attribution" ab.Critical_path.wait_s
    aa.Critical_path.wait_s;
  Alcotest.(check bool) "same link table" true
    (ab.Critical_path.links = aa.Critical_path.links)

(* Data path: replaying a (fused) plan's program through the compiled
   semantics still matches the seed reference exactly. *)
let test_data_vs_ref collective () =
  let plan = plan_for collective in
  let prog = plan.Plan.program in
  let k = Array.length plan.Plan.layout.Codegen.data in
  let ins =
    Array.init k (fun r ->
        Array.init elems (fun i -> Float.of_int (((i * 5) + (r * 3)) mod 13)))
  in
  let mem = Sem.memory_of_program prog in
  let rmem = Sem.Ref.memory_of_program prog in
  Array.iteri
    (fun r values ->
      Sem.write mem ~node:r ~buf:plan.Plan.layout.Codegen.data.(r) values;
      Sem.Ref.write rmem ~node:r ~buf:plan.Plan.layout.Codegen.data.(r) values)
    ins;
  Sem.run prog mem;
  Sem.Ref.run prog rmem;
  List.iter
    (fun (node, buf, _len) ->
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "%s node=%d buf=%d"
           (Plan.collective_name collective)
           node buf)
        (Sem.Ref.read rmem ~node ~buf)
        (Sem.read mem ~node ~buf))
    (P.buffers prog)

(* ------------------------------------------------------------------ *)
(* Arena in-use guard. *)

(* A single-stream schedule big enough that one run takes visible wall
   time, so a second domain reliably lands inside the window. *)
let big_prepared () =
  let prog = P.create () in
  let s = P.fresh_stream prog in
  for _ = 1 to 300_000 do
    ignore
      (P.add prog ~stream:s
         (P.Transfer { bytes = 1024.; link = 0; bw_scale = 1.; action = None }))
  done;
  let resources =
    [| { E.bandwidth = 1e9; latency = 1e-6; lanes = 1; gap = 1e-9 } |]
  in
  E.prepare ~resources prog

let test_arena_guard_sequential () =
  let p = big_prepared () in
  let arena = E.arena () in
  (* Sequential reuse must stay legal: the flag is released per run. *)
  let r1 = E.run_prepared ~arena p in
  let m1 = r1.E.makespan in
  let r2 = E.run_prepared ~arena p in
  Alcotest.(check (float 0.)) "sequential reuse is unaffected" m1 r2.E.makespan

let test_arena_guard_concurrent () =
  let p = big_prepared () in
  let arena = E.arena () in
  let rounds = 40 in
  let stop = Atomic.make false in
  let conflicts = Atomic.make 0 in
  (* Both domains hammer the same arena; every attempt either runs
     cleanly (the other domain was between runs) or raises the guard's
     Invalid_argument — never corrupts state. Whichever side loses the
     race counts the conflict. *)
  let attempt () =
    match E.run_prepared ~arena p with
    | (_ : E.result) -> ()
    | exception Invalid_argument _ -> Atomic.incr conflicts
  in
  let owner =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          attempt ()
        done;
        Atomic.set stop true)
  in
  while (not (Atomic.get stop)) && Atomic.get conflicts = 0 do
    attempt ()
  done;
  Domain.join owner;
  Alcotest.(check bool) "concurrent use detected" true (Atomic.get conflicts > 0);
  (* The guard must have been released by whoever held it. *)
  let r = E.run_prepared ~arena p in
  Alcotest.(check bool) "arena usable after conflict" true (r.E.makespan > 0.)

let () =
  Alcotest.run "fusion"
    [
      ( "bit identity",
        List.map
          (fun c ->
            Alcotest.test_case (Plan.collective_name c) `Quick
              (test_bit_identical c))
          collectives );
      ( "coverage",
        [ Alcotest.test_case "chains form" `Quick test_fusion_fires ] );
      ( "attribution",
        List.concat_map
          (fun c ->
            [
              Alcotest.test_case
                (Plan.collective_name c ^ " map")
                `Quick (test_fused_map c);
              Alcotest.test_case
                (Plan.collective_name c ^ " recorder")
                `Quick
                (test_recorder_attribution c);
              Alcotest.test_case
                (Plan.collective_name c ^ " critical path")
                `Quick (test_critical_path c);
            ])
          collectives );
      ( "data",
        List.map
          (fun c ->
            Alcotest.test_case (Plan.collective_name c) `Quick
              (test_data_vs_ref c))
          collectives );
      ( "arena guard",
        [
          Alcotest.test_case "sequential reuse" `Quick
            test_arena_guard_sequential;
          Alcotest.test_case "concurrent use raises" `Quick
            test_arena_guard_concurrent;
        ] );
    ]
