module Pq = Blink_sim.Pqueue
module P = Blink_sim.Program
module E = Blink_sim.Engine
module Sem = Blink_sim.Semantics
module Fault = Blink_sim.Fault
module CP = Blink_sim.Critical_path

let check_float = Alcotest.(check (float 1e-9))
let check_time = Alcotest.(check (float 1e-7))

(* ------------------------------------------------------------------ *)
(* Program *)

let test_program_builder () =
  let p = P.create () in
  let s = P.fresh_stream p in
  let a = P.add p ~stream:s (P.Delay { seconds = 1. }) in
  let b = P.add p ~deps:[ a ] ~stream:s (P.Delay { seconds = 2. }) in
  Alcotest.(check int) "ops" 2 (P.n_ops p);
  Alcotest.(check (list int)) "stream order" [ a; b ] (P.stream_ops p s);
  Alcotest.(check (list int)) "topo" [ a; b ] (P.topological_order p);
  Alcotest.(check (list int)) "deps" [ a ] (P.op p b).P.deps

let test_program_errors () =
  let p = P.create () in
  let s = P.fresh_stream p in
  Alcotest.check_raises "forward dep" (Invalid_argument "Program.add: forward dependency")
    (fun () -> ignore (P.add p ~deps:[ 5 ] ~stream:s (P.Delay { seconds = 0. })));
  Alcotest.check_raises "unknown stream" (Invalid_argument "Program.add: unknown stream")
    (fun () -> ignore (P.add p ~stream:7 (P.Delay { seconds = 0. })));
  Alcotest.check_raises "negative delay" (Invalid_argument "Program.add: negative delay")
    (fun () -> ignore (P.add p ~stream:s (P.Delay { seconds = -1. })))

let test_program_buffers () =
  let p = P.create () in
  let b0 = P.declare_buffer p ~node:3 ~len:10 in
  let b1 = P.declare_buffer p ~node:3 ~len:20 in
  let c0 = P.declare_buffer p ~node:5 ~len:7 in
  Alcotest.(check (list int)) "dense per node" [ 0; 1; 0 ] [ b0; b1; c0 ];
  Alcotest.(check int) "len" 20 (P.buffer_len p ~node:3 ~buf:b1);
  Alcotest.(check int) "buffers" 3 (List.length (P.buffers p))

(* ------------------------------------------------------------------ *)
(* Engine *)

let one_link ?(bandwidth = 1e9) ?(latency = 0.) ?(lanes = 1) ?(gap = 0.) () =
  [| { E.bandwidth; latency; lanes; gap } |]

let transfer ?(bytes = 1e9) ?(bw_scale = 1.) link =
  P.Transfer { bytes; link; bw_scale; action = None }

let test_engine_single_transfer () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:5e8 0));
  let r = E.run ~resources:(one_link ()) p in
  check_time "half second" 0.5 r.E.makespan

let test_engine_latency_on_data_deps () =
  (* a -> b with latency 0.1: b starts at finish(a) + latency.
     c in a's stream: no latency between stream neighbours. *)
  let resources = one_link ~latency:0.1 () in
  let p = P.create () in
  let s = P.fresh_stream p in
  let a = P.add p ~stream:s (transfer ~bytes:1e9 0) in
  let s2 = P.fresh_stream p in
  ignore (P.add p ~deps:[ a ] ~stream:s2 (transfer ~bytes:1e9 0));
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let r = E.run ~resources p in
  (* op a: starts at 0.1 (initial latency), ends 1.1; stream mate starts 1.1
     (no extra latency), ends 2.1; dependent ready 1.1 + 0.1 = 1.2 but the
     lane is busy until 2.1, so it ends at 3.1. *)
  check_time "stream mate back-to-back" 2.1 r.E.finish.(2);
  check_time "dependent pays latency and waits" 3.1 r.E.finish.(1)

let test_engine_lanes () =
  let resources = [| { E.bandwidth = 1e9; latency = 0.; lanes = 2; gap = 0. } |] in
  let p = P.create () in
  for _ = 1 to 4 do
    let s = P.fresh_stream p in
    ignore (P.add p ~stream:s (transfer ~bytes:1e9 0))
  done;
  let r = E.run ~resources p in
  check_time "4 ops over 2 lanes" 2. r.E.makespan;
  check_float "busy" 4. r.E.busy.(0)

let test_engine_gap () =
  (* Tiny transfers: lane occupancy floors at the gap. *)
  let resources = one_link ~gap:0.5 () in
  let p = P.create () in
  for _ = 1 to 3 do
    let s = P.fresh_stream p in
    ignore (P.add p ~stream:s (transfer ~bytes:1. 0))
  done;
  let r = E.run ~resources p in
  (* data finishes fast but lanes release every 0.5s: third op starts at 1.0 *)
  check_time "issue-gap bound" 1.0 r.E.start.(2)

let test_engine_bw_scale () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 ~bw_scale:0.5 0));
  let r = E.run ~resources:(one_link ()) p in
  check_time "scaled" 2. r.E.makespan

let test_engine_delay_and_compute () =
  let resources = one_link () in
  let p = P.create () in
  let s = P.fresh_stream p in
  let d = P.add p ~stream:s (P.Delay { seconds = 0.25 }) in
  ignore (P.add p ~deps:[ d ] ~stream:s (transfer ~bytes:1e9 0));
  let r = E.run ~resources p in
  check_time "delay then transfer" 1.25 r.E.makespan

let test_engine_pipeline_formula () =
  (* Chain of h hops, c chunks: makespan = (h - 1 + c) * t + h * latency
     with equal hop times t and per-hop latency. *)
  let h = 4 and c = 6 in
  let t = 0.1 and lat = 0.01 in
  let resources =
    Array.init h (fun _ -> { E.bandwidth = 1e9; latency = lat; lanes = 1; gap = 0. })
  in
  let p = P.create () in
  let streams = Array.init h (fun _ -> P.fresh_stream p) in
  let prev = Array.make c (-1) in
  for hop = 0 to h - 1 do
    for chunk = 0 to c - 1 do
      let deps = if hop = 0 then [] else [ prev.(chunk) ] in
      prev.(chunk) <-
        P.add p ~deps ~stream:streams.(hop) (transfer ~bytes:(t *. 1e9) hop)
    done
  done;
  let r = E.run ~resources p in
  check_time "pipeline makespan"
    ((Float.of_int (h - 1 + c) *. t) +. (Float.of_int h *. lat))
    r.E.makespan

let test_engine_policies () =
  (* Two streams contending on one lane; Stream_priority must finish stream
     0 entirely before starting stream 1's queued ops. *)
  let resources = one_link () in
  let build () =
    let p = P.create () in
    let s0 = P.fresh_stream p in
    let s1 = P.fresh_stream p in
    let last0 = ref (-1) and last1 = ref (-1) in
    for _ = 1 to 3 do
      last0 := P.add p ~stream:s0 (transfer ~bytes:1e8 0);
      last1 := P.add p ~stream:s1 (transfer ~bytes:1e8 0)
    done;
    (p, !last0, !last1)
  in
  let p, _, last1 = build () in
  let fair = E.run ~policy:`Fair ~resources p in
  let p', _, last1' = build () in
  let unfair = E.run ~policy:`Stream_priority ~resources p' in
  Alcotest.(check bool) "stream 1 delayed under priority" true
    (unfair.E.finish.(last1') >= fair.E.finish.(last1) -. 1e-9);
  check_time "same total work" fair.E.makespan unfair.E.makespan

let test_engine_stream_priority_beats_arrival_order () =
  (* A scenario where the two policies demonstrably pick different ops
     from the waiting queue. One lane; a long transfer A (stream 0)
     occupies it while two one-byte transfers queue behind it: B (the
     HIGHER-numbered stream) arrives at t=2, C (the LOWER-numbered
     stream) at t=4. `Fair serves the queue by arrival time (B first);
     `Stream_priority serves by stream number (C first). *)
  let resources = one_link ~bandwidth:1. () in
  let build () =
    let p = P.create () in
    let s_a = P.fresh_stream p in
    let s_c = P.fresh_stream p in
    let s_b = P.fresh_stream p in
    ignore (P.add p ~stream:s_a (transfer ~bytes:10. 0));
    (* Delays gate the queued transfers' ready times without touching the
       link; stream order makes each transfer wait for its delay. *)
    ignore (P.add p ~stream:s_b (P.Delay { seconds = 2. }));
    let b = P.add p ~stream:s_b (transfer ~bytes:1. 0) in
    ignore (P.add p ~stream:s_c (P.Delay { seconds = 4. }));
    let c = P.add p ~stream:s_c (transfer ~bytes:1. 0) in
    (p, b, c)
  in
  let p, b, c = build () in
  let fair = E.run ~policy:`Fair ~resources p in
  check_time "fair: earlier arrival (B) served first" 11. fair.E.finish.(b);
  check_time "fair: C runs second" 12. fair.E.finish.(c);
  let p, b, c = build () in
  let prio = E.run ~policy:`Stream_priority ~resources p in
  check_time "priority: lower stream (C) served first" 11. prio.E.finish.(c);
  check_time "priority: B runs second" 12. prio.E.finish.(b);
  check_time "same makespan either way" fair.E.makespan prio.E.makespan

let test_engine_validation () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer 3));
  Alcotest.(check bool) "unknown resource rejected" true
    (try
       ignore (E.run ~resources:(one_link ()) p);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Semantics *)

let test_semantics_copy_reduce () =
  let p = P.create () in
  let s = P.fresh_stream p in
  let src = P.declare_buffer p ~node:0 ~len:4 in
  let dst = P.declare_buffer p ~node:1 ~len:4 in
  let mref node buf off len = { P.node; buf; off; len } in
  let a =
    P.add p ~stream:s
      (P.Transfer
         { bytes = 16.; link = 0; bw_scale = 1.;
           action = Some (P.Copy { src = mref 0 src 0 4; dst = mref 1 dst 0 4 }) })
  in
  ignore
    (P.add p ~deps:[ a ] ~stream:s
       (P.Transfer
          { bytes = 8.; link = 0; bw_scale = 1.;
            action = Some (P.Reduce { src = mref 0 src 0 2; dst = mref 1 dst 2 2 }) }));
  let mem = Sem.memory_of_program p in
  Sem.write mem ~node:0 ~buf:src [| 1.; 2.; 3.; 4. |];
  Sem.run p mem;
  Alcotest.(check (array (float 1e-9))) "copy then reduce"
    [| 1.; 2.; 4.; 6. |]
    (Sem.read mem ~node:1 ~buf:dst)

let test_semantics_bounds () =
  let p = P.create () in
  let s = P.fresh_stream p in
  let b = P.declare_buffer p ~node:0 ~len:2 in
  let mref off len = { P.node = 0; buf = b; off; len } in
  ignore
    (P.add p ~stream:s
       (P.Transfer
          { bytes = 1.; link = 0; bw_scale = 1.;
            action = Some (P.Copy { src = mref 0 2; dst = mref 1 2 }) }));
  let mem = Sem.memory_of_program p in
  Alcotest.(check bool) "out of bounds rejected" true
    (try Sem.run p mem; false with Invalid_argument _ -> true)

let test_semantics_write_mismatch () =
  let p = P.create () in
  ignore (P.declare_buffer p ~node:0 ~len:3);
  let mem = Sem.memory_of_program p in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Semantics.write: length mismatch") (fun () ->
      Sem.write mem ~node:0 ~buf:0 [| 1. |])

(* ------------------------------------------------------------------ *)
(* Arena heaps *)

let test_arena_heap_order_and_ties () =
  let q = Pq.Float_int.create () in
  List.iteri (fun i k -> Pq.Float_int.add q k i) [ 5.; 1.; 4.; 1.; 3. ];
  Alcotest.(check int) "length" 5 (Pq.Float_int.length q);
  let drained = List.init 5 (fun _ -> Option.get (Pq.Float_int.pop q)) in
  (* Equal keys pop in insertion order: the 1. inserted as value 1 before
     the 1. inserted as value 3. *)
  Alcotest.(check (list (pair (float 0.) int)))
    "sorted, ties by insertion"
    [ (1., 1); (1., 3); (3., 4); (4., 2); (5., 0) ]
    drained;
  Alcotest.(check bool) "empty" true (Pq.Float_int.is_empty q);
  Alcotest.(check int) "pop on empty" min_int (Pq.Float_int.pop_staged q)

let test_arena_heap_clear_reuse () =
  let q = Pq.Float_int.create ~capacity:2 () in
  for round = 1 to 3 do
    for i = 9 downto 0 do
      (Pq.Float_int.staged q).(0) <- Float.of_int i;
      Pq.Float_int.add_staged q (round * i)
    done;
    let drained = List.init 10 (fun _ -> Pq.Float_int.pop_staged q) in
    Alcotest.(check (list int))
      "drains sorted after clear+refill"
      (List.init 10 (fun i -> round * i))
      drained;
    Pq.Float_int.clear q
  done

let test_arena_waitq_order () =
  let q = Pq.Float_int_int.create () in
  (* Lexicographic (time, stream, id): time dominates, then stream, then
     id; insertion order breaks full ties. *)
  Pq.Float_int_int.add q 2. 0 7;
  Pq.Float_int_int.add q 1. 9 8;
  Pq.Float_int_int.add q 1. 2 9;
  Pq.Float_int_int.add q 1. 2 3;
  let drained = List.init 4 (fun _ -> Pq.Float_int_int.pop_staged q) in
  Alcotest.(check (list int)) "lexicographic" [ 3; 9; 8; 7 ] drained;
  Alcotest.(check int) "empty" min_int (Pq.Float_int_int.pop_staged q)

(* Sorting (key, insertion index) pairs is a stable sort by key: exactly
   the drain order the event loop's determinism relies on. *)
let prop_arena_heap_stable_sort =
  QCheck.Test.make ~name:"arena heap drains like a stable sort" ~count:200
    QCheck.(list (int_bound 50))
    (fun keys ->
      let q = Pq.Float_int.create () in
      let keyed = List.mapi (fun i k -> (Float.of_int k /. 7., i)) keys in
      List.iter (fun (key, i) -> Pq.Float_int.add q key i) keyed;
      let rec drain acc =
        match Pq.Float_int.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare keyed)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains sorted" ~count:100
    QCheck.(list (triple (int_bound 20) (int_bound 5) (int_bound 1000)))
    (fun keys ->
      let q = Pq.Float_int_int.create () in
      let keys = List.map (fun (k1, k2, k3) -> (Float.of_int k1, k2, k3)) keys in
      List.iter (fun (k1, k2, k3) -> Pq.Float_int_int.add q k1 k2 k3) keys;
      let rec drain acc =
        match Pq.Float_int_int.pop q with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Prepared schedules / arenas *)

(* A program that exercises every engine feature at once: multiple
   resources with distinct latencies/gaps/lanes, cross-stream data deps,
   stream chains, delays and contended waiting queues. *)
let build_mixed_program () =
  let resources =
    [|
      { E.bandwidth = 1e9; latency = 0.01; lanes = 1; gap = 0.02 };
      { E.bandwidth = 5e8; latency = 0.; lanes = 2; gap = 0. };
      { E.bandwidth = 2e9; latency = 0.005; lanes = 1; gap = 0.001 };
    |]
  in
  let p = P.create () in
  let streams = Array.init 4 (fun _ -> P.fresh_stream p) in
  let last = Array.make 4 (-1) in
  for round = 0 to 5 do
    for s = 0 to 3 do
      let link = (round + s) mod 3 in
      let deps =
        (if s > 0 && last.(s - 1) >= 0 then [ last.(s - 1) ] else [])
        @ if round > 1 && s = 2 then [ last.(3) ] else []
      in
      last.(s) <-
        P.add p ~deps ~stream:streams.(s)
          (transfer ~bytes:(1e8 *. Float.of_int (1 + ((round + s) mod 4))) link)
    done;
    if round = 2 then
      last.(0) <-
        P.add p ~deps:[ last.(0) ] ~stream:streams.(0)
          (P.Delay { seconds = 0.003 })
  done;
  (resources, p)

let check_results_equal label (a : E.result) (b : E.result) =
  Alcotest.(check (float 0.)) (label ^ ": makespan") a.E.makespan b.E.makespan;
  Alcotest.(check (array (float 0.))) (label ^ ": start") a.E.start b.E.start;
  Alcotest.(check (array (float 0.))) (label ^ ": finish") a.E.finish b.E.finish;
  Alcotest.(check (array (float 0.))) (label ^ ": busy") a.E.busy b.E.busy

let test_prepared_matches_run () =
  let resources, p = build_mixed_program () in
  let prepared = E.prepare ~resources p in
  List.iter
    (fun (name, policy) ->
      let baseline = E.run ~policy ~resources p in
      let arena = E.arena () in
      let replay = E.run_prepared ~policy ~arena prepared in
      check_results_equal name baseline replay;
      (* Repeated runs on the same arena must be bit-identical too. *)
      let again = E.run_prepared ~policy ~arena prepared in
      check_results_equal (name ^ " rerun") baseline again)
    [ ("fair", `Fair); ("priority", `Stream_priority) ]

let test_prepared_arena_reuse_across_shapes () =
  (* One arena serving schedules of different shapes must resize cleanly
     and keep producing exact results. *)
  let arena = E.arena () in
  let run_both (resources, p) =
    let baseline = E.run ~resources p in
    let replay = E.run_prepared ~arena (E.prepare ~resources p) in
    check_results_equal "shape change" baseline replay
  in
  run_both (build_mixed_program ());
  let small = P.create () in
  let s = P.fresh_stream small in
  ignore (P.add small ~stream:s (transfer ~bytes:5e8 0));
  run_both (one_link (), small);
  run_both (build_mixed_program ())

let test_prepared_validation () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer 3));
  Alcotest.(check bool) "unknown resource rejected at prepare" true
    (try
       ignore (E.prepare ~resources:(one_link ()) p);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad resource rejected at prepare" true
    (try
       ignore
         (E.prepare
            ~resources:[| { E.bandwidth = 1e9; latency = 0.; lanes = 0; gap = 0. } |]
            (P.create ()));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Bigarray semantics vs the float-array reference *)

let build_copy_reduce_program () =
  let p = P.create () in
  let s = P.fresh_stream p in
  let src = P.declare_buffer p ~node:0 ~len:4 in
  let dst = P.declare_buffer p ~node:1 ~len:4 in
  let mref node buf off len = { P.node; buf; off; len } in
  let a =
    P.add p ~stream:s
      (P.Transfer
         { bytes = 16.; link = 0; bw_scale = 1.;
           action = Some (P.Copy { src = mref 0 src 0 4; dst = mref 1 dst 0 4 }) })
  in
  ignore
    (P.add p ~deps:[ a ] ~stream:s
       (P.Transfer
          { bytes = 8.; link = 0; bw_scale = 1.;
            action = Some (P.Reduce { src = mref 0 src 0 2; dst = mref 1 dst 2 2 }) }));
  (p, src, dst)

let test_semantics_matches_ref () =
  let p, src, dst = build_copy_reduce_program () in
  let input = [| 1.; 2.; 3.; 4. |] in
  let mem = Sem.memory_of_program p in
  Sem.write mem ~node:0 ~buf:src input;
  Sem.run p mem;
  let rmem = Sem.Ref.memory_of_program p in
  Sem.Ref.write rmem ~node:0 ~buf:src input;
  Sem.Ref.run p rmem;
  Alcotest.(check (array (float 0.))) "identical to reference"
    (Sem.Ref.read rmem ~node:1 ~buf:dst)
    (Sem.read mem ~node:1 ~buf:dst)

let test_semantics_reset_replay () =
  let p, src, dst = build_copy_reduce_program () in
  let mem = Sem.memory_of_program p in
  Sem.write mem ~node:0 ~buf:src [| 1.; 2.; 3.; 4. |];
  Sem.run p mem;
  let first = Sem.read mem ~node:1 ~buf:dst in
  (* Reset zeroes in place; an identical replay must reproduce the same
     output (no state leaks across runs). *)
  Sem.reset mem;
  Alcotest.(check (array (float 0.))) "reset zeroes" [| 0.; 0.; 0.; 0. |]
    (Sem.read mem ~node:0 ~buf:src);
  Sem.write mem ~node:0 ~buf:src [| 1.; 2.; 3.; 4. |];
  Sem.run p mem;
  Alcotest.(check (array (float 0.))) "replay identical" first
    (Sem.read mem ~node:1 ~buf:dst)

let test_semantics_read_slice () =
  let p, src, dst = build_copy_reduce_program () in
  let mem = Sem.memory_of_program p in
  Sem.write mem ~node:0 ~buf:src [| 1.; 2.; 3.; 4. |];
  Sem.run p mem;
  Alcotest.(check (array (float 0.))) "middle slice" [| 2.; 4. |]
    (Sem.read_slice mem ~node:1 ~buf:dst ~off:1 ~len:2);
  Alcotest.(check bool) "oob slice rejected" true
    (try
       ignore (Sem.read_slice mem ~node:1 ~buf:dst ~off:3 ~len:2);
       false
     with Invalid_argument _ -> true)

(* Read-back is bit-exact: every float32 value written comes back from
   [read]/[read_slice] with the same float64 bits a per-element Bigarray
   accessor would produce — signed zeros, infinities, subnormals, the
   float32 extremes and NaN payloads included — and every read is a
   fresh array the caller may mutate. *)
let f32_specials =
  Array.map Int32.float_of_bits
    [|
      0x00000000l; 0x80000000l;  (* +0, -0 *)
      0x7f800000l; 0xff800000l;  (* +inf, -inf *)
      0x00000001l; 0x80000001l;  (* smallest subnormals *)
      0x007fffffl;  (* largest subnormal *)
      0x00800000l;  (* float32 min normal *)
      0x7f7fffffl; 0xff7fffffl;  (* +/- float32 max *)
      0x7fc00000l; 0xffc00000l; 0x7fc12345l;  (* NaNs, one with payload *)
      0x3f800000l;  (* 1.0 *)
    |]

let readback_case =
  let open QCheck.Gen in
  let value =
    frequency
      [ (1, oneofl (Array.to_list f32_specials)); (3, map Int32.float_of_bits int32) ]
  in
  int_bound 17 >>= fun pad ->
  array_size (int_bound 300) value >>= fun extra ->
  let values = Array.append f32_specials extra in
  let n = Array.length values in
  let slice =
    int_bound n >>= fun off -> int_bound (n - off) >|= fun len -> (off, len)
  in
  list_size (int_range 1 8) slice >|= fun slices ->
  (* Always cover the empty slice at both ends and the full buffer. *)
  (pad, values, [ (0, 0); (n, 0); (0, n) ] @ slices)

let prop_readback_bit_exact =
  QCheck.Test.make ~name:"read/read_slice bit-exact and fresh" ~count:200
    (QCheck.make
       ~print:(fun (pad, values, slices) ->
         Printf.sprintf "pad=%d n=%d slices=[%s]" pad (Array.length values)
           (String.concat "; "
              (List.map (fun (o, l) -> Printf.sprintf "(%d,%d)" o l) slices)))
       readback_case)
    (fun (pad, values, slices) ->
      let n = Array.length values in
      let p = P.create () in
      (* A leading pad buffer puts the target at an arbitrary slab offset;
         a trailing empty buffer covers zero-length reads. *)
      let padb = P.declare_buffer p ~node:0 ~len:pad in
      let b = P.declare_buffer p ~node:0 ~len:n in
      let empty = P.declare_buffer p ~node:0 ~len:0 in
      let mem = Sem.memory_of_program p in
      Sem.write mem ~node:0 ~buf:padb (Array.make pad 7.25);
      Sem.write mem ~node:0 ~buf:b values;
      let reference = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout n in
      Array.iteri (Bigarray.Array1.set reference) values;
      let expect off len =
        Array.init len (fun i ->
            Int64.bits_of_float (Bigarray.Array1.get reference (off + i)))
      in
      let bits = Array.map Int64.bits_of_float in
      let r1 = Sem.read mem ~node:0 ~buf:b in
      let r2 = Sem.read mem ~node:0 ~buf:b in
      let full_ok = bits r1 = expect 0 n && r1 != r2 in
      r1.(0) <- 1234.5;
      let fresh_ok = bits (Sem.read mem ~node:0 ~buf:b) = expect 0 n in
      let slices_ok =
        List.for_all
          (fun (off, len) ->
            let s = Sem.read_slice mem ~node:0 ~buf:b ~off ~len in
            bits s = expect off len
            && (len = 0
               ||
               (s.(0) <- 1234.5;
                bits (Sem.read_slice mem ~node:0 ~buf:b ~off ~len)
                = expect off len)))
          slices
      in
      full_ok && fresh_ok && slices_ok
      && Sem.read mem ~node:0 ~buf:empty = [||]
      && Sem.read mem ~node:0 ~buf:padb = Array.make pad 7.25)

(* ------------------------------------------------------------------ *)
(* Fault injection *)

(* A program with enough structure to exercise the event loop's corners:
   a contended 1-lane link (waitq tie-breaking), cross-stream deps
   (stream vs data edge latency), gaps and a second resource. *)
let fault_fixture () =
  let p = P.create () in
  let s0 = P.fresh_stream p and s1 = P.fresh_stream p and s2 = P.fresh_stream p in
  let a = P.add p ~stream:s0 (transfer ~bytes:2e8 0) in
  let b = P.add p ~stream:s1 (transfer ~bytes:3e8 0) in
  let c = P.add p ~stream:s2 (transfer ~bytes:1e8 1) in
  let d = P.add p ~deps:[ a; c ] ~stream:s0 (transfer ~bytes:2e8 1) in
  let e = P.add p ~deps:[ b ] ~stream:s1 (transfer ~bytes:1e8 0) in
  ignore (P.add p ~deps:[ d; e ] ~stream:s2 (P.Delay { seconds = 1e-4 }));
  let resources =
    [|
      { E.bandwidth = 1e9; latency = 2e-6; lanes = 1; gap = 1e-6 };
      { E.bandwidth = 2e9; latency = 5e-6; lanes = 2; gap = 0. };
    |]
  in
  (p, resources)

let test_fault_no_events_matches_engine () =
  let p, resources = fault_fixture () in
  List.iter
    (fun policy ->
      let want = E.run ~policy ~resources p in
      let got = (Fault.run ~policy ~resources p).Fault.timing in
      (* Bit-for-bit: same event ordering and float arithmetic, so exact
         equality, not tolerance. *)
      Alcotest.(check (float 0.)) "makespan" want.E.makespan got.E.makespan;
      Alcotest.(check (array (float 0.))) "finish" want.E.finish got.E.finish;
      Alcotest.(check (array (float 0.))) "start" want.E.start got.E.start;
      Alcotest.(check (array (float 0.))) "busy" want.E.busy got.E.busy)
    [ `Fair; `Stream_priority ]

let test_fault_degrade_slows () =
  (* 1 GB at 1 GB/s; at t=0.5 the link drops to half rate: the remaining
     0.5 GB takes 1 s, finishing at 1.5 s exactly. *)
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let resources = one_link () in
  let out =
    Fault.run ~resources
      ~events:[ Fault.Degrade { res = 0; at = 0.5; factor = 0.5 } ]
      p
  in
  check_float "degraded finish" 1.5 out.Fault.timing.E.makespan;
  Alcotest.(check int) "no retries" 0 out.Fault.retries;
  Alcotest.(check int) "no faulted ops" 0 out.Fault.faulted_ops

let test_fault_flaky_retries () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let resources = one_link () in
  let retry = { Fault.timeout_s = 0.05; backoff_s = 0.1; max_attempts = 3 } in
  let telemetry = Blink_telemetry.Telemetry.create () in
  let out =
    Fault.run ~telemetry ~retry ~resources
      ~events:[ Fault.Flaky { res = 0; from_s = 0.; until_s = 0.1 } ]
      p
  in
  (* Attempt 1 starts at 0 inside the window: detected at 0.05, backoff
     0.1, attempt 2 at 0.15 (window closed) runs the full second. *)
  check_float "retried finish" 1.15 out.Fault.timing.E.makespan;
  Alcotest.(check int) "one retry" 1 out.Fault.retries;
  Alcotest.(check int) "one faulted op" 1 out.Fault.faulted_ops;
  (* Lane held for the stalled 0.05 s, then the clean 1 s service. *)
  check_float "busy counts failed attempt" 1.05 out.Fault.timing.E.busy.(0);
  Alcotest.(check int) "retries counted" 1
    (Blink_telemetry.Telemetry.counter_value telemetry "engine.retries");
  Alcotest.(check int) "events counted" 1
    (Blink_telemetry.Telemetry.counter_value telemetry "fault.injected")

let test_fault_dead_link_unrecoverable () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let resources = one_link () in
  let retry = { Fault.timeout_s = 0.01; backoff_s = 0.01; max_attempts = 2 } in
  match
    Fault.run ~retry ~resources ~events:[ Fault.Fail { res = 0; at = 0.4 } ] p
  with
  | _ -> Alcotest.fail "dead link should exhaust retries"
  | exception Fault.Unrecoverable { op; resource; attempts } ->
      Alcotest.(check int) "op" 0 op;
      Alcotest.(check int) "resource" 0 resource;
      Alcotest.(check int) "attempts" 2 attempts

let test_fault_validation () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let resources = one_link () in
  let bad events msg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Fault.run ~resources ~events p))
  in
  bad
    [ Fault.Degrade { res = 9; at = 0.; factor = 0.5 } ]
    "Fault.run: event on unknown resource 9";
  bad
    [ Fault.Degrade { res = 0; at = 0.; factor = 1.5 } ]
    "Fault.run: degradation factor must be in (0, 1]";
  bad [ Fault.Fail { res = 0; at = -1. } ] "Fault.run: negative event time";
  bad
    [ Fault.Flaky { res = 0; from_s = 0.3; until_s = 0.3 } ]
    "Fault.run: empty flaky window"

let count_substrings s sub =
  let n = String.length s and m = String.length sub in
  let c = ref 0 in
  for i = 0 to n - m do
    if String.sub s i m = sub then incr c
  done;
  !c

(* A failed run is the one a post-mortem is for: every failed attempt,
   the exhausting one included, lands in the recorder, and the window
   reaches the Chrome exporter before [Unrecoverable] propagates. *)
let test_fault_unrecoverable_dumps_recorder () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let retry = { Fault.timeout_s = 0.01; backoff_s = 0.01; max_attempts = 2 } in
  let telemetry = Blink_telemetry.Telemetry.create ~trace:true () in
  let recorder = Blink_sim.Recorder.create () in
  (match
     Fault.run ~telemetry ~recorder ~retry ~resources:(one_link ())
       ~events:[ Fault.Fail { res = 0; at = 0.4 } ]
       p
   with
  | _ -> Alcotest.fail "dead link should exhaust retries"
  | exception Fault.Unrecoverable _ -> ());
  Alcotest.(check int) "both failed attempts recorded" 2
    (Blink_sim.Recorder.recorded recorder);
  Alcotest.(check int) "both retry slices exported" 2
    (count_substrings (Blink_telemetry.Telemetry.chrome_json telemetry) "retry op#0")

(* Random programs: 1-4 resources with random lanes, gap and latency,
   1-5 streams, up to 40 ops mixing transfers (some at bw_scale < 1),
   computes and delays, each with up to two random earlier dependencies.
   Op sizes straddle the gaps, so lanes are held both by data time and by
   the issue gap. *)
let random_program =
  let open QCheck.Gen in
  let resource =
    let+ lanes = int_range 1 3
    and+ gap = float_bound_inclusive 2e-6
    and+ latency = float_bound_inclusive 5e-6 in
    { E.bandwidth = 1e9; latency; lanes; gap }
  in
  let* resources = array_size (int_range 1 4) resource in
  let* n_streams = int_range 1 5 in
  let op =
    triple
      (triple (int_bound (n_streams - 1)) (int_bound 3)
         (int_bound (Array.length resources - 1)))
      (pair (float_range 0.01 1.) (oneofl [ 1.; 1.; 0.85; 0.5 ]))
      (list_size (int_bound 2) nat)
  in
  let+ ops = list_size (int_bound 40) op in
  (resources, n_streams, ops)

let build_random_program (_, n_streams, ops) =
  let p = P.create () in
  let streams = Array.init n_streams (fun _ -> P.fresh_stream p) in
  List.iteri
    (fun i ((s, k, res), (size, bw_scale), picks) ->
      let deps =
        if i = 0 then [] else List.sort_uniq compare (List.map (fun d -> d mod i) picks)
      in
      let kind =
        match k with
        | 0 | 1 -> P.Transfer { bytes = size *. 1e4; link = res; bw_scale; action = None }
        | 2 -> P.Compute { bytes = size *. 1e4; engine = res; action = None }
        | _ -> P.Delay { seconds = size *. 1e-5 }
      in
      ignore (P.add p ~deps ~stream:streams.(s) kind))
    ops;
  p

let same_bits (a : E.result) (b : E.result) =
  let bits = Array.map Int64.bits_of_float in
  Int64.bits_of_float a.E.makespan = Int64.bits_of_float b.E.makespan
  && bits a.E.start = bits b.E.start
  && bits a.E.finish = bits b.E.finish
  && bits a.E.busy = bits b.E.busy

(* Fault.run with no events, and with a flaky window on every resource
   that opens only after the run is over, must equal Engine.run bit for
   bit. The inert events force every resourced op through the loop's
   fault branch, so this pins that branch's arithmetic to the engine's. *)
let prop_fault_matches_engine =
  QCheck.Test.make ~name:"fault runs match engine bit for bit" ~count:300
    (QCheck.make
       ~print:(fun case -> Format.asprintf "%a" P.pp (build_random_program case))
       random_program)
    (fun ((resources, _, _) as case) ->
      let p = build_random_program case in
      List.for_all
        (fun policy ->
          let want = E.run ~policy ~resources p in
          let mk = want.E.makespan in
          let inert =
            List.init (Array.length resources) (fun res ->
                Fault.Flaky { res; from_s = 10. *. mk; until_s = (20. *. mk) +. 1. })
          in
          same_bits want (Fault.run ~policy ~resources p).Fault.timing
          && same_bits want (Fault.run ~policy ~events:inert ~resources p).Fault.timing)
        [ `Fair; `Stream_priority ])

(* Critical_path on generated programs: the walk is a chain of ordered,
   non-overlapping spans ending at the makespan; the four components
   attribute the whole makespan; no resource carries more chain seconds
   than it served; and the link table is the engine's busy array with
   [CP.utilization]'s values, sorted, bottleneck first. *)
let prop_critical_path =
  QCheck.Test.make ~name:"critical path attributes the makespan" ~count:300
    (QCheck.make
       ~print:(fun case -> Format.asprintf "%a" P.pp (build_random_program case))
       random_program)
    (fun ((resources, _, _) as case) ->
      let p = build_random_program case in
      let r = E.run ~resources p in
      let a = CP.attribute ~resources p r in
      let mk = r.E.makespan in
      let rec ordered = function
        | x :: (y :: _ as rest) ->
            x.CP.start <= x.CP.finish && x.CP.finish <= y.CP.start && ordered rest
        | [ x ] -> x.CP.start <= x.CP.finish && x.CP.finish = mk
        | [] -> P.n_ops p = 0
      in
      let total = a.CP.transfer_s +. a.CP.compute_s +. a.CP.delay_s +. a.CP.wait_s in
      let chain_within_busy =
        List.for_all
          (fun (res, s) ->
            let busy = r.E.busy.(res) in
            s <= busy +. (1e-9 *. Float.max busy mk))
          a.CP.per_resource
      in
      let util = Array.make (Array.length resources) nan in
      let best = CP.utilization ~resources r util in
      let by_id =
        List.sort (fun l m -> compare l.CP.resource m.CP.resource) a.CP.links
      in
      let rec sorted = function
        | l :: (m :: _ as rest) ->
            (l.CP.utilization > m.CP.utilization
            || (l.CP.utilization = m.CP.utilization && l.CP.resource < m.CP.resource))
            && sorted rest
        | _ -> true
      in
      ordered a.CP.path
      && Float.abs (total -. mk) <= 1e-9 *. mk
      && chain_within_busy
      && List.length by_id = Array.length resources
      && List.for_all Fun.id
           (List.mapi
              (fun i l ->
                l.CP.resource = i
                && Int64.bits_of_float l.CP.busy_s = Int64.bits_of_float r.E.busy.(i)
                && Int64.bits_of_float l.CP.utilization
                   = Int64.bits_of_float util.(i))
              by_id)
      && sorted a.CP.links
      && (List.hd a.CP.links).CP.resource = best)

let () =
  Alcotest.run "sim"
    [
      ( "pqueue",
        [
          QCheck_alcotest.to_alcotest prop_pqueue_sorts;
          Alcotest.test_case "arena heap order/ties" `Quick
            test_arena_heap_order_and_ties;
          Alcotest.test_case "arena heap clear+reuse" `Quick
            test_arena_heap_clear_reuse;
          Alcotest.test_case "arena waitq lexicographic" `Quick
            test_arena_waitq_order;
          QCheck_alcotest.to_alcotest prop_arena_heap_stable_sort;
        ] );
      ( "program",
        [
          Alcotest.test_case "builder" `Quick test_program_builder;
          Alcotest.test_case "errors" `Quick test_program_errors;
          Alcotest.test_case "buffers" `Quick test_program_buffers;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single transfer" `Quick test_engine_single_transfer;
          Alcotest.test_case "latency semantics" `Quick test_engine_latency_on_data_deps;
          Alcotest.test_case "lanes" `Quick test_engine_lanes;
          Alcotest.test_case "issue gap" `Quick test_engine_gap;
          Alcotest.test_case "bw scale" `Quick test_engine_bw_scale;
          Alcotest.test_case "delay" `Quick test_engine_delay_and_compute;
          Alcotest.test_case "pipeline formula" `Quick test_engine_pipeline_formula;
          Alcotest.test_case "policies" `Quick test_engine_policies;
          Alcotest.test_case "stream priority vs fair" `Quick
            test_engine_stream_priority_beats_arrival_order;
          Alcotest.test_case "validation" `Quick test_engine_validation;
        ] );
      ( "prepared",
        [
          Alcotest.test_case "run_prepared matches run" `Quick
            test_prepared_matches_run;
          Alcotest.test_case "arena reuse across shapes" `Quick
            test_prepared_arena_reuse_across_shapes;
          Alcotest.test_case "validation at prepare" `Quick
            test_prepared_validation;
        ] );
      ( "fault",
        [
          Alcotest.test_case "no events matches engine" `Quick
            test_fault_no_events_matches_engine;
          Alcotest.test_case "degrade slows service" `Quick
            test_fault_degrade_slows;
          Alcotest.test_case "flaky link retries" `Quick
            test_fault_flaky_retries;
          Alcotest.test_case "dead link unrecoverable" `Quick
            test_fault_dead_link_unrecoverable;
          Alcotest.test_case "event validation" `Quick test_fault_validation;
          Alcotest.test_case "unrecoverable dumps the flight recorder" `Quick
            test_fault_unrecoverable_dumps_recorder;
          QCheck_alcotest.to_alcotest prop_fault_matches_engine;
        ] );
      (* Suite labels stay at most 11 characters: a longer label widens
         the label column and truncates the longest test name above in
         80-column output. *)
      ( "crit path",
        [
          QCheck_alcotest.to_alcotest prop_critical_path;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "copy/reduce" `Quick test_semantics_copy_reduce;
          Alcotest.test_case "bounds" `Quick test_semantics_bounds;
          Alcotest.test_case "write mismatch" `Quick test_semantics_write_mismatch;
          Alcotest.test_case "matches float-array reference" `Quick
            test_semantics_matches_ref;
          Alcotest.test_case "reset + replay" `Quick test_semantics_reset_replay;
          Alcotest.test_case "read_slice" `Quick test_semantics_read_slice;
          QCheck_alcotest.to_alcotest prop_readback_bit_exact;
        ] );
    ]
