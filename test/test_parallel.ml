(* The domain pool and the determinism contract of parallel planning:
   results come back in submission order, exceptions propagate from the
   earliest failing task, a 1-domain pool degenerates to plain sequential
   execution, and every parallelized planning layer (Multiserver, Hybrid,
   prewarm) produces bit-identical output with any pool size. *)

module Pool = Blink_parallel.Pool
module Telemetry = Blink_telemetry.Telemetry
module Server = Blink_topology.Server
module Program = Blink_sim.Program
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Hybrid = Blink_core.Hybrid
module Multiserver = Blink_core.Multiserver
module Threephase = Blink_collectives.Threephase
module E = Blink_sim.Engine

(* ------------------------------------------------------------------ *)
(* Pool mechanics *)

let test_map_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      let got = Pool.parallel_map pool (fun i -> i * i) xs in
      Alcotest.(check (list int)) "submission order" (List.map (fun i -> i * i) xs) got;
      Alcotest.(check (list int)) "empty list" [] (Pool.parallel_map pool Fun.id []))

let test_iter_runs_all () =
  Pool.with_pool ~domains:3 (fun pool ->
      let hits = Array.make 50 0 in
      (* Each slot is written by exactly one task, so no two domains race
         on the same cell. *)
      Pool.parallel_iter pool (fun i -> hits.(i) <- hits.(i) + 1)
        (List.init 50 Fun.id);
      Alcotest.(check bool) "every task ran once" true
        (Array.for_all (fun h -> h = 1) hits))

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~domains:4 (fun pool ->
      let raised =
        try
          ignore
            (Pool.parallel_map pool
               (fun i -> if i = 3 || i = 7 then raise (Boom i) else i)
               (List.init 10 Fun.id));
          None
        with Boom i -> Some i
      in
      (* Submission order decides which failure surfaces, not domain
         scheduling. *)
      Alcotest.(check (option int)) "earliest failing task wins" (Some 3) raised;
      (* The pool survives a failed batch. *)
      Alcotest.(check (list int)) "pool still works" [ 0; 1; 2 ]
        (Pool.parallel_map pool Fun.id [ 0; 1; 2 ]))

let test_nested_calls_fall_back () =
  Pool.with_pool ~domains:2 (fun pool ->
      (* A task that itself calls parallel_map must not deadlock: nested
         calls from worker domains run sequentially in that worker. *)
      let got =
        Pool.parallel_map pool
          (fun i -> Pool.parallel_map pool (fun j -> (10 * i) + j) [ 0; 1; 2 ])
          [ 0; 1; 2; 3 ]
      in
      let want = List.init 4 (fun i -> List.init 3 (fun j -> (10 * i) + j)) in
      Alcotest.(check (list (list int))) "nested map" want got)

let test_one_domain_is_sequential () =
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "one domain" 1 (Pool.domains pool);
      let self = Domain.self () in
      let domains_seen =
        Pool.parallel_map pool (fun _ -> Domain.self ()) [ 0; 1; 2 ]
      in
      Alcotest.(check bool) "tasks run in the calling domain" true
        (List.for_all (fun d -> d = self) domains_seen))

let test_both () =
  Pool.with_pool ~domains:2 (fun pool ->
      let a, b = Pool.both pool (fun () -> 1 + 1) (fun () -> "x" ^ "y") in
      Alcotest.(check int) "left" 2 a;
      Alcotest.(check string) "right" "xy" b)

let test_env_clamps () =
  Unix.putenv "BLINK_DOMAINS" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "BLINK_DOMAINS" "")
    (fun () ->
      Alcotest.(check int) "default respects BLINK_DOMAINS" 1
        (Pool.default_domains ());
      Pool.with_pool ~domains:8 (fun pool ->
          Alcotest.(check int) "explicit request is clamped" 1
            (Pool.domains pool)))

let test_parse_domains () =
  let ok s = match Pool.parse_domains s with Ok n -> Some n | Error _ -> None in
  Alcotest.(check (option int)) "plain integer" (Some 4) (ok "4");
  Alcotest.(check (option int)) "whitespace tolerated" (Some 4) (ok " 4 ");
  Alcotest.(check (option int)) "above cap clamps to 512" (Some 512) (ok "4096");
  Alcotest.(check (option int)) "non-numeric rejected" None (ok "al1");
  Alcotest.(check (option int)) "empty rejected" None (ok "");
  Alcotest.(check (option int)) "zero rejected, not coerced" None (ok "0");
  Alcotest.(check (option int)) "negative rejected, not coerced" None (ok "-3");
  (match Pool.parse_domains "banana" with
  | Error msg ->
      Alcotest.(check bool) "error names the variable" true
        (String.length msg > 0
        && Str.string_match (Str.regexp ".*BLINK_DOMAINS.*") msg 0)
  | Ok _ -> Alcotest.fail "banana parsed");
  (* A malformed override must fall back to the recommended default, not
     be silently coerced to some width. *)
  Unix.putenv "BLINK_DOMAINS" "not-a-number";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "BLINK_DOMAINS" "")
    (fun () ->
      Alcotest.(check bool) "malformed env ignored" true
        (Pool.default_domains () >= 1))

let test_pool_gauges () =
  let telemetry = Telemetry.create () in
  Pool.with_pool ~domains:2 ~telemetry (fun pool ->
      ignore (Pool.parallel_map pool (fun i -> i) (List.init 7 Fun.id));
      Alcotest.(check (option (float 0.))) "pool.domains gauge"
        (Some (Float.of_int (Pool.domains pool)))
        (Telemetry.gauge_value telemetry "pool.domains");
      Alcotest.(check (option (float 0.))) "pool.tasks gauge"
        (Some (Float.of_int (Pool.tasks_run pool)))
        (Telemetry.gauge_value telemetry "pool.tasks");
      Alcotest.(check bool) "pool.busy_peak gauge present" true
        (Telemetry.gauge_value telemetry "pool.busy_peak" <> None);
      Alcotest.(check bool) "tasks counted" true (Pool.tasks_run pool >= 7))

(* ------------------------------------------------------------------ *)
(* Determinism: parallel planning output is bit-identical to sequential *)

let ops_of prog =
  let acc = ref [] in
  Program.iter_ops
    (fun o ->
      acc := (o.Program.id, o.Program.kind, o.Program.stream, o.Program.deps) :: !acc)
    prog;
  List.rev !acc

let check_same_program label (pa, _) (pb, _) =
  Alcotest.(check int) (label ^ ": op count") (Program.n_ops pa) (Program.n_ops pb);
  Alcotest.(check bool) (label ^ ": identical ops") true (ops_of pa = ops_of pb)

let servers =
  [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ]

let test_multiserver_deterministic () =
  let seq = Multiserver.create servers in
  Pool.with_pool ~domains:4 (fun pool ->
      let par = Multiserver.create ~pool servers in
      Alcotest.(check int) "n_partitions" (Multiserver.n_partitions seq)
        (Multiserver.n_partitions par);
      Array.iter2
        (fun (a : Threephase.plan) (b : Threephase.plan) ->
          Alcotest.(check (list int)) "plan ranks" a.Threephase.ranks b.Threephase.ranks;
          Alcotest.(check bool) "plan trees" true
            (a.Threephase.trees = b.Threephase.trees))
        (Multiserver.plans seq) (Multiserver.plans par);
      let elems = 100_000 in
      let ps = Multiserver.all_reduce ~chunk_elems:4_096 seq ~elems in
      let pp = Multiserver.all_reduce ~chunk_elems:4_096 par ~elems in
      check_same_program "multiserver all_reduce" ps pp;
      Alcotest.(check (float 0.)) "identical makespan"
        (Multiserver.time seq (fst ps)).E.makespan
        (Multiserver.time par (fst pp)).E.makespan)

let test_hybrid_deterministic () =
  let handle = Blink.create Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
  let elems = 1_000_000 in
  let seq = Hybrid.broadcast ~chunk_elems:8_192 handle ~elems in
  Pool.with_pool ~domains:4 (fun pool ->
      let par = Hybrid.broadcast ~pool ~chunk_elems:8_192 handle ~elems in
      check_same_program "hybrid broadcast" seq par;
      Alcotest.(check (float 0.)) "identical makespan"
        (Blink.time handle (fst seq)).E.makespan
        (Blink.time handle (fst par)).E.makespan)

(* Handle states the prewarm equivalence tests run in: a healthy quad,
   and a DGX-1V-8 on a private store after a warm degrade, whose size
   classes then carry the warm replan's chunk hints. *)
type state = {
  label : string;
  make : unit -> Blink.t;
  keys : (Plan.collective * int) list;
}

let plan_all h keys =
  List.iter (fun (c, elems) -> ignore (Blink.plan h c ~elems)) keys

let states =
  let degraded_keys =
    [ (Plan.All_reduce, 1_048_576); (Plan.Broadcast, 1_048_576);
      (Plan.All_reduce, 4_194_304); (Plan.Reduce_scatter, 4_194_304) ]
  in
  [
    {
      label = "healthy";
      make = (fun () -> Blink.create Server.dgx1v ~gpus:[| 1; 4; 5; 6 |]);
      keys =
        [ (Plan.All_reduce, 4_096); (Plan.Broadcast, 4_096);
          (Plan.All_reduce, 100_000); (Plan.Gather, 100_000) ];
    };
    {
      label = "warm degrade";
      make =
        (fun () ->
          let h = Blink.create Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
          plan_all h degraded_keys;
          Blink.degrade_link h ~u:0 ~v:3 ~factor:0.5;
          h);
      keys = degraded_keys;
    };
  ]

let warm_counters h =
  List.map
    (Telemetry.counter_value (Blink.telemetry h))
    [ "plan.chunk.reused"; "plan.chunk.retuned"; "plan.cache.hits";
      "plan.cache.misses" ]

(* [a] was warmed by some prewarm path, which reported [built] plans; it
   must be in exactly the state sequential [plan] calls leave a fresh
   handle of the same [st] in: same compile count, chunk and cache
   counters, tuned chunks, ops and makespans. *)
let check_same_warm_state label st ~built a =
  let b = st.make () in
  let misses0 = (Blink.plan_cache_stats b).Blink.misses in
  plan_all b st.keys;
  Alcotest.(check int) (label ^ ": same number compiled")
    ((Blink.plan_cache_stats b).Blink.misses - misses0) built;
  Alcotest.(check (list int)) (label ^ ": chunk and cache counters")
    (warm_counters b) (warm_counters a);
  List.iter
    (fun (c, elems) ->
      let pa = Blink.plan a c ~elems in
      let pb = Blink.plan b c ~elems in
      let l = label ^ ": " ^ Plan.collective_name c ^ string_of_int elems in
      Alcotest.(check int) (l ^ ": same tuned chunk") pb.Plan.chunk_elems
        pa.Plan.chunk_elems;
      Alcotest.(check int) (l ^ ": op count") (Program.n_ops pb.Plan.program)
        (Program.n_ops pa.Plan.program);
      Alcotest.(check bool) (l ^ ": identical ops") true
        (ops_of pa.Plan.program = ops_of pb.Plan.program);
      Alcotest.(check (float 0.)) (l ^ ": identical makespan")
        (Plan.execute ~data:false pb).Plan.timing.E.makespan
        (Plan.execute ~data:false pa).Plan.timing.E.makespan)
    st.keys

let test_prewarm_deterministic () =
  List.iter
    (fun st ->
      (* Prewarmed through a multi-domain pool, compared against
         sequential plan calls. *)
      let a = st.make () in
      let built =
        Pool.with_pool ~domains:4 (fun pool -> Blink.prewarm ~pool a st.keys)
      in
      Alcotest.(check int) (st.label ^ ": all keys compiled")
        (List.length st.keys) built;
      let hits0 = (Blink.plan_cache_stats a).Blink.hits in
      check_same_warm_state st.label st ~built a;
      (* Every prewarmed key was a cache hit just now, and re-prewarming
         is a no-op. *)
      Alcotest.(check int) (st.label ^ ": plan calls all hit")
        (List.length st.keys)
        ((Blink.plan_cache_stats a).Blink.hits - hits0);
      Alcotest.(check int) (st.label ^ ": re-prewarm builds nothing") 0
        (Blink.prewarm a st.keys))
    states

(* Futures: value passing, exception propagation, idempotent await. *)
let test_future_basics () =
  Pool.with_pool ~domains:2 (fun pool ->
      let f = Pool.async pool (fun () -> 6 * 7) in
      Alcotest.(check int) "future value" 42 (Pool.await f);
      Alcotest.(check int) "await is idempotent" 42 (Pool.await f);
      let g = Pool.async pool (fun () -> raise (Boom 5)) in
      (match Pool.await g with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "exception propagates" 5 i);
      (* Overlap actually happens on a multi-domain pool: the caller can
         observe a signal set by the running future before awaiting. *)
      let flag = Atomic.make false in
      let h = Pool.async pool (fun () -> Atomic.set flag true; 1) in
      let deadline = Unix.gettimeofday () +. 5.0 in
      while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      Alcotest.(check bool) "task ran before await" true (Atomic.get flag);
      Alcotest.(check int) "then awaits fine" 1 (Pool.await h));
  (* Sequential degeneration: the thunk runs eagerly in the caller. *)
  Pool.with_pool ~domains:1 (fun pool ->
      let self = Domain.self () in
      let f = Pool.async pool (fun () -> Domain.self ()) in
      Alcotest.(check bool) "eager on 1-domain pool" true
        (Pool.await f = self))

(* Async prewarm must land the handle in exactly the state sequential
   plan calls do, whether the future ran on a worker domain or
   degenerated to an eager call. *)
let test_prewarm_async_equivalent () =
  List.iter
    (fun st ->
      (* Async through a real worker domain. *)
      Pool.with_pool ~domains:2 (fun pool ->
          let a = st.make () in
          let built =
            Blink.prewarm_await a (Blink.prewarm_async ~pool a st.keys)
          in
          check_same_warm_state (st.label ^ " worker") st ~built a;
          Alcotest.(check int) "re-async builds nothing" 0
            (Blink.prewarm_await a (Blink.prewarm_async ~pool a st.keys)));
      (* Degenerate path: no pool at all. *)
      let b = st.make () in
      let built = Blink.prewarm_await b (Blink.prewarm_async b st.keys) in
      check_same_warm_state (st.label ^ " eager") st ~built b)
    states

let test_prewarm_async_guards () =
  let gpus = [| 1; 4; 5; 6 |] in
  let h = Blink.create Server.dgx1v ~gpus in
  let job = Blink.prewarm_async h [ (Plan.All_reduce, 4_096) ] in
  (* Topology mutation under an inflight job must be refused... *)
  (match Blink.fail_link h ~u:5 ~v:6 with
  | _ -> Alcotest.fail "fail_link under inflight job succeeded"
  | exception Invalid_argument _ -> ());
  ignore (Blink.prewarm_await h job);
  (* ...and allowed again once awaited. *)
  Blink.fail_link h ~u:5 ~v:6;
  (* Double await is a usage error. *)
  let job2 = Blink.prewarm_async h [ (Plan.Broadcast, 4_096) ] in
  ignore (Blink.prewarm_await h job2);
  match Blink.prewarm_await h job2 with
  | _ -> Alcotest.fail "double await succeeded"
  | exception Invalid_argument _ -> ()

(* Same graph, two independent planning runs: the MWU purchase table and
   the LP constraint rows live in hashtables, so any hash-order leak into
   weight accumulation or solver pivoting shows up as run-to-run drift
   here — the emitted plans must be byte-identical. *)
let test_treegen_repack_deterministic () =
  let gpus = Array.init 8 Fun.id in
  let runs =
    List.init 2 (fun _ ->
        let h = Blink.create Server.dgx1v ~gpus in
        let packing = Option.get (Blink.undirected_packing h) in
        let prog, _ = Blink.all_reduce ~chunk_elems:4_096 h ~elems:100_000 in
        (packing, prog, (Blink.time h prog).E.makespan))
  in
  match runs with
  | [ (pack_a, prog_a, mk_a); (pack_b, prog_b, mk_b) ] ->
      Alcotest.(check bool) "identical packings" true (pack_a = pack_b);
      Alcotest.(check int) "op count" (Program.n_ops prog_a)
        (Program.n_ops prog_b);
      Alcotest.(check bool) "identical ops" true (ops_of prog_a = ops_of prog_b);
      Alcotest.(check (float 0.)) "identical makespan" mk_a mk_b
  | _ -> assert false

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves submission order" `Quick test_map_order;
          Alcotest.test_case "iter runs every task once" `Quick test_iter_runs_all;
          Alcotest.test_case "earliest exception propagates" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested calls fall back" `Quick
            test_nested_calls_fall_back;
          Alcotest.test_case "1-domain pool is sequential" `Quick
            test_one_domain_is_sequential;
          Alcotest.test_case "both" `Quick test_both;
          Alcotest.test_case "BLINK_DOMAINS clamps" `Quick test_env_clamps;
          Alcotest.test_case "BLINK_DOMAINS parsing" `Quick test_parse_domains;
          Alcotest.test_case "pool gauges" `Quick test_pool_gauges;
          Alcotest.test_case "futures" `Quick test_future_basics;
        ] );
      ( "async prewarm",
        [
          Alcotest.test_case "equivalent to sequential" `Quick
            test_prewarm_async_equivalent;
          Alcotest.test_case "inflight and double-await guards" `Quick
            test_prewarm_async_guards;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "multiserver packing" `Quick
            test_multiserver_deterministic;
          Alcotest.test_case "hybrid broadcast" `Quick test_hybrid_deterministic;
          Alcotest.test_case "prewarm" `Quick test_prewarm_deterministic;
          Alcotest.test_case "treegen repack" `Quick
            test_treegen_repack_deterministic;
        ] );
    ]
