(* Benchmark harness: `dune exec bench/main.exe` regenerates every figure of
   the paper's evaluation (see EXPERIMENTS.md for paper-vs-measured) and
   finishes with Bechamel micro-benchmarks of the planning and simulation
   hot paths. `dune exec bench/main.exe -- fig15` runs a single target;
   `-- list` enumerates them. *)

module Server = Blink_topology.Server
module Blink = Blink_core.Blink
module Treegen = Blink_core.Treegen
module Json = Blink_telemetry.Json
module Telemetry = Blink_telemetry.Telemetry
module Scenario = Blink_scenario.Scenario
module Simplex = Blink_lp.Simplex

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: planner and simulator costs. *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  Util.heading "Bechamel: planner / simulator hot paths (ns per run)";
  let gpus8 = Array.init 8 Fun.id in
  let graph = Server.nvlink_digraph Server.dgx1v ~gpus:gpus8 in
  let handle = Blink.create Server.dgx1v ~gpus:gpus8 in
  let elems = 25_000_000 in
  let prog, _ = Blink.all_reduce ~chunk_elems:1_048_576 handle ~elems in
  let tests =
    [
      Test.make ~name:"maxflow-rate"
        (Staged.stage (fun () -> ignore (Treegen.best_root graph)));
      Test.make ~name:"mwu-pack"
        (Staged.stage (fun () ->
             ignore (Treegen.pack ~epsilon:0.1 graph ~root:0 ~undirected:false)));
      Test.make ~name:"plan-with-ilp"
        (Staged.stage (fun () ->
             ignore (Treegen.plan ~epsilon:0.1 graph ~root:0 ~undirected:false)));
      Test.make ~name:"plan-undirected"
        (Staged.stage (fun () ->
             ignore (Treegen.plan ~epsilon:0.1 graph ~root:0 ~undirected:true)));
      Test.make ~name:"codegen-allreduce-100MB"
        (Staged.stage (fun () ->
             ignore (Blink.all_reduce ~chunk_elems:1_048_576 handle ~elems)));
      Test.make ~name:"engine-run-100MB"
        (Staged.stage (fun () -> ignore (Blink.time handle prog)));
      Test.make ~name:"ring-channel-search"
        (Staged.stage (fun () ->
             ignore (Blink_baselines.Ring.nccl_channels Server.dgx1v ~gpus:gpus8)));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let stats = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Printf.printf "  %-28s %12.0f ns/run\n%!" name ns
          | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
        stats)
    tests

(* ------------------------------------------------------------------ *)
(* Plan-cache mode: prove that planning work is done once and repeated
   collectives replay the compiled plan. *)

module Comm = Blink_core.Comm
module Plan = Blink_core.Plan

let plan_cache_suite () =
  let iters = 100 in
  let elems = 1_000_000 in
  Util.heading "Plan cache: %dx Comm.all_reduce of %d elems on gpus {1,4,5,6}"
    iters elems;
  let c = Comm.init Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  let inputs = Scenario.rank_inputs ~ranks:4 ~elems in
  let wall f =
    let t0 = Sys.time () in
    let x = f () in
    (Sys.time () -. t0, x)
  in
  (* First call compiles: tree extraction + MIAD tuning + codegen. *)
  let t_first, _ = wall (fun () -> Comm.all_reduce c inputs) in
  let t_rest = ref 0. in
  for _ = 2 to iters do
    let t, _ = wall (fun () -> Comm.all_reduce c inputs) in
    t_rest := !t_rest +. t
  done;
  let { Blink.hits; misses } = Comm.plan_cache_stats c in
  let avg_rest = !t_rest /. Float.of_int (iters - 1) in
  Util.row "  first call (plan + execute):    %8.1f ms\n" (t_first *. 1e3);
  Util.row "  later calls (cached plan):      %8.1f ms avg\n" (avg_rest *. 1e3);
  Util.row "  planning amortization:          %8.1fx\n" (t_first /. avg_rest);
  Util.row "  plan cache: %d hits / %d misses (%.1f%% hit rate)\n" hits misses
    (100. *. Float.of_int hits /. Float.of_int (hits + misses));
  (* Split one cached iteration into its passes on a timing-only plan. *)
  let handle = Comm.handle c in
  let t_plan_hit, plan =
    wall (fun () -> Blink.plan handle Plan.All_reduce ~elems)
  in
  let t_timing, _ = wall (fun () -> Plan.execute ~data:false plan) in
  let t_replay, _ = wall (fun () -> Plan.execute plan) in
  Util.row "  per call: plan lookup %.3f ms, timing pass %.1f ms, \
            timing+data passes %.1f ms\n"
    (t_plan_hit *. 1e3) (t_timing *. 1e3) (t_replay *. 1e3);
  (* Dump the final cache counters plus the communicator's full telemetry
     registry — the same counters the rows above summarize — as a
     machine-readable artifact for CI and the regression gate. *)
  let { Blink.hits = hits_final; misses = misses_final } =
    Comm.plan_cache_stats c
  in
  Util.write_bench_json ~suite:"plan_cache"
    [
      ("iters", Json.int iters);
      ("elems", Json.int elems);
      ("hits", Json.int hits_final);
      ("misses", Json.int misses_final);
      ( "hit_rate",
        Json.float
          (Float.of_int hits_final
          /. Float.of_int (max 1 (hits_final + misses_final))) );
      ("metrics", Telemetry.metrics_json (Comm.telemetry c));
    ]

(* ------------------------------------------------------------------ *)
(* Parallel-plan mode: the same planning sweep driven by a 1-domain pool
   (sequential by construction) and a multi-domain pool, with wall-clock
   and speedup dumped as a machine-readable artifact. The planning work —
   per-server MWU + ILP packing in Multiserver.create, MIAD tuning and
   codegen in Blink.prewarm — is what the domain pool fans out. *)

module Pool = Blink_parallel.Pool
module Multiserver = Blink_core.Multiserver

let parallel_plan_measured () =
  let cluster n = List.init n (fun _ -> (Server.dgx1v, Array.init 8 Fun.id)) in
  let prewarm_keys =
    List.concat_map
      (fun elems -> [ (Plan.All_reduce, elems); (Plan.Broadcast, elems) ])
      [ 262_144; 1_048_576; 4_194_304; 16_777_216 ]
  in
  let jobs =
    [
      ( "multiserver-2x8",
        fun pool -> ignore (Multiserver.create ~pool (cluster 2)) );
      ( "multiserver-4x8",
        fun pool -> ignore (Multiserver.create ~pool (cluster 4)) );
      ( "prewarm-8keys",
        fun pool ->
          let handle =
            Blink.create Server.dgx1v ~gpus:(Array.init 8 Fun.id)
          in
          ignore (Blink.prewarm ~pool handle prewarm_keys) );
    ]
  in
  let wall f = fst (Scenario.timed f) in
  (* Warm-up pass so allocator effects don't favour either side. *)
  Pool.with_pool ~domains:1 (fun pool ->
      List.iter (fun (_, job) -> job pool) jobs);
  let time_all pool = List.map (fun (name, job) -> (name, wall (fun () -> job pool))) jobs in
  let seq = Pool.with_pool ~domains:1 time_all in
  (* Ask for 4 domains but never exceed what this host can actually run
     in parallel: oversubscribing cores makes the "parallel" run slower
     than sequential and the artifact misleading. *)
  let requested = 4 in
  let effective = min requested (max 1 (Pool.default_domains ())) in
  let par_domains, par =
    Pool.with_pool ~domains:effective (fun pool ->
        (Pool.domains pool, time_all pool))
  in
  let total xs = List.fold_left (fun acc (_, t) -> acc +. t) 0. xs in
  let t_seq = total seq and t_par = total par in
  let speedup = if t_par > 0. then t_seq /. t_par else 0. in
  let expected_on_this_host = speedup < 1.0 && par_domains < requested in
  Util.row "  %-18s %12s %12s %9s\n" "job" "1 domain"
    (Printf.sprintf "%d domains" par_domains)
    "speedup";
  List.iter2
    (fun (name, ts) (_, tp) ->
      Util.row "  %-18s %10.1f ms %10.1f ms %8.2fx\n" name (ts *. 1e3)
        (tp *. 1e3)
        (if tp > 0. then ts /. tp else 0.))
    seq par;
  Util.row "  %-18s %10.1f ms %10.1f ms %8.2fx\n" "total" (t_seq *. 1e3)
    (t_par *. 1e3) speedup;
  Util.row
    "  (requested %d domains, ran %d; recommended on this machine: %d)\n"
    requested par_domains (Pool.default_domains ());
  if expected_on_this_host then
    Util.row
    "  (sub-1.0 speedup is expected on this host: too few real cores)\n";
  let job_objs =
    List.map2
      (fun (name, ts) (_, tp) ->
        Json.Obj
          [
            ("job", Json.str name);
            ("seq_s", Json.float ts);
            ("par_s", Json.float tp);
            ("speedup", Json.float (if tp > 0. then ts /. tp else 0.));
          ])
      seq par
  in
  Util.write_bench_json ~suite:"parallel_plan"
    [
      ("skipped_no_domains", Json.Bool false);
      ("recommended_domains", Json.int (Pool.default_domains ()));
      ("requested_domains", Json.int requested);
      ("par_domains", Json.int par_domains);
      ("expected_on_this_host", Json.Bool expected_on_this_host);
      ("seq_total_s", Json.float t_seq);
      ("par_total_s", Json.float t_par);
      ("speedup", Json.float speedup);
      ("jobs", Json.List job_objs);
    ];
  (* Speedup gate: only enforced where parallelism actually exists.
     [expected_on_this_host] (fewer real cores than requested) keeps the
     gate advisory on laptops; the BLINK_DOMAINS=4 CI job makes it
     hard. *)
  Util.fail_if ((not expected_on_this_host) && speedup < 1.05)
    "parallel-plan: %.2fx speedup with %d domains (gate: >= 1.05x)\n" speedup
    par_domains

(* Single-domain hosts (CI runners, small containers) have no
   parallelism to measure: a 1-vs-1 comparison would only publish
   scheduler noise. Report the skip explicitly so the artifact says why
   the numbers are absent instead of carrying misleading ones. *)
let unless_single_domain ~suite ~why measured =
  if Pool.default_domains () <= 1 then begin
    Util.row "  skipped: this host recommends a single domain — %s\n" why;
    Util.write_bench_json ~suite
      [
        ("skipped_no_domains", Json.Bool true);
        ("recommended_domains", Json.int (Pool.default_domains ()));
      ]
  end
  else measured ()

let parallel_plan_suite () =
  Util.heading
    "Parallel planning: multi-server packing + plan prewarm, 1 vs N domains";
  unless_single_domain ~suite:"parallel_plan" ~why:"nothing to parallelize"
    parallel_plan_measured

(* ------------------------------------------------------------------ *)
(* Overlap mode: planning hidden behind execution. The foreground domain
   replays an already-compiled plan (the training loop stand-in) while
   [Blink.prewarm_async] pipelines next-allocation tuning + codegen on a
   pool worker. Sequential = prewarm then replay; overlapped = submit,
   replay, await. The replay loop is calibrated to roughly the prewarm
   wall, so perfect overlap approaches 2x. *)

let overlap_measured () =
  let gpus = Array.init 8 Fun.id in
  let keys =
    List.concat_map
      (fun elems -> [ (Plan.All_reduce, elems); (Plan.Broadcast, elems) ])
      [ 262_144; 1_048_576; 4_194_304 ]
  in
  let mk () = Blink.create Server.dgx1v ~gpus in
  let wall f = fst (Scenario.timed f) in
  (* Foreground work: steady-state timing replays of a compiled plan. *)
  let live = Blink.create Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  let plan = Blink.plan live Plan.All_reduce ~elems:1_000_000 in
  ignore (Plan.execute ~data:false plan);
  (* Calibrate: one throwaway 1-domain prewarm (also the warm-up pass)
     sizes the replay loop to the single-worker pipeline wall — what the
     async job actually costs, since it runs on one pool worker while
     [prewarm ~pool] fans the same keys out across all of them. *)
  let prewarm_wall =
    Pool.with_pool ~domains:1 (fun pool ->
        wall (fun () -> ignore (Blink.prewarm ~pool (mk ()) keys)))
  in
  let one_exec =
    wall (fun () -> for _ = 1 to 10 do ignore (Plan.execute ~data:false plan) done)
    /. 10.
  in
  let exec_iters =
    max 10 (int_of_float (prewarm_wall /. Float.max 1e-9 one_exec))
  in
  let exec_loop () =
    for _ = 1 to exec_iters do
      ignore (Plan.execute ~data:false plan)
    done
  in
  let domains = min 4 (max 2 (Pool.default_domains ())) in
  let seq_total, overlap_total =
    Pool.with_pool ~domains (fun pool ->
        let h_seq = mk () in
        let seq =
          wall (fun () ->
              ignore (Blink.prewarm ~pool h_seq keys);
              exec_loop ())
        in
        let h_ovl = mk () in
        let ovl =
          wall (fun () ->
              let job = Blink.prewarm_async ~pool h_ovl keys in
              exec_loop ();
              ignore (Blink.prewarm_await h_ovl job))
        in
        (seq, ovl))
  in
  let speedup = if overlap_total > 0. then seq_total /. overlap_total else 0. in
  Util.row "  prewarm wall %.1f ms, replay loop %d x %.3f ms\n"
    (prewarm_wall *. 1e3) exec_iters (one_exec *. 1e3);
  Util.row "  sequential %.1f ms, overlapped %.1f ms: %.2fx\n"
    (seq_total *. 1e3) (overlap_total *. 1e3) speedup;
  let effective = min domains (Pool.default_domains ()) in
  let expected_on_this_host = speedup < 1.0 && effective < 2 in
  Util.write_bench_json ~suite:"overlap"
    [
      ("skipped_no_domains", Json.Bool false);
      ("recommended_domains", Json.int (Pool.default_domains ()));
      ("pool_domains", Json.int domains);
      ("prewarm_wall_s", Json.float prewarm_wall);
      ("exec_iters", Json.int exec_iters);
      ("exec_wall_s", Json.float one_exec);
      ("seq_total_s", Json.float seq_total);
      ("overlap_total_s", Json.float overlap_total);
      ("speedup", Json.float speedup);
      ("expected_on_this_host", Json.Bool expected_on_this_host);
    ];
  Util.fail_if ((not expected_on_this_host) && speedup < 1.10)
    "overlap: prewarm_async hid only %.2fx with %d domains (gate: >= 1.10x)\n"
    speedup domains

let overlap_suite () =
  Util.heading
    "Overlap: prewarm_async planning hidden behind plan replay, seq vs async";
  unless_single_domain ~suite:"overlap"
    ~why:"prewarm_async degenerates to sequential" overlap_measured

(* ------------------------------------------------------------------ *)
(* Replay mode: steady-state cost of re-executing a compiled plan.

   Seed path (what every execute cost before the prepare/run split): a
   full Engine.run — validation, schedule lowering, event-queue and
   result allocation — plus a fresh float-array reference memory for the
   data replay. Prepared path: Plan.execute replays the cached schedule
   against the plan's arena and pooled Bigarray memory, so the steady
   state allocates (almost) nothing. The suite measures per-execute wall
   clock and minor-heap words for both across all six collectives and
   enforces the allocation budget on the timing-only fast path. *)

module E = Blink_sim.Engine
module Sem = Blink_sim.Semantics
module Codegen = Blink_collectives.Codegen

(* Minor words a steady-state timing-only Plan.execute may allocate per
   run. The arena makes the engine itself allocation-free; the budget
   covers the execution record, telemetry bookkeeping and Gc sampling.
   Exceeding it means someone reintroduced a per-run allocation that
   scales with the program (events list, result arrays, dependents). *)
let alloc_guard_minor_words = 2048.

let replay_suite () =
  let iters = 100 in
  let elems = 1_000_000 in
  Util.heading
    "Replay: %dx per-collective re-execution of %d elems on gpus {1,4,5,6}"
    iters elems;
  let handle = Blink.create Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  let inputs = Scenario.rank_inputs ~ranks:4 ~elems in
  let load = Scenario.loader inputs in
  let wall_and_words = Scenario.per_run ~runs:iters in
  let collectives =
    [
      Plan.All_reduce;
      Plan.Broadcast;
      Plan.Reduce;
      Plan.Gather;
      Plan.All_gather;
      Plan.Reduce_scatter;
    ]
  in
  Util.row "  %-15s %13s %13s %6s %14s %14s %8s\n" "collective" "seed/exec"
    "prepared/exec" "wall" "seed minor/ex" "prep minor/ex" "alloc";
  let guard_worst = ref 0. in
  let tot_chains = ref 0 and tot_fops = ref 0 in
  let tot_kraw = ref 0 and tot_kcomp = ref 0 in
  let rows, headline =
    List.fold_left
      (fun (rows, headline) collective ->
        let plan = Blink.plan handle collective ~elems in
        let prog = plan.Plan.program and resources = plan.Plan.resources in
        let layout = plan.Plan.layout in
        let load_ref rmem =
          Array.iteri
            (fun r buf ->
              Sem.Ref.write rmem ~node:r ~buf:layout.Codegen.data.(r) buf)
            inputs
        in
        let seed_exec () =
          ignore (E.run ~resources prog);
          let rmem = Sem.Ref.memory_of_program prog in
          load_ref rmem;
          Sem.Ref.run prog rmem
        in
        let prep_exec () = ignore (Plan.execute ~load plan) in
        let seed_timing () = ignore (E.run ~resources prog) in
        let prep_timing () = ignore (Plan.execute ~data:false plan) in
        (* One warm round each so first-touch costs (kernel compilation,
           pool sizing, page faults) don't land in either measurement. *)
        seed_exec ();
        prep_exec ();
        prep_timing ();
        let seed_s, seed_w = wall_and_words seed_exec in
        let prep_s, prep_w = wall_and_words prep_exec in
        let seed_t_s, seed_t_w = wall_and_words seed_timing in
        let prep_t_s, prep_t_w = wall_and_words prep_timing in
        (* Simulated makespan of the compiled plan: deterministic on any
           host, so the regression gate can diff it exactly. *)
        let sim_s = Plan.seconds (Plan.execute ~data:false plan) in
        (* Fusion and kernel-table shape: pure functions of the program,
           so the gate diffs them exactly — a drop in batching or a
           fused-chain count change is a planner regression even when
           wall clock hides it. *)
        let prep = plan.Plan.prepared in
        let fusion_on = E.fusion_enabled prep in
        let f_chains = E.fused_chains prep and f_ops = E.fused_ops prep in
        let k_raw, k_compiled, _ =
          match plan.Plan.pool_mem with
          | Some mem -> Sem.kernel_stats mem prog
          | None -> Sem.kernel_stats (Sem.memory_of_program prog) prog
        in
        tot_chains := !tot_chains + f_chains;
        tot_fops := !tot_fops + f_ops;
        tot_kraw := !tot_kraw + k_raw;
        tot_kcomp := !tot_kcomp + k_compiled;
        guard_worst := Float.max !guard_worst prep_t_w;
        let speedup = if prep_s > 0. then seed_s /. prep_s else 0. in
        let alloc_ratio = if prep_w > 0. then seed_w /. prep_w else infinity in
        let name = Plan.collective_name collective in
        Util.row "  %-15s %10.2f ms %10.2f ms %5.1fx %12.0f w %12.0f w %7.0fx\n"
          name (seed_s *. 1e3) (prep_s *. 1e3) speedup seed_w prep_w
          alloc_ratio;
        let row =
          Json.Obj
            [
              ("collective", Json.str name);
              ("simulated_makespan_s", Json.float sim_s);
              ("seed_wall_s", Json.float seed_s);
              ("prepared_wall_s", Json.float prep_s);
              ("wall_speedup", Json.float speedup);
              ("seed_minor_words", Json.float seed_w);
              ("prepared_minor_words", Json.float prep_w);
              ("alloc_ratio", Json.float alloc_ratio);
              ("seed_timing_wall_s", Json.float seed_t_s);
              ("prepared_timing_wall_s", Json.float prep_t_s);
              ("seed_timing_minor_words", Json.float seed_t_w);
              ("prepared_timing_minor_words", Json.float prep_t_w);
              ("fusion_enabled", Json.Bool fusion_on);
              ("fused_chains", Json.int f_chains);
              ("fused_ops", Json.int f_ops);
              ("kernels_raw", Json.int k_raw);
              ("kernels_compiled", Json.int k_compiled);
            ]
        in
        let headline =
          if collective = Plan.All_reduce then Some (speedup, alloc_ratio)
          else headline
        in
        (row :: rows, headline))
      ([], None) collectives
  in
  let rows = List.rev rows in
  let hl_speedup, hl_alloc =
    match headline with Some h -> h | None -> (0., 0.)
  in
  Util.row "  headline (all_reduce): %.1fx wall, %.0fx fewer minor words\n"
    hl_speedup hl_alloc;
  let guard_ok = !guard_worst <= alloc_guard_minor_words in
  Util.row "  alloc guard: worst timing-only execute %.0f minor words/run \
            (budget %.0f) — %s\n"
    !guard_worst alloc_guard_minor_words
    (if guard_ok then "OK" else "FAIL");
  let tel = Blink.telemetry handle in
  let counter name = Blink_telemetry.Telemetry.counter_value tel name in
  Util.row "  engine.prepares %d vs engine.runs %d (schedules are \
            lowered once, replayed thereafter)\n"
    (counter "engine.prepares") (counter "engine.runs");
  Util.row "  fusion: %d chains covering %d ops; kernel tables %d raw -> \
            %d compiled across the six plans\n"
    !tot_chains !tot_fops !tot_kraw !tot_kcomp;
  Util.write_bench_json ~suite:"replay"
    [
      ("iters", Json.int iters);
      ("elems", Json.int elems);
      ("headline_wall_speedup", Json.float hl_speedup);
      ("headline_alloc_ratio", Json.float hl_alloc);
      ("alloc_guard_minor_words", Json.float alloc_guard_minor_words);
      ("alloc_guard_worst", Json.float !guard_worst);
      ("alloc_guard_ok", Json.Bool guard_ok);
      ("engine_prepares", Json.int (counter "engine.prepares"));
      ("engine_runs", Json.int (counter "engine.runs"));
      ("collectives", Json.List rows);
    ];
  Util.fail_if (not guard_ok)
    "replay: allocation guard failed (%.0f > %.0f minor words/run)\n"
    !guard_worst alloc_guard_minor_words

(* ------------------------------------------------------------------ *)
(* Kernel microbench: GB/s of each C stub entry point on large slabs.
   Throughputs are host-dependent (the gate ignores them); the
   benchmarked shapes are exact. *)

(* One simplex elimination (Simplex.eliminate) on a 42 x 2,347 tableau:
   the directed candidate LP of an 8-GPU DGX-1V after a 50% degrade of
   link 2-3 (42 edge rows; 2,305 MWU trees plus 42 slacks). Every entry
   is nonzero, as in a tableau well into phase II, so the pivot row is
   dense and each of the 41 other rows updates every column. Each timed
   elimination starts from a fresh copy of the same tableau; the copy is
   not timed. *)
let pivot_bench () =
  let rows = 42 and cols = 2_347 and iters = 200 in
  let seed = ref 12345 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    0.25 +. (Float.of_int (!seed lsr 6 land 0xffff) /. 65536.)
  in
  let a0 = Array.init rows (fun _ -> Array.init cols (fun _ -> next ())) in
  let b0 = Array.init rows (fun _ -> next ()) in
  let a = Array.map Array.copy a0 and b = Array.copy b0 in
  let scratch = Array.make cols 0 in
  let updates = ref 0 and total = ref 0. in
  (* Elimination 0 warms the caches and is not counted. *)
  for it = 0 to iters do
    Array.iteri (fun i r -> Array.blit r 0 a.(i) 0 cols) a0;
    Array.blit b0 0 b 0 rows;
    let t0 = Unix.gettimeofday () in
    updates := Simplex.eliminate a b ~scratch ~row:0 ~col:0;
    if it > 0 then total := !total +. (Unix.gettimeofday () -. t0)
  done;
  let dt = !total /. Float.of_int iters in
  let ns = dt *. 1e9 /. Float.of_int !updates in
  Util.row "  %-10s %8.2f ns per row-element update  (%.3f ms per %dx%d \
            elimination, %d updates)\n"
    "pivot" ns (dt *. 1e3) rows cols !updates;
  Json.Obj
    [
      ("kernel", Json.str "pivot");
      ("elems", Json.int !updates);
      ("rows", Json.int rows);
      ("cols", Json.int cols);
      ("wall_s", Json.float dt);
      ("ns_per_update", Json.float ns);
    ]

let kernels_suite () =
  Util.heading "Kernels: C stub throughput";
  let elems = 4_194_304 in
  let make () =
    Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout elems
  in
  let a = make () and b = make () and c = make () in
  Bigarray.Array1.fill a 1.5;
  Bigarray.Array1.fill b 0.25;
  Bigarray.Array1.fill c 0.0;
  let f64 = Array.init elems (fun i -> Float.of_int (i land 255)) in
  let iters = 40 in
  (* Mean wall seconds per call after one warm call. *)
  let per_call f =
    f ();
    fst (Scenario.per_run ~runs:iters f)
  in
  let bench name bytes_per_elem f =
    let dt = per_call f in
    let gbps = Float.of_int elems *. bytes_per_elem /. dt /. 1e9 in
    Util.row "  %-10s %8.2f GB/s  (%.3f ms per %d-elem call)\n" name gbps
      (dt *. 1e3) elems;
    (name, dt, gbps)
  in
  (* Bytes moved per element: copy touches 8 (read + write), reduce 12
     (read both + write), of_f64 12 (8 in, 4 out), to_f64 12 (4 in,
     8 out). Bound sequentially: list elements evaluate right-to-left. *)
  let k_copy = bench "copy" 8. (fun () -> Sem.Kernels.copy b 0 a 0 elems) in
  let k_reduce =
    bench "reduce" 12. (fun () -> Sem.Kernels.reduce c 0 a 0 elems)
  in
  let k_of_f64 =
    bench "of_f64" 12. (fun () -> Sem.Kernels.of_f64 a 0 f64 elems)
  in
  let wide = Array.create_float elems in
  let k_to_f64 =
    bench "to_f64" 12. (fun () -> Sem.Kernels.to_f64 wide a 0 elems)
  in
  let ks = [ k_copy; k_reduce; k_of_f64; k_to_f64 ] in
  let pivot = pivot_bench () in
  Util.write_bench_json ~suite:"kernels"
    [
      ("elems", Json.int elems);
      ("iters", Json.int iters);
      ( "kernels",
        Json.List
          (List.map
             (fun (name, dt, gbps) ->
               Json.Obj
                 [
                   ("kernel", Json.str name);
                   ("elems", Json.int elems);
                   ("wall_s", Json.float dt);
                   ("gbps", Json.float gbps);
                 ])
             ks
          @ [ pivot ]) );
    ]

(* ------------------------------------------------------------------ *)
(* Failover mode: fault injection and degraded-topology replanning.

   Healthy-handle baseline, then a link loss and a link degradation
   reported mid-life: wall-clock replan latency around each mutation,
   cache-invalidation counters, degraded packing rate versus a fresh
   handle created directly on the degraded fabric (must match exactly),
   a mid-run flaky-link simulation through Fault.run, and the typed
   partition error on an allocation whose cut link is a bridge. *)

module Program = Blink_sim.Program
module Fault = Blink_sim.Fault

let failover_suite () =
  let open Scenario in
  let gpus = Array.init 8 Fun.id in
  let elems = 1_000_000 in
  Util.heading
    "Failover: link fault injection + replanning, %d elems on dgx1v 8 gpus"
    elems;
  (* Fail an NVLink the healthy plan routes over, on three handles: cold
     replan, warm incremental replan, and a prewarmed contingency swap.
     Each mutation replans the fabric and invalidates exactly the
     touching cache keys. *)
  let d = drill Server.dgx1v ~gpus ~elems in
  let cold = d.cold and warm = d.warm and cont = d.contingency in
  let handle = cold.handle and (u, v) = d.link in
  let healthy_s = d.healthy_makespan_s and t_replan = cold.plan_s in
  let degraded_rate = cold.rate_gbps and degraded_s = cold.makespan_s in
  Util.row "  healthy: %.1f GB/s packing rate, %.3f ms simulated all_reduce\n"
    d.healthy_rate_gbps (healthy_s *. 1e3);
  Util.row "  fail_link %d-%d: topology replan %.1f ms, key re-plan %.1f ms\n"
    u v (cold.replan_s *. 1e3) (t_replan *. 1e3);
  Util.row "  degraded: %.1f GB/s packing rate, %.3f ms simulated all_reduce \
            (%.1f%% of healthy)\n"
    degraded_rate (degraded_s *. 1e3) (100. *. healthy_s /. degraded_s);
  (* A fresh handle created directly on the degraded fabric must agree
     bit-for-bit — the replanned handle holds no stale state. *)
  let fresh = fresh_check handle ~elems in
  let fresh_matches = fresh.matches in
  Util.row "  fresh handle on degraded fabric: %.1f GB/s, %.3f ms — %s\n"
    fresh.fresh_rate_gbps (fresh.fresh_makespan_s *. 1e3)
    (if fresh_matches then "matches replanned handle exactly"
     else "MISMATCH vs replanned handle");
  (* Degrade a second link to half rate on top of the loss, cold on the
     cold handle and warm on the warm one. *)
  let u2, v2 =
    List.hd (used_pairs (Blink.plan handle Plan.All_reduce ~elems) ~gpus)
  in
  let half = Degrade (u2, v2, 0.5) in
  let degrade = apply ~replan:`Cold handle ~elems half in
  Util.row "  degrade_link %d-%d to 50%%: replan %.1f ms, %.1f GB/s\n" u2 v2
    (degrade.replan_s *. 1e3) degrade.rate_gbps;
  let warm_degrade = apply warm.handle ~elems half in
  let warm_rate_equals_cold = warm.rate_gbps = degraded_rate in
  Util.row
    "  warm replan: fail %.1f ms (%.1fx vs cold), degrade %.1f ms (%.1fx), \
     %.1f GB/s%s\n"
    (warm.replan_s *. 1e3) (cold.replan_s /. warm.replan_s)
    (warm_degrade.replan_s *. 1e3)
    (degrade.replan_s /. warm_degrade.replan_s) warm.rate_gbps
    (if warm_rate_equals_cold then " (= cold rate)" else "");
  let contingency_matches =
    cont.rate_gbps = degraded_rate && cont.makespan_s = degraded_s
  in
  Util.row
    "  contingency: prewarm %.1f ms (%d plans), failover %.2f ms, %.1f GB/s \
     — %s\n"
    (d.prewarm_s *. 1e3) d.prewarmed_plans (cont.replan_s *. 1e3) cont.rate_gbps
    (if contingency_matches then "matches the cold replan exactly"
     else "MISMATCH vs cold replan");
  let counter name = Telemetry.counter_value (Blink.telemetry handle) name in
  Util.row "  counters: fault.injected %d, plan.cache.invalidations %d\n"
    (counter "fault.injected") (counter "plan.cache.invalidations");
  (* Mid-run fault model: replay the healthy compiled plan with a flaky
     window on its first transfer link — ops retry with backoff and the
     run completes late instead of wedging. *)
  let plan0 = d.healthy in
  let link = ref (-1) in
  Program.iter_ops
    (fun o ->
      match o.Program.kind with
      | Program.Transfer { link = l; _ } when !link < 0 -> link := l
      | _ -> ())
    plan0.Plan.program;
  let clean = Fault.run ~resources:plan0.Plan.resources plan0.Plan.program in
  let clean_s = clean.Fault.timing.E.makespan in
  let flaky =
    Fault.run ~resources:plan0.Plan.resources
      ~events:[ Fault.Flaky { res = !link; from_s = 0.; until_s = clean_s /. 2. } ]
      plan0.Plan.program
  in
  Util.row "  mid-run flaky link %d: %d retries over %d faulted ops, %.3f ms \
            -> %.3f ms\n"
    !link flaky.Fault.retries flaky.Fault.faulted_ops (clean_s *. 1e3)
    (flaky.Fault.timing.E.makespan *. 1e3);
  (* Partition detection: within {1,4,5,6} the (1,5) NVLink is gpu 1's
     only edge, so failing it must raise the typed error, not replan. *)
  let island = Blink.create ~root:2 Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  let partition =
    match Blink.fail_link island ~u:1 ~v:5 with
    | () -> None
    | exception Blink.Partitioned { alive; unreachable } ->
        Util.row
          "  partition on {1,4,5,6} - link 1-5: alive {%s}, unreachable {%s}\n"
          (String.concat "," (List.map string_of_int alive))
          (String.concat "," (List.map string_of_int unreachable));
        Some (alive, unreachable)
  in
  if partition = None then
    Util.row "  partition on {1,4,5,6} - link 1-5: NOT DETECTED (bug)\n";
  let t_warm_fail = warm.replan_s and t_cont = cont.replan_s in
  Util.write_bench_json ~suite:"failover"
    [
      ("elems", Json.int elems);
      ("healthy_rate_gbps", Json.float d.healthy_rate_gbps);
      ("healthy_all_reduce_s", Json.float healthy_s);
      ("failed_link", Json.List [ Json.int u; Json.int v ]);
      ("topology_replan_s", Json.float cold.replan_s);
      ("key_replan_s", Json.float t_replan);
      ("degraded_rate_gbps", Json.float degraded_rate);
      ("degraded_all_reduce_s", Json.float degraded_s);
      ("fresh_handle_rate_gbps", Json.float fresh.fresh_rate_gbps);
      ("fresh_handle_all_reduce_s", Json.float fresh.fresh_makespan_s);
      ("fresh_matches_replanned", Json.Bool fresh_matches);
      ("degraded_link", Json.List [ Json.int u2; Json.int v2 ]);
      ("degrade_replan_s", Json.float degrade.replan_s);
      ("double_fault_rate_gbps", Json.float degrade.rate_gbps);
      ("warm_replan_s", Json.float t_warm_fail);
      ("warm_degrade_replan_s", Json.float warm_degrade.replan_s);
      ("warm_rate_gbps", Json.float warm.rate_gbps);
      ("warm_rate_equals_cold", Json.Bool warm_rate_equals_cold);
      ("replan_speedup_vs_cold", Json.float (cold.replan_s /. t_warm_fail));
      ("contingency_prewarm_s", Json.float d.prewarm_s);
      ("contingency_prewarmed_plans", Json.int d.prewarmed_plans);
      ("contingency_replan_s", Json.float t_cont);
      ("contingency_rate_gbps", Json.float cont.rate_gbps);
      ("contingency_matches_cold", Json.Bool contingency_matches);
      ("contingency_hits", Json.int (contingency_hits cont.handle));
      ("faults_injected", Json.int (counter "fault.injected"));
      ( "plan_cache_invalidations",
        Json.int (counter "plan.cache.invalidations") );
      ("midrun_retries", Json.int flaky.Fault.retries);
      ("midrun_faulted_ops", Json.int flaky.Fault.faulted_ops);
      ("midrun_clean_s", Json.float clean_s);
      ("midrun_flaky_s", Json.float flaky.Fault.timing.E.makespan);
      ("partition_detected", Json.Bool (Option.is_some partition));
      ( "partition_alive",
        Json.List
          (match partition with
          | Some (alive, _) -> List.map Json.int alive
          | None -> []) );
      ( "partition_unreachable",
        Json.List
          (match partition with
          | Some (_, unreachable) -> List.map Json.int unreachable
          | None -> []) );
    ];
  Util.fail_if (not fresh_matches)
    "failover: replanned handle diverges from a fresh handle on the \
     degraded fabric\n";
  Util.fail_if (partition = None) "failover: partition was not detected\n";
  (* Hard latency gates for the incremental-replanning paths: a warm
     replan must land within 10x of a plan-cache re-plan, a contingency
     failover within 2x — and the contingency plan must be the cold plan
     (it was built cold, ahead of time, under the post-fault key). *)
  Util.fail_if (t_warm_fail > 10. *. t_replan)
    "failover: warm replan %.3f ms exceeds 10x key re-plan %.3f ms\n"
    (t_warm_fail *. 1e3) (t_replan *. 1e3);
  Util.fail_if (t_cont > 2. *. t_replan)
    "failover: contingency failover %.3f ms exceeds 2x key re-plan %.3f \
     ms\n"
    (t_cont *. 1e3) (t_replan *. 1e3);
  Util.fail_if (not contingency_matches)
    "failover: contingency plan diverges from the cold replan\n"

(* ------------------------------------------------------------------ *)
(* Cluster service: the shared fingerprint-keyed plan store under a
   multi-tenant churn trace — the paper's 40,000-jobs-to-46-topologies
   observation as a sustained-throughput benchmark. CI runs this as a
   smoke: the exit-1 guards hold the acceptance floor (>= 95%% cross-job
   hit rate, <= 50 unique fingerprints, zero bit-identity mismatches). *)

module Scheduler = Blink_cluster.Scheduler
module Fingerprint = Blink_store.Fingerprint

(* Fingerprint memo hits on the service's slice realizations: every
   ascending NVLink-connected DGX-1V tuple of 2 to 8 GPUs (the scheduler
   hands out lowest free ids first, so slices are ascending) and the class
   representative each is remapped to before [Blink.create] fingerprints
   it again. All are warmed first; then [repeats] timed rounds of [hits]
   hits, and the minor words of one more round. Host-dependent, so the
   regression gate does not check it. *)
let fingerprint_hits ~repeats ~hits =
  let server = Server.dgx1v in
  let slices =
    List.filter_map
      (fun mask ->
        let ids = List.filter (fun g -> mask land (1 lsl g) <> 0) (List.init 8 Fun.id) in
        if List.length ids >= 2 && Util.Alloc.nvlink_connected server ids then
          Some (Array.of_list ids)
        else None)
      (List.init 256 Fun.id)
  in
  let realizations =
    Array.of_list
      (List.concat_map
         (fun gpus ->
           match
             Fingerprint.canonical_alloc (Fingerprint.make server ~gpus ~faults:[])
           with
           | Some (tuple, _) -> [ gpus; tuple ]
           | None -> [ gpus ])
         slices)
  in
  let n = Array.length realizations in
  let round () =
    for i = 0 to hits - 1 do
      ignore (Fingerprint.make server ~gpus:realizations.(i mod n) ~faults:[])
    done
  in
  round ();
  let us =
    List.init repeats (fun _ ->
        let t0 = Unix.gettimeofday () in
        round ();
        (Unix.gettimeofday () -. t0) *. 1e6 /. float hits)
  in
  let w0 = Gc.minor_words () in
  round ();
  let words = (Gc.minor_words () -. w0) /. float hits in
  (n, us, words)

let cluster_suite () =
  let n_jobs = 2_000 and servers = 64 in
  Util.heading
    "Cluster service: %d jobs on %d dgx1v servers, shared plan store" n_jobs
    servers;
  let r = Scheduler.run_service ~servers ~verify_every:50 ~n_jobs () in
  let st = r.Scheduler.store in
  Scenario.pp_service Format.std_formatter r;
  (* The failover suite's drill, next to the service numbers: cold, warm
     and contingency replans of one link loss on a full server. *)
  let ({ Scenario.link = u, v; cold; warm; contingency = cont; _ } as d) =
    Scenario.drill Server.dgx1v ~gpus:(Array.init 8 Fun.id) ~elems:1_000_000
  in
  Util.row
    "  failover drill (link %d-%d): cold %.1f ms, warm %.1f ms, contingency \
     %.2f ms (prewarm %.1f ms, %d plans)\n"
    u v
    (cold.Scenario.replan_s *. 1e3)
    (warm.Scenario.replan_s *. 1e3)
    (cont.Scenario.replan_s *. 1e3)
    (d.Scenario.prewarm_s *. 1e3)
    d.Scenario.prewarmed_plans;
  (* Straggler injection: tenant 3 runs every slice 2x slow; the
     observatory must flag it and the flags must concentrate there. *)
  let straggler_tenant = 3 in
  let rs =
    Scheduler.run_service ~servers:16 ~n_jobs:400
      ~straggler:(straggler_tenant, 2.0) ()
  in
  let injected_flagged = rs.Scheduler.straggler_slices in
  let flagged_on_tenant =
    List.length
      (List.filter
         (fun (s : Scheduler.straggler) ->
           s.Scheduler.st_tenant = straggler_tenant)
         rs.Scheduler.stragglers)
  in
  Util.row "  injected straggler (tenant %d, 2.0x): %d flagged slices, %d on \
            the injected tenant\n"
    straggler_tenant injected_flagged flagged_on_tenant;
  let hit_repeats = 9 and hits = 10_000 in
  let hit_realizations, hit_us, hit_words =
    fingerprint_hits ~repeats:hit_repeats ~hits
  in
  let q p = Util.percentile p hit_us in
  Util.row
    "  fingerprint memo hit: %.2f us median (IQR %.2f us, %d x %d hits over %d \
     realizations), %.0f minor words\n"
    (q 0.5) (q 0.75 -. q 0.25) hit_repeats hits hit_realizations hit_words;
  let tenant_obj (o : Scheduler.tenant_observatory) =
    let summary (h : Scheduler.histogram_summary) =
      Json.Obj
        [
          ("count", Json.int h.Scheduler.h_count);
          ("mean_s", Json.float h.Scheduler.h_mean_s);
          ("p95_s", Json.float h.Scheduler.h_p95_s);
          ("max_s", Json.float h.Scheduler.h_max_s);
        ]
    in
    Json.Obj
      [
        ("tenant", Json.int o.Scheduler.ob_tenant);
        ("jobs", Json.int o.Scheduler.ob_jobs);
        ("latency", summary o.Scheduler.ob_latency);
        ("queue_wait", summary o.Scheduler.ob_queue_wait);
        ("straggler_slices", Json.int o.Scheduler.ob_straggler_slices);
      ]
  in
  let class_obj (c : Scheduler.fingerprint_class) =
    Json.Obj
      [
        ("class", Json.str c.Scheduler.fc_class);
        ("slices", Json.int c.Scheduler.fc_slices);
        ("mean_gbps", Json.float c.Scheduler.fc_mean_gbps);
        ("best_gbps", Json.float c.Scheduler.fc_best_gbps);
        ("worst_gbps", Json.float c.Scheduler.fc_worst_gbps);
        ("stragglers", Json.int c.Scheduler.fc_stragglers);
      ]
  in
  Util.write_bench_json ~suite:"cluster"
    [
            ("jobs", Json.int r.Scheduler.jobs);
            ("servers", Json.int servers);
            ("admitted_jobs", Json.int r.Scheduler.admitted_jobs);
            ( "rejected_capacity_jobs",
              Json.int r.Scheduler.rejected_capacity_jobs );
            ("rejected_quota_jobs", Json.int r.Scheduler.rejected_quota_jobs);
            ("planned_slices", Json.int r.Scheduler.planned_slices);
            ("single_gpu_slices", Json.int r.Scheduler.single_gpu_slices);
            ("pcie_slices", Json.int r.Scheduler.pcie_slices);
            ("store_hits", Json.int st.Blink_store.Store.hits);
            ("store_misses", Json.int st.Blink_store.Store.misses);
            ("store_entries", Json.int st.Blink_store.Store.entries);
            ("hit_rate", Json.float r.Scheduler.hit_rate);
            ( "unique_fingerprints",
              Json.int r.Scheduler.unique_fingerprints );
            ("jobs_per_second", Json.float r.Scheduler.jobs_per_second);
            ("wall_seconds", Json.float r.Scheduler.wall_seconds);
            ( "fingerprint_hit_us",
              Json.Obj
                [
                  ("median", Json.float (q 0.5));
                  ("iqr", Json.float (q 0.75 -. q 0.25));
                  ("repeats", Json.int hit_repeats);
                  ("hits", Json.int hits);
                  ("realizations", Json.int hit_realizations);
                ] );
            ("fingerprint_hit_words", Json.float hit_words);
            ("fairness", Json.float r.Scheduler.fairness);
            ("verified_slices", Json.int r.Scheduler.verified_slices);
            ("verify_mismatches", Json.int r.Scheduler.verify_mismatches);
            ("straggler_epsilon", Json.float r.Scheduler.straggler_epsilon);
            ("straggler_slices", Json.int r.Scheduler.straggler_slices);
            ( "observatory",
              Json.List (List.map tenant_obj r.Scheduler.observatory) );
            ("classes", Json.List (List.map class_obj r.Scheduler.classes));
            ("injected_straggler_tenant", Json.int straggler_tenant);
            ("injected_straggler_factor", Json.float 2.0);
            ("injected_straggler_slices", Json.int injected_flagged);
            ("injected_flags_on_tenant", Json.int flagged_on_tenant);
            ( "failover_drill",
              Json.Obj
                [
                  ("link", Json.List [ Json.int u; Json.int v ]);
                  ("prewarm_s", Json.float d.Scenario.prewarm_s);
                  ("prewarmed_plans", Json.int d.Scenario.prewarmed_plans);
                  ("cold_replan_s", Json.float cold.Scenario.replan_s);
                  ("warm_replan_s", Json.float warm.Scenario.replan_s);
                  ("contingency_replan_s", Json.float cont.Scenario.replan_s);
                  ( "warm_rate_equals_cold",
                    Json.Bool (warm.Scenario.rate_gbps = cold.Scenario.rate_gbps) );
                  ( "contingency_rate_equals_cold",
                    Json.Bool (cont.Scenario.rate_gbps = cold.Scenario.rate_gbps) );
                ] );
    ];
  Util.fail_if (r.Scheduler.hit_rate < 0.95)
    "cluster: cross-job hit rate %.3f below 0.95 floor\n" r.Scheduler.hit_rate;
  Util.fail_if (r.Scheduler.unique_fingerprints > 50)
    "cluster: %d unique fingerprints exceeds the 50 ceiling\n"
    r.Scheduler.unique_fingerprints;
  Util.fail_if (r.Scheduler.verify_mismatches > 0)
    "cluster: %d shared plans diverged from fresh isolated handles\n"
    r.Scheduler.verify_mismatches;
  Util.fail_if (r.Scheduler.straggler_slices > 0)
    "cluster: %d straggler slices flagged on the healthy run (rates of a \
     class should be bit-identical)\n"
    r.Scheduler.straggler_slices;
  Util.fail_if (injected_flagged = 0)
    "cluster: injected straggler was not flagged\n";
  Util.fail_if (flagged_on_tenant <> injected_flagged)
    "cluster: %d of %d straggler flags landed off the injected tenant\n"
    (injected_flagged - flagged_on_tenant)
    injected_flagged

(* ------------------------------------------------------------------ *)
(* Analyze mode: critical-path attribution and achieved-vs-bound rate
   for the six collectives on the DGX-1V, plus the planner phase
   breakdown — the numbers behind the EXPERIMENTS.md analysis table.
   Everything here is simulator output, so it is bit-reproducible and
   prime material for the regression gate. *)

module Analysis = Blink_core.Analysis

let analyze_suite () =
  let mbytes = 500. in
  let elems = Scenario.elems_of_mb mbytes in
  Util.heading
    "Analyze: critical path vs edge-cut bound, %.0f MB on dgx1v 8 gpus" mbytes;
  let handle = Blink.create Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
  let collectives =
    Plan.
      [ All_reduce; Broadcast; Reduce; Gather; All_gather; Reduce_scatter ]
  in
  Util.row "  %-15s %11s %10s %10s %6s  %s\n" "collective" "makespan"
    "achieved" "bound" "eff" "bottleneck";
  let reports =
    List.map
      (fun collective ->
        let r = Analysis.analyze handle collective ~elems in
        let bottleneck =
          match r.Analysis.bottlenecks with
          | [] -> "-"
          | ls ->
              String.concat ", "
                (List.filteri (fun i _ -> i < 2)
                   (List.map (fun l -> l.Analysis.li_label) ls))
              ^
              if List.length ls > 2 then
                Printf.sprintf " (+%d more)" (List.length ls - 2)
              else ""
        in
        Util.row "  %-15s %8.2f ms %6.1f GB/s %6.1f GB/s %5.1f%%  %s\n"
          (Plan.collective_name collective)
          (r.Analysis.makespan_s *. 1e3)
          r.Analysis.achieved_gbps r.Analysis.bound_gbps
          (100. *. r.Analysis.efficiency)
          bottleneck;
        r)
      collectives
  in
  let all_reduce = List.hd reports in
  let phases = Analysis.phases handle in
  Scenario.pp_analysis Format.std_formatter all_reduce;
  Scenario.pp_phases Format.std_formatter phases;
  Util.write_bench_json ~suite:"analyze"
    [
      ("mbytes", Json.float mbytes);
      ("elems", Json.int elems);
      ("collectives", Json.List (List.map Analysis.report_json reports));
      ("phases", Analysis.phases_json phases);
    ];
  (* all_reduce against the larger of its two family bounds (tree
     packing, per-root cut value); the per-root all_gather and
     reduce_scatter against their cut bounds. *)
  List.iter
    (fun (r : Analysis.report) ->
      let collective = r.Analysis.collective in
      let floor =
        match collective with
        | Plan.All_reduce -> Some 0.95
        | Plan.All_gather | Plan.Reduce_scatter -> Some 0.90
        | Plan.Broadcast | Plan.Reduce | Plan.Gather -> None
      in
      match floor with
      | Some floor ->
          Util.fail_if (r.Analysis.efficiency < floor)
            "analyze: %s achieved %.1f GB/s, below %.0f%% of the %.1f GB/s \
             edge-cut bound\n"
            (Plan.collective_name collective) r.Analysis.achieved_gbps
            (100. *. floor) r.Analysis.bound_gbps
      | None -> ())
    reports;
  Util.fail_if (List.length phases < 3)
    "analyze: only %d planner phase timers fired (expected >= 3)\n"
    (List.length phases)

(* ------------------------------------------------------------------ *)
(* Planner-backend tournament: both backends plan the same fabrics; the
   DES times the resulting AllReduce/Broadcast schedules and a
   differential check holds each backend to Treegen.feasible plus
   bit-equality against the reference semantics. Each topology reports
   the certified optimum of each capacity model once, and each backend
   its packing rates over it. Three gates (after the artifact is
   written): every backend must pass the differential check, no packing
   rate may exceed its certified optimum (the bound must bound), and
   TreeGen must stay within 5% of the best backend's achieved AllReduce
   rate on the DGX-1 topologies — the tournament doubles as a guard on
   TreeGen's optimality claims. Not part of the regress baselines:
   planning wall-clock is host-dependent. *)

module Planner = Blink_core.Planner

(* The closeness gate covers the healthy DGX-1 fabrics. The degraded
   fabric is measured and differentially checked but not gated: there
   LP-flow's column generation legitimately beats TreeGen's MWU+ILP by
   ~3% achieved AllReduce (the fault breaks the symmetry MWU exploits) —
   exactly the kind of planner gap the tournament exists to surface. *)
let tournament_topologies =
  [
    ("dgx1v-8", Server.dgx1v, Array.init 8 Fun.id, [], `Gated);
    ("dgx1p-8", Server.dgx1p, Array.init 8 Fun.id, [], `Gated);
    ("dgx1v-quad", Server.dgx1v, [| 1; 4; 5; 6 |], [], `Gated);
    ( "dgx1v-8-degraded",
      Server.dgx1v,
      Array.init 8 Fun.id,
      [ ((2, 3), Server.Down) ],
      `Ungated );
  ]

let tournament_suite () =
  let open Scenario in
  let mbytes = 100. in
  Util.heading "Tournament: %d planner backends x %d topologies, %.0f MB"
    (List.length Planner.all) (List.length tournament_topologies) mbytes;
  let packing_fields prefix g optimum = function
    | None -> [ (prefix ^ "_trees", Json.Null); (prefix ^ "_rate", Json.Null) ]
    | Some (p : Treegen.packing) ->
        [
          (prefix ^ "_trees", Json.int (List.length p.Treegen.trees));
          (prefix ^ "_rate", Json.float p.Treegen.rate);
          (prefix ^ "_rate_over_optimal", 
            Json.float (p.Treegen.rate /. optimum) );
          (prefix ^ "_feasible", Json.Bool (Treegen.feasible g p));
        ]
  in
  let results =
    List.map
      (fun (topo, server, gpus, link_faults, gated) ->
        let rows = tournament ~link_faults ~mbytes server ~gpus in
        (* Once per topology: every backend plans one graph from its
           best root. *)
        let g = (List.hd rows).graph in
        let optimum = Treegen.optimum g ~root:(Treegen.best_root g) in
        let bcast = optimum ~undirected:false in
        let allred = optimum ~undirected:true in
        pp_tournament Format.std_formatter ~label:topo rows;
        Format.printf "  %17s certified optimum: bcast %.3f, allred %.3f GB/s@."
          "" bcast allred;
        (topo, gated, rows, bcast, allred))
      tournament_topologies
  in
  let row_json ~bcast ~allred (r : row) =
    Json.Obj
      ([
         ("backend", Json.str r.backend);
         ("plan_wall_s", Json.float r.plan_wall_s);
         ("broadcast_gbps", Json.float r.broadcast_gbps);
         ("all_reduce_gbps", Json.float r.all_reduce_gbps);
         ("feasible", Json.Bool r.feasible);
         ("data_correct", Json.Bool r.data_ok);
       ]
      @ packing_fields "broadcast" r.graph bcast r.directed
      @ packing_fields "all_reduce" r.graph allred r.undirected)
  in
  Util.write_bench_json ~suite:"tournament"
    [
      ("mbytes", Json.float mbytes);
      ( "topologies",
        Json.List
          (List.map
             (fun (topo, gated, rows, bcast, allred) ->
               Json.Obj
                 [
                   ("name", Json.str topo);
                   ("gated", Json.Bool (gated = `Gated));
                   ("broadcast_optimal", Json.float bcast);
                   ("all_reduce_optimal", Json.float allred);
                   ( "backends",
                     Json.List (List.map (row_json ~bcast ~allred) rows) );
                 ])
             results) );
    ];
  (* Gate 1: the differential check holds for every backend everywhere. *)
  let bad =
    List.concat_map
      (fun (topo, _, rows, _, _) ->
        List.filter_map
          (fun r -> if r.feasible && r.data_ok then None else Some (topo, r))
          rows)
      results
  in
  List.iter
    (fun (topo, r) ->
      Printf.eprintf
        "tournament: %s on %s failed the differential check (feasible=%b \
         data_correct=%b)\n"
        r.backend topo r.feasible r.data_ok)
    bad;
  if bad <> [] then exit 1;
  (* Gate 2: no packing rate above its certified optimum. *)
  let unbounded = ref false in
  List.iter
    (fun (topo, _, rows, bcast, allred) ->
      List.iter
        (fun (r : row) ->
          List.iter
            (fun (model, packing, optimum) ->
              match packing with
              | Some (p : Treegen.packing)
                when p.Treegen.rate > optimum *. (1. +. 1e-9) ->
                  unbounded := true;
                  Printf.eprintf
                    "tournament: %s's %s packing on %s rates %.6f GB/s, \
                     above its certified optimum %.6f GB/s\n"
                    r.backend model topo p.Treegen.rate optimum
              | Some _ | None -> ())
            [
              ("broadcast", r.directed, bcast);
              ("all_reduce", r.undirected, allred);
            ])
        rows)
    results;
  if !unbounded then exit 1;
  (* Gate 3: TreeGen within 5% of the best backend's achieved AllReduce
     rate on every (DGX-1) topology. *)
  let laggards =
    List.filter_map
      (fun (topo, gated, rows, _, _) ->
        let rate (r : row) = r.all_reduce_gbps in
        let best = List.fold_left (fun acc r -> Float.max acc (rate r)) 0. rows in
        match List.find_opt (fun r -> r.backend = "treegen") rows with
        | _ when gated <> `Gated -> None
        | None -> Some (topo, 0., 0.)
        | Some tg when rate tg < 0.95 *. best -> Some (topo, rate tg, best)
        | Some _ -> None)
      results
  in
  List.iter
    (fun (topo, tg, best) ->
      Printf.eprintf
        "tournament: treegen achieved %.1f GB/s on %s, below 95%% of the \
         best backend's %.1f GB/s\n"
        tg topo best)
    laggards;
  if laggards <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* The suite registry: bench target, artifact suite ([BENCH_<suite>.json]),
   runner, and whether bench/baselines/ pins the artifact. The order is
   the run order of `all`. Every run goes through [Util.guard_artifact],
   so a suite that dies on an exception before its own write still
   leaves a stub artifact behind (the in-suite gates write first, then
   exit 1). *)

let suites =
  [
    ("plan-cache", "plan_cache", plan_cache_suite, true);
    ("parallel-plan", "parallel_plan", parallel_plan_suite, true);
    ("overlap", "overlap", overlap_suite, true);
    ("replay", "replay", replay_suite, true);
    ("kernels", "kernels", kernels_suite, true);
    ("failover", "failover", failover_suite, true);
    ("cluster", "cluster", cluster_suite, true);
    ("analyze", "analyze", analyze_suite, true);
    ("tournament", "tournament", tournament_suite, false);
  ]

let run_suite (_, suite, run, _) = Util.guard_artifact ~suite run

let baselined =
  List.filter_map
    (fun (_, suite, _, pinned) -> if pinned then Some suite else None)
    suites

(* ------------------------------------------------------------------ *)
(* Regression gate: diff fresh BENCH_*.json in the cwd against the
   committed baselines in bench/baselines/. Only simulator-derived
   fields are compared — wall-clock and host-dependent numbers vary per
   machine and are deliberately unchecked. `regress-selftest` proves the
   gate has teeth by perturbing one fresh value in memory and requiring
   the comparator to flag it. *)

let baseline_dir = "bench/baselines"

type path_step = F of string | Row of string * string * string

type check_kind = Exact | Near of float

type check_spec = { suite : string; path : path_step list; kind : check_kind }

let path_string path =
  String.concat "."
    (List.map
       (function
         | F name -> name
         | Row (list_field, _, key) -> Printf.sprintf "%s[%s]" list_field key)
       path)

let rec resolve doc = function
  | [] -> Some doc
  | F name :: rest -> (
      match Json.member name doc with
      | Some d -> resolve d rest
      | None -> None)
  | Row (list_field, key_field, key) :: rest -> (
      match Json.member list_field doc with
      | Some l -> (
          match
            List.find_opt
              (fun item -> Json.member key_field item = Some (Json.Str key))
              (Json.to_list l)
          with
          | Some d -> resolve d rest
          | None -> None)
      | None -> None)

(* Rewrite the value at [path] (used by the selftest to inject a fake
   regression into an otherwise-clean document). *)
let rec perturb path f doc =
  match (path, doc) with
  | [], _ -> f doc
  | F name :: rest, Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = name then (k, perturb rest f v) else (k, v))
           fields)
  | Row (list_field, key_field, key) :: rest, Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = list_field then
               ( k,
                 Json.List
                   (List.map
                      (fun item ->
                        if Json.member key_field item = Some (Json.Str key)
                        then perturb rest f item
                        else item)
                      (Json.to_list v)) )
             else (k, v))
           fields)
  | _ -> doc

let six_collectives =
  [ "all_reduce"; "broadcast"; "reduce"; "gather"; "all_gather"; "reduce_scatter" ]

(* The curated deterministic surface of each suite. A missing field on
   either side is itself a failure: renames must update this table. *)
let check_specs =
  let near ?(tol = 1e-6) suite path = { suite; path; kind = Near tol } in
  let exact suite path = { suite; path; kind = Exact } in
  List.concat
    [
      List.map (fun suite -> exact suite [ F "schema_version" ]) baselined;
      [
        exact "plan_cache" [ F "hits" ];
        exact "plan_cache" [ F "misses" ];
        near "plan_cache" [ F "hit_rate" ];
        exact "replay" [ F "engine_prepares" ];
        exact "replay" [ F "engine_runs" ];
        exact "replay" [ F "alloc_guard_ok" ];
      ];
      List.map
        (fun c ->
          near "replay"
            [ Row ("collectives", "collective", c); F "simulated_makespan_s" ])
        six_collectives;
      (* Fusion and kernel-table shape are pure functions of the
         program: any drift is a planner/compiler change, not noise. *)
      List.concat_map
        (fun c ->
          let row field = [ Row ("collectives", "collective", c); F field ] in
          [
            exact "replay" (row "fusion_enabled");
            exact "replay" (row "fused_chains");
            exact "replay" (row "fused_ops");
            exact "replay" (row "kernels_raw");
            exact "replay" (row "kernels_compiled");
          ])
        six_collectives;
      List.map
        (fun k -> exact "kernels" [ Row ("kernels", "kernel", k); F "elems" ])
        [ "copy"; "reduce"; "of_f64"; "to_f64"; "pivot" ];
      List.map
        (fun f -> exact "kernels" [ Row ("kernels", "kernel", "pivot"); F f ])
        [ "rows"; "cols" ];
      List.concat_map
        (fun c ->
          let row field = [ Row ("collectives", "collective", c); F field ] in
          [
            near "analyze" (row "makespan_s");
            near "analyze" (row "achieved_gbps");
            near "analyze" (row "bound_gbps");
            near "analyze" (row "efficiency");
          ])
        six_collectives;
      (* The schedule family all-reduce chose. *)
      [
        exact "analyze"
          [ Row ("collectives", "collective", "all_reduce"); F "family" ];
      ];
      (* The critical-path attribution: the op count is a pure function
         of the schedule, the seconds split is simulator arithmetic. *)
      List.concat_map
        (fun c ->
          let cp field =
            [ Row ("collectives", "collective", c); F "critical_path"; F field ]
          in
          exact "analyze" (cp "ops")
          :: List.map
               (fun f -> near "analyze" (cp f))
               [ "transfer_s"; "compute_s"; "delay_s"; "wait_s" ])
        six_collectives;
      [
        near "failover" [ F "healthy_rate_gbps" ];
        near "failover" [ F "healthy_all_reduce_s" ];
        near "failover" [ F "degraded_rate_gbps" ];
        near "failover" [ F "degraded_all_reduce_s" ];
        near "failover" [ F "double_fault_rate_gbps" ];
        exact "failover" [ F "fresh_matches_replanned" ];
        exact "failover" [ F "faults_injected" ];
        exact "failover" [ F "plan_cache_invalidations" ];
        exact "failover" [ F "midrun_retries" ];
        exact "failover" [ F "midrun_faulted_ops" ];
        near "failover" [ F "midrun_clean_s" ];
        near "failover" [ F "midrun_flaky_s" ];
        exact "failover" [ F "partition_detected" ];
        near "failover" [ F "warm_rate_gbps" ];
        exact "failover" [ F "warm_rate_equals_cold" ];
        near "failover" [ F "contingency_rate_gbps" ];
        exact "failover" [ F "contingency_matches_cold" ];
        exact "failover" [ F "contingency_hits" ];
        exact "cluster" [ F "admitted_jobs" ];
        exact "cluster" [ F "rejected_capacity_jobs" ];
        exact "cluster" [ F "rejected_quota_jobs" ];
        exact "cluster" [ F "planned_slices" ];
        exact "cluster" [ F "single_gpu_slices" ];
        exact "cluster" [ F "pcie_slices" ];
        exact "cluster" [ F "store_hits" ];
        exact "cluster" [ F "store_misses" ];
        exact "cluster" [ F "unique_fingerprints" ];
        near "cluster" [ F "hit_rate" ];
        near "cluster" [ F "fairness" ];
        exact "cluster" [ F "verify_mismatches" ];
        exact "cluster" [ F "straggler_slices" ];
        exact "cluster" [ F "injected_straggler_slices" ];
        exact "cluster" [ F "injected_flags_on_tenant" ];
        exact "cluster" [ F "failover_drill"; F "warm_rate_equals_cold" ];
        exact "cluster"
          [ F "failover_drill"; F "contingency_rate_equals_cold" ];
      ];
    ]

let load_doc file =
  if not (Sys.file_exists file) then None
  else
    match Json.parse_result (In_channel.with_open_bin file In_channel.input_all) with
    | Ok doc -> Some doc
    | Error e ->
        Printf.eprintf "regress: %s does not parse: %s\n" file e;
        None

let render = function Some v -> Json.to_string v | None -> "missing"

(* Compare one check; [None] means the whole suite is absent on the
   baseline side (skipped: new suites regress from their first commit). *)
let run_check ~baseline ~fresh spec =
  let b = resolve baseline spec.path and f = resolve fresh spec.path in
  let ok =
    match (spec.kind, b, f) with
    | _, None, _ | _, _, None -> false
    | Exact, Some b, Some f -> b = f
    | Near tol, Some b, Some f -> (
        match (Json.to_float b, Json.to_float f) with
        | Some b, Some f ->
            Float.abs (f -. b) <= tol *. Float.max 1e-12 (Float.abs b)
        | _ -> false)
  in
  ( ok,
    Json.Obj
      [
        ("suite", Json.str spec.suite);
        ("field", Json.str (path_string spec.path));
        ( "kind",
          Json.str
            (match spec.kind with
            | Exact -> "exact"
            | Near tol -> Printf.sprintf "near(%g)" tol) );
        ("baseline", Json.str (render b));
        ("fresh", Json.str (render f));
        ("ok", Json.Bool ok);
      ] )

(* [fresh_override] lets the selftest swap in a perturbed document. *)
let regress_run ?fresh_override () =
  Util.heading "Regression gate: fresh BENCH_*.json vs %s" baseline_dir;
  let suites =
    List.sort_uniq compare (List.map (fun s -> s.suite) check_specs)
  in
  let failures = ref 0 and skipped = ref [] and results = ref [] in
  List.iter
    (fun suite ->
      let specs = List.filter (fun s -> s.suite = suite) check_specs in
      let baseline =
        load_doc (Filename.concat baseline_dir (Util.bench_file suite))
      in
      let fresh =
        match fresh_override with
        | Some f -> f suite
        | None -> load_doc (Util.bench_file suite)
      in
      match (baseline, fresh) with
      | None, _ ->
          (* No committed baseline: report, don't fail — committing the
             baseline is how a new suite arms the gate. *)
          Util.row "  %-14s no baseline committed, skipped\n" suite;
          skipped := suite :: !skipped
      | Some _, None ->
          Util.row "  %-14s FRESH ARTIFACT MISSING (%s)\n" suite
            (Util.bench_file suite);
          incr failures
      | Some baseline, Some fresh ->
          let bad = ref 0 in
          List.iter
            (fun spec ->
              let ok, obj = run_check ~baseline ~fresh spec in
              results := obj :: !results;
              if not ok then begin
                incr bad;
                incr failures;
                Util.row "  %-14s REGRESSION %s: baseline %s, fresh %s\n"
                  suite
                  (path_string spec.path)
                  (render (resolve baseline spec.path))
                  (render (resolve fresh spec.path))
              end)
            specs;
          Util.row "  %-14s %d checks, %d failed\n" suite (List.length specs)
            !bad)
    suites;
  Util.write_bench_json ~suite:"regress"
    [
      ("failures", Json.int !failures);
      ("ok", Json.Bool (!failures = 0));
      ( "skipped_suites",
        Json.List (List.map Json.str (List.rev !skipped)) );
      ("checks", Json.List (List.rev !results));
    ];
  !failures

let regress_suite () =
  let failures = regress_run () in
  Util.fail_if (failures > 0) "regress: %d deterministic checks failed\n" failures;
  Util.row "  gate passed\n"

(* Selftest: perturb one deterministic fresh value (replay all_reduce
   simulated makespan x1.5) and require the comparator to flag it. *)
let regress_selftest () =
  let perturbed suite =
    match load_doc (Util.bench_file suite) with
    | None -> None
    | Some doc when suite = "replay" ->
        Some
          (perturb
             [ Row ("collectives", "collective", "all_reduce");
               F "simulated_makespan_s" ]
             (function Json.Num x -> Json.Num (x *. 1.5) | v -> v)
             doc)
    | Some doc -> Some doc
  in
  let failures = regress_run ~fresh_override:perturbed () in
  Util.fail_if (failures = 0)
    "regress-selftest: a 1.5x makespan slowdown went unflagged — the gate \
     is toothless\n";
  Util.row "  selftest passed: synthetic slowdown flagged (%d failures)\n"
    failures

(* ------------------------------------------------------------------ *)
(* Baseline regeneration: run every artifact-producing suite, then copy
   the fresh BENCH_*.json over bench/baselines/. This is the one
   sanctioned way to move the regression gate after an intentional
   planner/simulator change — the diff of the copied baselines is what
   the reviewer sees. *)

let copy_file src dst =
  let s = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc s)

let regen_baselines () =
  Util.heading "Regen baselines: live run -> %s" baseline_dir;
  List.iter
    (fun ((_, _, _, pinned) as s) -> if pinned then run_suite s)
    suites;
  if not (Sys.file_exists baseline_dir) then Sys.mkdir baseline_dir 0o755;
  Util.heading "Regen baselines: copying fresh artifacts";
  List.iter
    (fun suite ->
      let src = Util.bench_file suite in
      if Sys.file_exists src then begin
        copy_file src (Filename.concat baseline_dir src);
        Util.row "  %s -> %s/\n" src baseline_dir
      end)
    baselined

(* ------------------------------------------------------------------ *)
(* Op fusion under the event loop: the 72 plans of the end-to-end
   topology sweep replayed as prepared (fused where the contention
   analysis allows) and prepared [~fuse:false], in alternating whole
   sweeps on per-plan arenas. Exits 1 if a fused replay's makespan
   differs from the unfused one. Prints only: it gates no speed. *)

let fusion_suite () =
  let rounds = 40 in
  Util.heading "Fusion: the 72 topology-sweep plans, fused vs ~fuse:false, %d alternating sweeps"
    rounds;
  let plans = Scenario.sweep_plans () in
  let fused = Array.map (fun p -> p.Plan.prepared) plans in
  let plain =
    Array.map
      (fun p -> E.prepare ~fuse:false ~resources:p.Plan.resources p.Plan.program)
      plans
  in
  let arenas = Array.map (fun _ -> E.arena ()) plans in
  let sweep prepared =
    let t0 = Unix.gettimeofday () in
    Array.iteri (fun i p -> ignore (E.run_prepared ~arena:arenas.(i) p)) prepared;
    Unix.gettimeofday () -. t0
  in
  let makespans prepared =
    Array.mapi (fun i p -> (E.run_prepared ~arena:arenas.(i) p).E.makespan) prepared
  in
  let identical = makespans fused = makespans plain in
  ignore (sweep fused);
  ignore (sweep plain);
  let tf = ref [] and tu = ref [] in
  for k = 1 to rounds do
    (* Alternate which side goes first, so drift hits both alike. *)
    if k land 1 = 0 then begin
      tf := sweep fused :: !tf;
      tu := sweep plain :: !tu
    end
    else begin
      tu := sweep plain :: !tu;
      tf := sweep fused :: !tf
    end
  done;
  let ms p xs = 1e3 *. Util.percentile p xs in
  let count f = Array.fold_left (fun acc p -> acc + f p) 0 fused in
  Util.row "  %d plans, %d ops; %d plans fuse, %d chains covering %d ops\n"
    (Array.length plans) (count E.prepared_ops)
    (count (fun p -> if E.fusion_enabled p then 1 else 0))
    (count E.fused_chains) (count E.fused_ops);
  Util.row "  %-10s %10s %10s %10s\n" "sweep" "p25 ms" "median ms" "p75 ms";
  List.iter
    (fun (label, xs) ->
      Util.row "  %-10s %10.2f %10.2f %10.2f\n" label (ms 0.25 xs) (ms 0.5 xs) (ms 0.75 xs))
    [ ("fused", !tf); ("unfused", !tu) ];
  let wins = List.length (List.filter Fun.id (List.map2 ( < ) !tf !tu)) in
  Util.row "  fused faster in %d of %d rounds; unfused / fused median %.3f; \
            makespans identical: %b\n"
    wins rounds
    (Util.percentile 0.5 !tu /. Util.percentile 0.5 !tf)
    identical;
  Util.fail_if (not identical) "fusion: a fused replay's makespan differs from unfused\n"

(* ------------------------------------------------------------------ *)

let targets =
  List.map (fun ((target, _, _, _) as s) -> (target, fun () -> run_suite s)) suites
  @ [
      ("regress", regress_suite);
      ("regress-selftest", regress_selftest);
      ("regen-baselines", regen_baselines);
      ("bechamel", bechamel_suite);
      ("fusion", fusion_suite);
    ]

let run_all () =
  Figures.all_figures ();
  List.iter run_suite suites;
  bechamel_suite ()

let () =
  match Array.to_list Sys.argv with
  | _ :: [] ->
      run_all ();
      print_newline ()
  | _ :: args ->
      List.iter
        (fun arg ->
          match arg with
          | "list" ->
              List.iter (fun (name, _) -> print_endline name) Figures.registry;
              List.iter (fun (name, _) -> print_endline name) targets
          | "all" -> run_all ()
          | name -> (
              match List.assoc_opt name (targets @ Figures.registry) with
              | Some f -> f ()
              | None ->
                  Printf.eprintf
                    "unknown target %S (use `list` to enumerate)\n" name;
                  exit 1))
        args
  | [] -> assert false
