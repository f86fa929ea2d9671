(* The four request workloads. Each one runs alone in its own process,
   on one domain, as a closed loop with a single caller:

   1. fresh set-ups, each timed (the set-up samples);
   2. the untraced loop, timed op by op for the requested seconds (the
      end-to-end samples);
   3. with tracing on, a shorter traced pass that replays the same kind
      of ops through the public calls they are made of, each call inside
      a benchmark-side span (the per-layer numbers).

   Every input is generated from the seed; the library only ever sees
   those generated inputs. *)

open Bench_e2e
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Comm = Blink_core.Comm
module Server = Blink_topology.Server
module Engine = Blink_sim.Engine
module Sem = Blink_sim.Semantics
module Codegen = Blink_collectives.Codegen
module Ring = Blink_baselines.Ring
module Scheduler = Blink_cluster.Scheduler
module Telemetry = Blink_telemetry.Telemetry

type config = { seed : int; seconds : float; trace : bool }

type outcome = {
  attempted : int;  (** ops in the timed loop *)
  failed : int;  (** timed ops that raised or returned wrong data *)
  correct : bool;  (** every checked output, timed or not, matched its oracle *)
  ops : Stats.summary;  (** timed op wall times, seconds *)
  op_tail : float;  (** the op_p90_ms value, seconds: p90 of [ops], but see service *)
  setup_times : float array;  (** fresh set-up wall times, seconds *)
  ops_per_s : float;
  sim_gbps : float;
  heap_peak_mb : float;  (** at the end of the timed loop, but see service *)
  layers : (string * float) list;  (** per-layer values; traced runs only *)
  spans : Ledger.span array;
  counts : (string * int) list;  (** op counts for the run metadata *)
}

let now = Unix.gettimeofday
let dgx8 = Array.init 8 Fun.id

let timed f =
  let t0 = now () in
  let x = f () in
  (now () -. t0, x)

(* [f ()] plus the minor and major words it allocated. *)
let gc_words f =
  let s0 = Gc.quick_stat () in
  let x = f () in
  let s1 = Gc.quick_stat () in
  (x, s1.Gc.minor_words -. s0.Gc.minor_words, s1.Gc.major_words -. s0.Gc.major_words)

type loop = {
  times : float array;  (** wall time of each timed op *)
  loop_failed : int;  (** timed ops whose output was wrong *)
  all_ok : bool;  (** no op, warm-up included, had a wrong output *)
  minor : float;  (** words allocated by the timed ops *)
  major : float;
}

(* Back-to-back ops: untimed for a tenth of [seconds], then timed until
   [seconds] have passed. The heap is compacted first, so the major GC
   is not still sweeping set-up garbage while ops are timed. [op i] runs
   op [i] and returns its own wall time and whether its output was
   right, so the oracle checks it runs afterwards stay out of the
   samples. *)
let closed_loop ~seconds op =
  Gc.compact ();
  let i = ref 0 and all_ok = ref true in
  let run_for s record =
    let t0 = now () in
    while now () -. t0 < s do
      let dt, ok = op !i in
      if not ok then all_ok := false;
      record dt ok;
      incr i
    done
  in
  run_for (seconds /. 10.) (fun _ _ -> ());
  let times = ref [] and failed = ref 0 in
  let (), minor, major =
    gc_words (fun () ->
        run_for seconds (fun dt ok ->
            times := dt :: !times;
            if not ok then incr failed))
  in
  {
    times = Array.of_list (List.rev !times);
    loop_failed = !failed;
    all_ok = !all_ok;
    minor;
    major;
  }

(* [n] fresh set-ups of [f], each timed from a collected heap so that one
   set-up's garbage is not swept during the next. Returns the times and
   the last set-up's result; the others are dropped as they finish. *)
let fresh_setups n f =
  let last = ref None in
  let times =
    Array.init n (fun _ ->
        Gc.full_major ();
        let dt, x = timed f in
        last := Some x;
        dt)
  in
  (times, Option.get !last)

let heap_peak_mb () =
  Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let per_op total n = if n = 0 then 0. else total /. Float.of_int n

(* Ops per second of op time: the reciprocal of the mean op time. *)
let rate times =
  Float.of_int (Array.length times) /. Array.fold_left ( +. ) 0. times

let hit_rate ~hits ~misses =
  if hits +. misses = 0. then 0. else hits /. (hits +. misses)

let gbps ~elems seconds =
  Blink.bytes_per_elem *. Float.of_int elems /. seconds /. 1e9

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let collectives =
  Plan.[ All_reduce; Broadcast; Reduce; Gather; All_gather; Reduce_scatter ]

let counter tel name = Float.of_int (Telemetry.counter_value tel name)

(* Running sums by name, for per-layer values gathered op by op. *)
let total sums name = Option.value ~default:0. (Hashtbl.find_opt sums name)
let accumulate sums name v = Hashtbl.replace sums name (total sums name +. v)

let hist_sum tel ?labels name =
  match Telemetry.histogram tel ?labels name with
  | Some h -> h.Telemetry.Metrics.sum
  | None -> 0.

(* Planner phase seconds recorded in [tel]: MWU and ILP over both packing
   modes, and codegen over every collective. *)
let phase_seconds tel =
  let modes phase =
    List.fold_left
      (fun acc m -> acc +. hist_sum tel ~labels:[ ("mode", m) ] phase)
      0. [ "directed"; "undirected" ]
  in
  let codegen =
    List.fold_left
      (fun acc c ->
        acc
        +. hist_sum tel
             ~labels:[ ("collective", Plan.collective_name c) ]
             "plan.phase.codegen_s")
      0. collectives
  in
  (modes "plan.phase.mwu_s", modes "plan.phase.ilp_s", codegen)

(* Span "layer.call" reports as "layer.call_ms", and "layer.call.key" as
   "layer.call_ms.key". *)
let ms_name span =
  match String.split_on_char '.' span with
  | layer :: call :: key ->
      String.concat "." ((layer ^ "." ^ call ^ "_ms") :: key)
  | _ -> span ^ "_ms"

(* Per-op milliseconds of self time of every layer span under the
   [root]-named spans. *)
let layer_ms ?(root = "op") ~ops spans =
  List.filter_map
    (fun (name, s) ->
      if String.equal name root then None
      else Some (ms_name name, per_op (s *. 1e3) ops))
    (Ledger.self_by_name ~root spans)

let engine_replay_ms layers =
  List.fold_left
    (fun acc c ->
      acc
      +. Option.value ~default:0.
           (List.assoc_opt ("engine.replay_ms." ^ Plan.collective_name c) layers))
    0. collectives

(* The per-layer values every workload reports: allocation per timed op,
   the share of traced op time no layer span covers, and what tracing
   cost against the timed loop. *)
let common_layers ~minor ~major ~ops ~untraced spans =
  [
    ("gc.minor_words_per_op", per_op minor ops);
    ("gc.major_words_per_op", per_op major ops);
    ("residual_frac", Ledger.residual_frac ~root:"op" spans);
    ( "tracing_overhead_frac",
      Stats.median (Ledger.durations ~name:"op" spans) /. Stats.median untraced
      -. 1. );
  ]

(* ------------------------------------------------------------------ *)
(* Shared by allreduce-data and failover: seeded small-integer fp32
   buffers on the eight ranks of a DGX-1V, whose all-reduce sums are
   exact in fp32. *)

let ar_elems = 262_144

let ar_inputs ~seed =
  let rng = Random.State.make [| seed |] in
  Array.init 8 (fun _ ->
      Array.init ar_elems (fun _ -> Float.of_int (Random.State.int rng 16)))

let column_sums inputs =
  Array.init ar_elems (fun i ->
      Array.fold_left (fun acc b -> acc +. b.(i)) 0. inputs)

let all_hold expected (value : float array array) =
  Array.for_all (fun buf -> buf = expected) value

let fresh_comm inputs =
  let comm = Comm.init Server.dgx1v ~gpus:dgx8 in
  (comm, Comm.all_reduce comm inputs)

(* One all-reduce through the public steps [Comm.all_reduce] takes,
   each inside a span: plan fetch, timing replay, then the data pass
   (load, run, read back). A plan fetch that compiled is relabelled
   [codegen.build]. *)
let traced_all_reduce led handle inputs =
  let misses0 = (Blink.plan_cache_stats handle).Blink.misses in
  let plan =
    Ledger.span led "store.lookup"
      ~relabel:(fun _ ->
        if (Blink.plan_cache_stats handle).Blink.misses > misses0 then
          "codegen.build"
        else "store.lookup")
      (fun () -> Blink.plan handle Plan.All_reduce ~elems:ar_elems)
  in
  let exec =
    Ledger.span led "engine.replay.all_reduce" (fun () ->
        Plan.execute ~data:false plan)
  in
  let layout = plan.Plan.layout and program = plan.Plan.program in
  let mem =
    Ledger.span led "semantics.write" (fun () ->
        let mem, reused =
          match plan.Plan.pool_mem with
          | Some mem -> (mem, true)
          | None ->
              let mem = Sem.memory_of_program program in
              plan.Plan.pool_mem <- Some mem;
              (mem, false)
        in
        if reused then Sem.begin_replay mem program;
        Array.iteri
          (fun r buf -> Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) buf)
          inputs;
        if reused then Sem.commit_replay mem;
        mem)
  in
  Ledger.span led "semantics.run" (fun () -> Sem.run program mem);
  let value =
    Ledger.span led "semantics.read" (fun () ->
        Array.init (Array.length inputs) (fun r ->
            Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
  in
  (plan, Plan.seconds exec, value)

let engine_layers ~replay_ms ~engine_ops ~fused_ops =
  [
    ("engine.replay_ms", replay_ms);
    ("engine.ops", engine_ops);
    ("engine.fused_ops", fused_ops);
    ("engine.ns_per_op", replay_ms *. 1e6 /. engine_ops);
  ]

(* ------------------------------------------------------------------ *)
(* allreduce-data: one Comm.all_reduce, data in and data out, on a warm
   communicator — the training loop's hot path. *)

let allreduce_setups = 15

let allreduce_data cfg =
  let inputs = ar_inputs ~seed:cfg.seed in
  let expected = column_sums inputs in
  let setup_times, (comm, first) =
    fresh_setups allreduce_setups (fun () -> fresh_comm inputs)
  in
  let sim_seconds = first.Comm.seconds in
  (* Every result's simulated time must repeat the first call's bit for
     bit; every 25th result's data is checked in full. *)
  let ok i seconds value =
    Float.equal seconds sim_seconds && (i mod 25 <> 0 || all_hold expected value)
  in
  let loop =
    closed_loop ~seconds:cfg.seconds (fun i ->
        let dt, r = timed (fun () -> Comm.all_reduce comm inputs) in
        (dt, ok i r.Comm.seconds r.Comm.value))
  in
  let ops = Array.length loop.times in
  let heap = heap_peak_mb () in
  let traced_ops = if cfg.trace then max 1 (ops / 4) else 0 in
  let traced_ok = ref true in
  let layers, spans =
    if not cfg.trace then ([], [||])
    else begin
      let handle = Comm.handle comm and tel = Comm.telemetry comm in
      let led = Ledger.create () in
      let runs0 = counter tel "engine.runs" in
      let stats0 = Blink.plan_cache_stats handle in
      let plan = ref None in
      for i = 0 to traced_ops - 1 do
        let p, seconds, value =
          Ledger.span led ~request:i "op" (fun () ->
              traced_all_reduce led handle inputs)
        in
        plan := Some p;
        if not (ok i seconds value) then traced_ok := false
      done;
      let plan = Option.get !plan in
      let stats1 = Blink.plan_cache_stats handle in
      let spans = Ledger.spans led in
      let layers = layer_ms ~ops:traced_ops spans in
      let _, kernel_calls, _ =
        Sem.kernel_stats (Option.get plan.Plan.pool_mem) plan.Plan.program
      in
      let bound_frac =
        gbps ~elems:ar_elems sim_seconds
        /. Blink.edge_cut_bound handle Plan.All_reduce
      in
      ( layers
        @ engine_layers ~replay_ms:(engine_replay_ms layers)
            ~engine_ops:(Float.of_int (Engine.prepared_ops plan.Plan.prepared))
            ~fused_ops:(Float.of_int (Engine.fused_ops plan.Plan.prepared))
        @ [
            ("engine.runs", per_op (counter tel "engine.runs" -. runs0) traced_ops);
            ("semantics.kernel_calls", Float.of_int kernel_calls);
            ( "store.hit_rate",
              hit_rate
                ~hits:(Float.of_int (stats1.Blink.hits - stats0.Blink.hits))
                ~misses:(Float.of_int (stats1.Blink.misses - stats0.Blink.misses)) );
            ("codegen.bound_frac", bound_frac);
            ("codegen.bound_frac.all_reduce", bound_frac);
          ]
        @ common_layers ~minor:loop.minor ~major:loop.major ~ops ~untraced:loop.times spans,
        spans )
    end
  in
  let summary = Stats.summarize loop.times in
  {
    attempted = ops;
    failed = loop.loop_failed;
    correct = all_hold expected first.Comm.value && loop.all_ok && !traced_ok;
    ops = summary;
    op_tail = summary.Stats.p90;
    setup_times;
    ops_per_s = rate loop.times;
    sim_gbps = gbps ~elems:ar_elems sim_seconds;
    heap_peak_mb = heap;
    layers;
    spans;
    counts =
      [ ("setups", allreduce_setups); ("ops", ops); ("traced_ops", traced_ops) ];
  }

(* ------------------------------------------------------------------ *)
(* topology-sweep: one sweep replays every plan of the tournament
   fabrics timing-only ([Plan.execute ~data:false]), the path
   [Training.plan_backend] and the scheduler take. The seed orders the
   72 replays of a sweep. *)

let sweep_fabrics =
  [
    (Server.dgx1v, dgx8, []);
    (Server.dgx1p, dgx8, []);
    (Server.dgx1v, [| 1; 4; 5; 6 |], []);
    (Server.dgx1v, dgx8, [ ((2, 3), Server.Down) ]);
  ]

let sweep_sizes = [ 262_144; 4_194_304; 33_554_432 ]
let sweep_large = 33_554_432
let sweep_setups = 9

type cell = {
  server : Server.t;
  gpus : int array;
  healthy : bool;
  handle : Blink.t;
  collective : Plan.collective;
  elems : int;
  plan : Plan.t;
}

(* The sweep's set-up: four handles, then for each size class its tuned
   chunk and the six plans. With a ledger, each public call gets a
   span. *)
let sweep_setup led =
  let span name f =
    match led with Some led -> Ledger.span led name f | None -> f ()
  in
  List.concat_map
    (fun (server, gpus, faults) ->
      let handle =
        span "blink.create" (fun () ->
            match faults with
            | [] -> Blink.create server ~gpus
            | _ -> Blink.create ~link_faults:faults server ~gpus)
      in
      List.concat_map
        (fun elems ->
          ignore (span "chunking.tune" (fun () -> Blink.tuned_chunk handle ~elems));
          List.map
            (fun collective ->
              let plan =
                span "codegen.build" (fun () -> Blink.plan handle collective ~elems)
              in
              { server; gpus; healthy = faults = []; handle; collective; elems; plan })
            collectives)
        sweep_sizes)
    sweep_fabrics
  |> Array.of_list

let cell_gbps c seconds = gbps ~elems:c.elems seconds

let bound_frac (c, seconds) =
  cell_gbps c seconds /. Blink.edge_cut_bound c.handle c.collective

(* NCCL-ring algorithm bandwidth for the cell's collective, with the
   cell's own chunk size. *)
let ring_gbps c =
  let channels = Ring.nccl_channels c.server ~gpus:c.gpus in
  let spec =
    Codegen.spec ~chunk_elems:c.plan.Plan.chunk_elems (Blink.fabric c.handle)
  in
  let prog, _ =
    match c.collective with
    | Plan.All_reduce -> Ring.all_reduce spec ~elems:c.elems ~channels
    | Plan.Broadcast ->
        Ring.broadcast spec ~root:(Blink.root c.handle) ~elems:c.elems ~channels
    | Plan.Reduce | Plan.Gather | Plan.All_gather | Plan.Reduce_scatter ->
        invalid_arg "ring_gbps: only all_reduce and broadcast"
  in
  Blink.algbw_gbps ~elems:c.elems (Blink.time c.handle prog)

(* Per-layer values of the sweep's quality: bound fractions of the large
   cells (geomean, and the worst fabric per collective), Blink over the
   NCCL ring on the healthy fabrics, and the trees packed per fabric. *)
let sweep_quality large =
  let per_collective =
    List.map
      (fun coll ->
        ( "codegen.bound_frac." ^ Plan.collective_name coll,
          List.fold_left Float.min infinity
            (List.filter_map
               (fun (c, s) ->
                 if c.collective = coll then Some (bound_frac (c, s)) else None)
               large) ))
      collectives
  in
  let ring_speedups =
    List.filter_map
      (fun (c, s) ->
        if c.healthy && (c.collective = Plan.All_reduce || c.collective = Plan.Broadcast)
        then Some (cell_gbps c s /. ring_gbps c)
        else None)
      large
  in
  let trees =
    List.fold_left
      (fun acc (c, _) ->
        let count = function
          | Some p -> List.length p.Blink_core.Treegen.trees
          | None -> 0
        in
        (* One all-reduce cell per fabric. *)
        if c.collective = Plan.All_reduce then
          acc + count (Blink.packing c.handle)
          + count (Blink.undirected_packing c.handle)
        else acc)
      0 large
  in
  [
    ("codegen.bound_frac", Stats.geomean (List.map bound_frac large));
    ("codegen.speedup_vs_ring", Stats.geomean ring_speedups);
    ("treegen.trees", Float.of_int trees);
  ]
  @ per_collective

let topology_sweep cfg =
  let setup_times, cells = fresh_setups sweep_setups (fun () -> sweep_setup None) in
  let order =
    shuffle (Random.State.make [| cfg.seed |]) (Array.init (Array.length cells) Fun.id)
  in
  let replay c = Plan.seconds (Plan.execute ~data:false c.plan) in
  (* The first replay of every plan is the reference: later replays must
     repeat its makespan bit for bit, and no plan may beat its
     collective's edge-cut bound. Reduce-scatter is exempt: its bound
     charges every tree edge both ways, as for all-reduce, while its
     data crosses each edge once, and on the DGX-1P its plan at 32M
     elements measures above it (41.2 against 37.3 GB/s). *)
  let reference = Array.map replay cells in
  let within_bound =
    Array.for_all2
      (fun c s ->
        c.collective = Plan.Reduce_scatter || bound_frac (c, s) <= 1. +. 1e-9)
      cells reference
  in
  let sweep replay =
    Array.fold_left
      (fun ok i -> Float.equal (replay cells.(i)) reference.(i) && ok)
      true order
  in
  let loop = closed_loop ~seconds:cfg.seconds (fun _ -> timed (fun () -> sweep replay)) in
  let ops = Array.length loop.times in
  let heap = heap_peak_mb () in
  (* The bandwidth regime the paper's claims are about: (cell, simulated
     seconds) for the 24 fabric x collective cells at the largest size. *)
  let large =
    List.filter
      (fun (c, _) -> c.elems = sweep_large)
      (Array.to_list (Array.map2 (fun c s -> (c, s)) cells reference))
  in
  let traced_ops = if cfg.trace then max 1 (ops / 4) else 0 in
  let traced_ok = ref true in
  let layers, spans =
    if not cfg.trace then ([], [||])
    else begin
      (* One traced set-up, where [Engine.prepare] is re-run on every built
         plan to split it out of the plan build; then the traced sweeps. *)
      let led = Ledger.create () in
      Ledger.span led "setup" (fun () ->
          Array.iter
            (fun c ->
              ignore
                (Ledger.span led "engine.prepare" (fun () ->
                     Engine.prepare ~resources:c.plan.Plan.resources c.plan.Plan.program)))
            (sweep_setup (Some led)));
      let traced c =
        Ledger.span led ("engine.replay." ^ Plan.collective_name c.collective) (fun () ->
            replay c)
      in
      for i = 0 to traced_ops - 1 do
        if not (Ledger.span led ~request:i "op" (fun () -> sweep traced)) then
          traced_ok := false
      done;
      let spans = Ledger.spans led in
      let layers = layer_ms ~ops:traced_ops spans in
      let setup = layer_ms ~root:"setup" ~ops:1 spans in
      let setup_ms name = Option.value ~default:0. (List.assoc_opt name setup) in
      let sum f = Array.fold_left (fun acc c -> acc +. Float.of_int (f c.plan.Plan.prepared)) 0. cells in
      ( layers
        @ engine_layers ~replay_ms:(engine_replay_ms layers)
            ~engine_ops:(sum Engine.prepared_ops) ~fused_ops:(sum Engine.fused_ops)
        @ [
            ("engine.runs", Float.of_int (Array.length cells));
            ("blink.create_ms", setup_ms "blink.create_ms");
            ("chunking.tune_ms", setup_ms "chunking.tune_ms");
            ("engine.prepare_ms", setup_ms "engine.prepare_ms");
            ("codegen.build_ms", setup_ms "codegen.build_ms" -. setup_ms "engine.prepare_ms");
          ]
        @ sweep_quality large
        @ common_layers ~minor:loop.minor ~major:loop.major ~ops ~untraced:loop.times spans,
        spans )
    end
  in
  let summary = Stats.summarize loop.times in
  {
    attempted = ops;
    failed = loop.loop_failed;
    correct = within_bound && loop.all_ok && !traced_ok;
    ops = summary;
    op_tail = summary.Stats.p90;
    setup_times;
    ops_per_s = rate loop.times;
    sim_gbps = Stats.geomean (List.map (fun (c, s) -> cell_gbps c s) large);
    heap_peak_mb = heap;
    layers;
    spans;
    counts =
      [
        ("setups", sweep_setups);
        ("plans", Array.length cells);
        ("ops", ops);
        ("traced_ops", traced_ops);
      ];
  }

(* ------------------------------------------------------------------ *)
(* failover: one fault report on a live DGX-1V communicator plus the
   next all-reduce, which replans, re-tunes and recompiles. *)

type fault = Warm_fail | Warm_degrade | Cold_fail | Cold_degrade

let fault_name = function
  | Warm_fail -> "warm_fail"
  | Warm_degrade -> "warm_degrade"
  | Cold_fail -> "cold_fail"
  | Cold_degrade -> "cold_degrade"

let report_fault comm kind (u, v) =
  match kind with
  | Warm_fail -> Comm.fail_link comm ~u ~v
  | Warm_degrade -> Comm.degrade_link comm ~u ~v ~factor:0.5
  | Cold_fail -> Comm.fail_link ~replan:`Cold comm ~u ~v
  | Cold_degrade -> Comm.degrade_link ~replan:`Cold comm ~u ~v ~factor:0.5

let nvlink_pairs =
  Array.of_list
    (List.sort_uniq compare
       (List.map (fun (u, v, _) -> (u, v)) Server.dgx1v.Server.nvlinks))

(* One round of the fault campaign: 17 sequences of three faults, each
   on a fresh communicator. Sequence i hits pairs i, i+5 and i+10 (mod
   16), so every pair is hit once in every position; over those 48
   events 3/4 are warm failures, 3/16 warm degrades and 1/16 cold
   failures. The 17th sequence opens with the one cold degrade, on pair
   2-3 (the tournament's degraded link): a cold degrade costs 1 to 7 s
   depending on the pair, so letting the seed pick the pair would swamp
   every other cost. Every round runs the same sequences in the same
   order, whatever the seed, so the planner's and the GC's work repeat
   exactly; the seed fills the buffers. No three pair failures partition
   a DGX-1V (every GPU has four NVLink neighbours and the quads meet
   through four pairs) and degrades never do, so any exception is a
   failed op. *)
let fault_round =
  let pair i = nvlink_pairs.(i mod Array.length nvlink_pairs) in
  let kind e =
    match e mod 16 with 7 -> Cold_fail | 2 | 5 | 10 -> Warm_degrade | _ -> Warm_fail
  in
  let cliff = 7 in
  assert (pair cliff = (2, 3));
  Array.append
    (Array.init 16 (fun i ->
         List.init 3 (fun p -> (kind ((3 * i) + p), pair (i + (5 * p))))))
    [|
      [
        (Cold_degrade, pair cliff);
        (Warm_fail, pair (cliff + 5));
        (Warm_fail, pair (cliff + 10));
      ];
    |]

(* The traced pass: the first quarter of a round's sequences plus the
   cold degrade, which between them hold every fault kind. *)
let traced_round = Array.append (Array.sub fault_round 0 4) [| fault_round.(16) |]

let ops_of seqs = Array.fold_left (fun n s -> n + List.length s) 0 seqs

(* The timed loop runs a fixed number of whole rounds, so its fault mix
   never depends on where a clock cuts it: as many as fit in the loop
   length at the pace of a 2.1 GHz Xeon (about 8 s a round), and at least
   two, so that it has over 100 ops and its p90 ten samples beyond it. *)
let round_seconds = 8.
let rounds_for seconds = max 2 (truncate (seconds /. round_seconds))

(* The counters the traced pass reads around each op, from the
   communicator's own registry. *)
let fault_counters comm =
  let handle = Comm.handle comm and tel = Comm.telemetry comm in
  let stats = Blink.plan_cache_stats handle in
  let mwu, ilp, _ = phase_seconds tel in
  [
    ("treegen.mwu_ms", mwu *. 1e3);
    ("treegen.ilp_ms", ilp *. 1e3);
    ("chunking.probes", counter tel "miad.iterations");
    ("chunking.reused", counter tel "plan.chunk.reused");
    ("treegen.kept_trees", counter tel "plan.replan.kept_trees");
    ("treegen.displaced_trees", counter tel "plan.replan.displaced_trees");
    ("store.invalidations", Float.of_int (Blink.plan_cache_invalidations handle));
    ("store.hits", Float.of_int stats.Blink.hits);
    ("store.misses", Float.of_int stats.Blink.misses);
    ("engine.runs", counter tel "engine.runs");
  ]

let failover cfg =
  let inputs = ar_inputs ~seed:cfg.seed in
  let expected = column_sums inputs in
  let setups = ref [] and correct = ref true in
  (* The sequences [seqs], each on a fresh communicator; [op comm kind
     pair] performs one event and says whether its output was right. An
     event that raises ends its sequence. Every sequence's set-up is
     timed from a collected heap, as [fresh_setups] does. Returns the
     events that failed either way. *)
  let round seqs op =
    let failed = ref 0 in
    Array.iter
      (fun seq ->
        Gc.full_major ();
        let dt, (comm, first) = timed (fun () -> fresh_comm inputs) in
        setups := dt :: !setups;
        if not (all_hold expected first.Comm.value) then correct := false;
        try List.iter (fun (kind, pair) -> if not (op comm kind pair) then incr failed) seq
        with _ -> incr failed)
      seqs;
    !failed
  in
  (* Warm-up: the first sequence once, untimed, so the heap has grown to
     its working size before ops are timed. *)
  (let comm, _ = fresh_comm inputs in
   List.iter
     (fun (kind, pair) ->
       report_fault comm kind pair;
       ignore (Comm.all_reduce comm inputs))
     fault_round.(0));
  let attempted = ref 0 and times = ref [] and sims = ref [] in
  let untraced comm kind pair =
    incr attempted;
    let dt, r =
      timed (fun () ->
          report_fault comm kind pair;
          Comm.all_reduce comm inputs)
    in
    times := dt :: !times;
    sims := r.Comm.seconds :: !sims;
    all_hold expected r.Comm.value
  in
  let rounds = rounds_for cfg.seconds in
  let failed, minor, major =
    gc_words (fun () ->
        let failed = ref 0 in
        for _ = 1 to rounds do
          failed := !failed + round fault_round untraced
        done;
        !failed)
  in
  let setup_times = Array.of_list !setups in
  let op_times = Array.of_list (List.rev !times) in
  let ops = Array.length op_times in
  let heap = heap_peak_mb () in
  let traced_ops = if cfg.trace then ops_of traced_round else 0 in
  let layers, spans =
    if not cfg.trace then ([], [||])
    else begin
      (* Counters are read between ops, outside the spans. *)
      let led = Ledger.create () in
      let request = ref 0 and deltas = Hashtbl.create 16 in
      let bound_fracs = ref [] and engine_ops = ref 0. and fused_ops = ref 0. in
      let traced comm kind pair =
        let handle = Comm.handle comm in
        let before = fault_counters comm in
        let plan, seconds, value =
          Ledger.span led ~request:!request "op" (fun () ->
              Ledger.span led ("blink.fault." ^ fault_name kind) (fun () ->
                  report_fault comm kind pair);
              ignore
                (Ledger.span led "chunking.tune" (fun () ->
                     Blink.tuned_chunk handle ~elems:ar_elems));
              traced_all_reduce led handle inputs)
        in
        incr request;
        List.iter2
          (fun (name, a) (_, b) -> accumulate deltas name (b -. a))
          before (fault_counters comm);
        bound_fracs :=
          (gbps ~elems:ar_elems seconds /. Blink.edge_cut_bound handle Plan.All_reduce)
          :: !bound_fracs;
        engine_ops := !engine_ops +. Float.of_int (Engine.prepared_ops plan.Plan.prepared);
        fused_ops := !fused_ops +. Float.of_int (Engine.fused_ops plan.Plan.prepared);
        all_hold expected value
      in
      if round traced_round traced > 0 then correct := false;
      let spans = Ledger.spans led in
      let n = !request in
      let fault_layers, layers =
        List.partition
          (fun (name, _) -> String.starts_with ~prefix:"blink.fault" name)
          (layer_ms ~ops:n spans)
      in
      let kind_p50 kind =
        let d = Ledger.durations ~name:("blink.fault." ^ fault_name kind) spans in
        ("blink.fault_ms." ^ fault_name kind, Stats.median d *. 1e3)
      in
      let delta name = per_op (total deltas name) n in
      ( layers
        @ engine_layers ~replay_ms:(engine_replay_ms layers)
            ~engine_ops:(per_op !engine_ops n) ~fused_ops:(per_op !fused_ops n)
        @ [
            ("blink.fault_ms", List.fold_left (fun acc (_, v) -> acc +. v) 0. fault_layers);
            kind_p50 Warm_fail;
            kind_p50 Warm_degrade;
            kind_p50 Cold_fail;
            kind_p50 Cold_degrade;
            ("store.hit_rate", hit_rate ~hits:(delta "store.hits") ~misses:(delta "store.misses"));
            ("codegen.bound_frac", Stats.geomean !bound_fracs);
            ("codegen.bound_frac.all_reduce", List.fold_left Float.min infinity !bound_fracs);
          ]
        @ List.map
            (fun name -> (name, delta name))
            [
              "treegen.mwu_ms"; "treegen.ilp_ms"; "chunking.probes"; "chunking.reused";
              "treegen.kept_trees"; "treegen.displaced_trees"; "store.invalidations";
              "store.misses"; "engine.runs";
            ]
        @ common_layers ~minor ~major ~ops ~untraced:op_times spans,
        spans )
    end
  in
  let summary = Stats.summarize op_times in
  {
    attempted = !attempted;
    failed;
    correct = !correct && failed = 0;
    ops = summary;
    op_tail = summary.Stats.p90;
    setup_times;
    ops_per_s = rate op_times;
    sim_gbps = Stats.geomean (List.map (gbps ~elems:ar_elems) !sims);
    heap_peak_mb = heap;
    layers;
    spans;
    counts = [ ("rounds", rounds); ("ops", ops); ("traced_ops", traced_ops) ];
  }

(* ------------------------------------------------------------------ *)
(* service: one job of [Scheduler.run_service] with its default traffic:
   64 DGX-1V servers and eight tenants sharing one plan store. Each pass
   replays the seed's trace from a fresh store, so cold class builds are
   part of every pass.

   The observatory summarizes job latency per tenant (mean, p95), not
   per job, so the op-time samples are per pass: the mean latency of the
   pass's admitted jobs. A job the scheduler refuses (the cluster is
   full, or the tenant is over its quota) is an admission decision, not
   an op: it never runs. Refusals depend only on the trace, so every
   pass must refuse exactly as many jobs as the reference pass. *)

let service_servers = 64
let service_jobs = 5000
let service_elems = 1_000_000
let service_setups = 15
let service_setup_jobs = 1000
let service_verify_every = 50

let run_service ?telemetry ?verify_every ~seed ~n_jobs () =
  Scheduler.run_service ~seed ~servers:service_servers ~elems:service_elems ?verify_every
    ?telemetry ~n_jobs ()

let refused (r : Scheduler.service_report) =
  r.Scheduler.rejected_capacity_jobs + r.Scheduler.rejected_quota_jobs

(* A pass keeps only its summaries, so the heap does not grow with the
   number of passes. *)
type pass = {
  job_latency : float;  (** mean over admitted jobs, seconds *)
  tenant_p95 : float;  (** the worst tenant's p95 job latency, seconds: the op tail *)
  jobs_per_second : float;
  mean_slice_seconds : float;
  admitted : int;
  accounted : bool;  (** every job admitted or refused, as many refused as the reference *)
}

let pass_of ~reference (r : Scheduler.service_report) =
  let obs = r.Scheduler.observatory in
  let latency_sum =
    List.fold_left
      (fun acc (o : Scheduler.tenant_observatory) ->
        acc +. (o.Scheduler.ob_latency.Scheduler.h_mean_s *. Float.of_int o.Scheduler.ob_jobs))
      0. obs
  in
  {
    job_latency = latency_sum /. Float.of_int r.Scheduler.admitted_jobs;
    tenant_p95 =
      List.fold_left
        (fun acc (o : Scheduler.tenant_observatory) ->
          Float.max acc o.Scheduler.ob_latency.Scheduler.h_p95_s)
        0. obs;
    jobs_per_second = r.Scheduler.jobs_per_second;
    mean_slice_seconds = r.Scheduler.mean_slice_seconds;
    admitted = r.Scheduler.admitted_jobs;
    accounted =
      r.Scheduler.admitted_jobs + refused r = service_jobs && refused r = refused reference;
  }

let service cfg =
  let seed = cfg.seed in
  let setup_times, _ =
    fresh_setups service_setups (fun () -> run_service ~seed ~n_jobs:service_setup_jobs ())
  in
  (* The reference pass, untimed: it re-plans every 50th slice on a
     private handle and requires the same simulated time, and its
     refusals are the ones every later pass must repeat. *)
  let reference = run_service ~verify_every:service_verify_every ~seed ~n_jobs:service_jobs () in
  (* Read after a fixed amount of work: later passes only raise the
     peak as far as the GC's pacing happens to let it drift. *)
  let heap = heap_peak_mb () in
  let passes = ref [] in
  let loop =
    closed_loop ~seconds:cfg.seconds (fun _ ->
        let dt, r = timed (fun () -> run_service ~seed ~n_jobs:service_jobs ()) in
        let p = pass_of ~reference r in
        passes := p :: !passes;
        (dt, p.accounted))
  in
  (* The loop's last passes are the timed ones; the rest warmed up. *)
  let passes = List.filteri (fun i _ -> i < Array.length loop.times) !passes in
  let median_of f = Stats.median (Array.of_list (List.map f passes)) in
  let jobs = List.fold_left (fun n p -> n + p.admitted) 0 passes in
  let traced_ops = if cfg.trace then max 1 (List.length passes / 4) else 0 in
  let traced_ok = ref true in
  let layers, spans =
    if not cfg.trace then ([], [||])
    else begin
      (* A traced op is a whole pass with a live metrics registry; its
         planner phase histograms split the service call's time. *)
      let led = Ledger.create () in
      let sums = Hashtbl.create 8 in
      let add = accumulate sums in
      for i = 0 to traced_ops - 1 do
        let telemetry = Telemetry.create () in
        let r =
          Ledger.span led ~request:i "op" (fun () ->
              Ledger.span led "scheduler.run_service" (fun () ->
                  run_service ~telemetry ~seed ~n_jobs:service_jobs ()))
        in
        if not (pass_of ~reference r).accounted then traced_ok := false;
        let mwu, ilp, codegen = phase_seconds telemetry in
        add "treegen.mwu_ms" (mwu *. 1e3);
        add "treegen.ilp_ms" (ilp *. 1e3);
        add "codegen.build_ms" (codegen *. 1e3);
        add "engine.runs" (counter telemetry "engine.runs");
        add "store.hit_rate" r.Scheduler.hit_rate;
        add "store.misses" (Float.of_int r.Scheduler.store.Blink_store.Store.misses);
        add "store.fingerprints" (Float.of_int r.Scheduler.unique_fingerprints)
      done;
      let spans = Ledger.spans led in
      let per_pass name = per_op (total sums name) traced_ops in
      let service_ms =
        per_op
          (Array.fold_left ( +. ) 0. (Ledger.durations ~name:"scheduler.run_service" spans)
          *. 1e3)
          traced_ops
      in
      let phases = [ "treegen.mwu_ms"; "treegen.ilp_ms"; "codegen.build_ms" ] in
      ( List.map
          (fun name -> (name, per_pass name))
          (phases @ [ "engine.runs"; "store.hit_rate"; "store.misses"; "store.fingerprints" ])
        @ [
            ( "scheduler.other_ms",
              service_ms -. List.fold_left (fun acc p -> acc +. per_pass p) 0. phases );
            ("scheduler.refused_jobs", Float.of_int (refused reference));
          ]
        @ common_layers ~minor:loop.minor ~major:loop.major ~ops:jobs ~untraced:loop.times spans,
        spans )
    end
  in
  {
    attempted = jobs;
    failed = List.fold_left (fun acc p -> if p.accounted then acc else acc + p.admitted) 0 passes;
    correct =
      loop.all_ok && !traced_ok
      && reference.Scheduler.admitted_jobs + refused reference = service_jobs
      && reference.Scheduler.verified_slices > 0
      && reference.Scheduler.verify_mismatches = 0;
    ops = Stats.summarize (Array.of_list (List.map (fun p -> p.job_latency) passes));
    op_tail = median_of (fun p -> p.tenant_p95);
    setup_times;
    ops_per_s = median_of (fun p -> p.jobs_per_second);
    sim_gbps = gbps ~elems:service_elems (median_of (fun p -> p.mean_slice_seconds));
    heap_peak_mb = heap;
    layers;
    spans;
    counts =
      [
        ("setups", service_setups);
        ("passes", List.length passes);
        ("jobs_per_pass", service_jobs);
        ("traced_ops", traced_ops);
      ];
  }

let all =
  [
    ("allreduce-data", allreduce_data);
    ("topology-sweep", topology_sweep);
    ("failover", failover);
    ("service", service);
  ]
