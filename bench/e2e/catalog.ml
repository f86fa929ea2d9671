(* The benchmark's metric catalog: names, units, directions and, for the
   end-to-end metrics, the regression bound as a share of the parent's
   median. BENCHMARK.json at the repository root lists the same metrics;
   the unit tests hold the two together. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** end-to-end only; 0. for per-layer metrics *)
}

let run_seconds = 16

let workloads = [ "allreduce-data"; "topology-sweep"; "failover"; "service" ]

let e2e name unit better bound = { name; unit; better; bound }

(* The bound is the share of the parent's median by which a metric may
   worsen. Each metric below 0.25, the widest bound allowed, would have
   to hold its run-to-run spread (IQR over median of ten seeded runs)
   under it. On a shared 2-vCPU host the wall-clock metrics spread by up
   to 0.35 (setup_s), 0.11 (op_p50_ms, ops_per_s) and 0.22 (op_p90_ms),
   and the heap peak, deterministic on three workloads, by up to 0.10 on
   service, whose seeded trace sets it. Only the simulated bandwidth
   holds a tight bound: it varies with the service trace alone, by about
   1%. README.md has the measured spreads. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "op_p50_ms" "ms" Lower 0.25;
    e2e "op_p90_ms" "ms" Lower 0.25;
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "heap_peak_mb" "MB" Lower 0.25;
    e2e "sim_gbps" "GB/s" Higher 0.05;
  ]

let layer name unit better = { name; unit; better; bound = 0. }

let collective_names =
  [ "all_reduce"; "broadcast"; "reduce"; "gather"; "all_gather"; "reduce_scatter" ]

let per_collective prefix unit better =
  List.map (fun c -> layer (prefix ^ "." ^ c) unit better) collective_names

let fault_kinds = [ "warm_fail"; "warm_degrade"; "cold_fail"; "cold_degrade" ]

let per_layer =
  [
    layer "store.lookup_ms" "ms" Lower;
    layer "store.hit_rate" "ratio" Higher;
    layer "store.misses" "count" Lower;
    layer "store.invalidations" "count" Lower;
    layer "store.fingerprints" "count" Lower;
    layer "engine.replay_ms" "ms" Lower;
  ]
  @ per_collective "engine.replay_ms" "ms" Lower
  @ [
      layer "engine.ops" "count" Lower;
      layer "engine.fused_ops" "count" Higher;
      layer "engine.ns_per_op" "ns" Lower;
      layer "engine.runs" "count" Lower;
      layer "engine.prepare_ms" "ms" Lower;
      layer "semantics.write_ms" "ms" Lower;
      layer "semantics.run_ms" "ms" Lower;
      layer "semantics.read_ms" "ms" Lower;
      layer "semantics.kernel_calls" "count" Lower;
      layer "blink.create_ms" "ms" Lower;
      layer "blink.fault_ms" "ms" Lower;
    ]
  @ List.map (fun k -> layer ("blink.fault_ms." ^ k) "ms" Lower) fault_kinds
  @ [
      layer "treegen.mwu_ms" "ms" Lower;
      layer "treegen.ilp_ms" "ms" Lower;
      layer "treegen.trees" "count" Lower;
      layer "treegen.kept_trees" "count" Higher;
      layer "treegen.displaced_trees" "count" Lower;
      layer "chunking.tune_ms" "ms" Lower;
      layer "chunking.probes" "count" Lower;
      layer "chunking.reused" "count" Higher;
      layer "codegen.build_ms" "ms" Lower;
      layer "codegen.bound_frac" "ratio" Higher;
    ]
  @ per_collective "codegen.bound_frac" "ratio" Higher
  @ [
      layer "codegen.speedup_vs_ring" "ratio" Higher;
      layer "scheduler.other_ms" "ms" Lower;
      layer "scheduler.refused_jobs" "count" Lower;
      layer "gc.minor_words_per_op" "words" Lower;
      layer "gc.major_words_per_op" "words" Lower;
      layer "residual_frac" "ratio" Lower;
      layer "tracing_overhead_frac" "ratio" Lower;
    ]
