(** Automatic chunk-size selection (paper section 4.2.1, figure 12).

    Chunk size trades pipeline latency against per-op scheduling overhead.
    Blink explores it online over a training job's first iterations with a
    multiplicative-increase, additive-decrease (MIAD) scheme: grow the
    chunk geometrically while measured throughput improves, back off
    additively once it degrades, stop at steady state. *)

type step = { chunk_elems : int; throughput : float }

type result = {
  chosen : int;  (** steady-state chunk size, in elements *)
  trace : step list;  (** every probe, in order — figure 12's series *)
}

val tune :
  ?init:int ->
  ?max_iters:int ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  measure:(chunk_elems:int -> float) ->
  unit ->
  result
(** [tune ~measure ()] probes [measure] (higher is better; e.g. simulated
    GB/s) starting from [init] (default 262144 elements = 1 MiB of fp32),
    doubling the chunk while throughput improves, then stepping back by
    [shrink = max 1 (init/2)] elements until throughput stops recovering.
    Each phase gets its own budget of at most [max_iters] probes (default
    16): the increase phase counts the initial probe against its budget;
    the decrease phase starts from a fresh count, so an exhaustive
    up-sweep can no longer starve back-off.

    The decrease never probes below [shrink]: it stops once the next step
    would land under it, so every probed chunk is at least [shrink].
    Without this floor an odd [init] steps down to a 1-element chunk,
    whose simulated program has millions of ops; with an even [init] it
    is the rule that stops at a non-positive chunk.

    [telemetry] counts tuning iterations (["miad.iterations"]), observes
    each probe's throughput and, when tracing, records a ["miad.tune"]
    span. *)
