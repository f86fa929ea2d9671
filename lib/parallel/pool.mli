(** Fixed-size domain pool for the planning layers.

    Blink generates plans once per allocation and amortizes them over
    training iterations, so planning latency is the user-visible cost of
    every (re)allocation. The work is embarrassingly parallel across
    roots, servers and fabrics; this pool spreads it over OCaml 5 domains
    with zero dependencies beyond the stdlib.

    Determinism contract: {!parallel_map} returns results in submission
    order, and a pool of one domain degenerates to plain sequential
    execution in the calling domain — so for pure task functions the
    output of an [n]-domain pool is bit-identical to the sequential run.
    Calls made from inside a worker (nested parallelism) also run
    sequentially rather than deadlocking the pool.

    Sizing: [?domains] defaults to [Domain.recommended_domain_count ()].
    The [BLINK_DOMAINS] environment variable overrides that default and
    clamps explicit requests, so [BLINK_DOMAINS=1] forces every pool in
    the process to sequential execution (CI uses this to prove
    parallel/sequential equivalence). *)

type t

val parse_domains : string -> (int, string) result
(** Parse a [BLINK_DOMAINS] value. [Ok n] for a positive integer (values
    above 512 clamp to 512); [Error message] for non-numeric, zero or
    negative input — malformed overrides are rejected with a warning on
    stderr rather than silently coerced, so a typo'd variable cannot
    masquerade as a deliberate width. *)

val default_domains : unit -> int
(** [BLINK_DOMAINS] when set to a valid positive integer (clamped to
    [1..512]; invalid values warn on stderr and are ignored), else
    [Domain.recommended_domain_count ()]. *)

val create : ?domains:int -> ?telemetry:Blink_telemetry.Telemetry.t -> unit -> t
(** Spawn a pool of [domains] (default {!default_domains}; explicit
    values are still clamped by [BLINK_DOMAINS]) worker domains. A
    1-domain pool spawns no workers at all. [telemetry] (default
    {!Blink_telemetry.Telemetry.disabled}) receives the pool gauges
    [pool.domains], [pool.tasks] and [pool.busy_peak] after every batch.
    Raises [Invalid_argument] on [domains <= 0]. *)

val domains : t -> int
(** Effective pool width (1 = sequential). *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Run [f] over every element, returning results in submission order.
    Blocks until the whole batch finishes. If any task raised, the
    exception of the earliest-submitted failing task is re-raised in the
    caller (after the batch has drained). *)

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map} on [pool], or [List.map] when there is none: the
    shape of every planning layer that takes an optional pool. *)

val parallel_iter : t -> ('a -> unit) -> 'a list -> unit

val both : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Run two heterogeneous thunks concurrently. *)

type 'a future
(** A single task submitted with {!async}, redeemed with {!await}. *)

val async : t -> (unit -> 'a) -> 'a future
(** Submit one task to the pool and return immediately; the calling
    domain keeps running while a worker executes the thunk. On a
    sequential pool (1 domain, or called from inside a worker) the thunk
    runs eagerly in the calling domain before [async] returns, so
    [async]/[await] degenerates to a plain call with identical results
    and ordering — the overlap contract {!Blink.prewarm_async} relies
    on. Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the future's task finishes and return its result. If the
    task raised, re-raises that exception in the awaiting domain.
    Idempotent: awaiting a finished future returns (or re-raises) the
    same outcome again. *)

val tasks_run : t -> int
(** Total tasks completed over the pool's lifetime. *)

val busy_peak : t -> int
(** Peak number of simultaneously running tasks observed. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent; the pool must not be used
    afterwards. *)

val with_pool :
  ?domains:int ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  (t -> 'a) ->
  'a
(** [create], run, and [shutdown] (also on exceptions). *)

val default : unit -> t
(** A lazily-created process-wide pool of {!default_domains} workers,
    shut down via [at_exit]. This is what the planning layers use when no
    explicit pool is passed. *)
