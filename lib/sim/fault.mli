(** Fault injection for the timing engine: run a {!Program} while links
    degrade, flap or die mid-run, with per-op timeout detection and
    bounded retry/backoff — the failure model behind the library's
    degraded-topology replanning.

    Faulted runs go through {!Engine.run_prepared}'s own event loop: the
    program is prepared unfused (fused chains assume fixed durations)
    and this module decides every service attempt through the loop's
    fault hook ({!Engine.run_faulted}). With no events injected, {!run}
    reproduces [Engine.run ~policy] bit for bit, and so does a run whose
    events never touch a service: same event ordering, float arithmetic
    and tie-breaking.

    All faults are known when the run starts (they carry their injection
    times), so every service attempt's outcome is decided
    deterministically at dispatch:

    - an attempt starting on a dead resource, or inside a flaky window,
      makes no progress; the issuing side notices only when the per-op
      [timeout_s] expires, holding the lane the whole time;
    - an attempt whose transfer is cut by a mid-service [Fail] stalls at
      the failure instant and times out [timeout_s] later;
    - rate degradations slow in-flight transfers from the moment they
      land (piecewise-constant integration over the remaining bytes).

    Failed attempts back off exponentially ([backoff_s * 2^k]) and retry
    up to [max_attempts] total tries; exhaustion raises
    {!Unrecoverable} — on a permanently dead link that is the signal to
    replan the topology. [Blink.fail_link] does that incrementally by
    default (surviving trees are kept and only the displaced flow is
    re-packed), and a handle that prewarmed its one-link-down plans
    ([Blink.prewarm ~contingencies]) turns the replan into a cache
    swap. *)

type event =
  | Degrade of { res : int; at : float; factor : float }
      (** From [at] on, the resource serves at [factor] of its current
          rate ([0 < factor <= 1]; successive degradations compound). *)
  | Fail of { res : int; at : float }
      (** The resource stops serving permanently at [at]. *)
  | Flaky of { res : int; from_s : float; until_s : float }
      (** Attempts {e starting} within [\[from_s, until_s)] fail (are
          corrupted and time out); attempts outside the window are
          clean — the bounded-retry path to eventual success. *)

type retry = {
  timeout_s : float;  (** stall time before a failed attempt is detected *)
  backoff_s : float;  (** base delay before re-attempt k is issued:
                          [backoff_s *. 2. ** k] *)
  max_attempts : int;  (** total attempts per op, including the first *)
}

val default_retry : retry
(** 1 ms timeout, 0.5 ms base backoff, 4 attempts — link-level NCCL-ish
    orders of magnitude for the simulated fabrics. *)

type outcome = {
  timing : Engine.result;
      (** start/finish of each op's {e successful} attempt; [busy] counts
          failed attempts' lane occupancy too. *)
  retries : int;  (** failed attempts that were re-issued *)
  faulted_ops : int;  (** distinct ops with at least one failed attempt *)
}

exception
  Unrecoverable of { op : int; resource : int; attempts : int }
    (** An op exhausted its retry budget; the resource is effectively
        lost and the caller must replan around it. *)

val run :
  ?policy:Engine.policy ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  ?retry:retry ->
  ?events:event list ->
  ?recorder:Recorder.t ->
  resources:Engine.resource array ->
  Program.t ->
  outcome
(** Simulate the program under the injected events. Counts
    ["fault.injected"] (per event) and ["engine.retries"] (per re-issued
    attempt) on [telemetry]. Raises [Invalid_argument] on malformed
    events (unknown resource, negative time, factor outside [(0, 1]],
    empty flaky window) or the same program/resource errors as
    {!Engine.run}; raises {!Unrecoverable} when an op runs out of
    attempts.

    [recorder] receives begin/end events per successful attempt and a
    retry event per failed one, the attempt that exhausts the budget
    included. When the run retried anything or raises {!Unrecoverable}
    and [telemetry] is tracing, the recorder window is automatically
    dumped into the Chrome-trace exporter ({!Recorder.dump_slices}) so
    the retry storm is visible post-mortem. *)
