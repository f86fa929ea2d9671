module Telemetry = Blink_telemetry.Telemetry
module Json = Blink_telemetry.Json

type step = { chunk_elems : int; throughput : float }
type result = { chosen : int; trace : step list }

let tune ?(init = 262_144) ?(max_iters = 16) ?(telemetry = Telemetry.disabled)
    ~measure () =
  if init <= 0 then invalid_arg "Chunking.tune: init <= 0";
  let shrink = max 1 (init / 2) in
  let span_start = Telemetry.now_s telemetry in
  let w0 = Telemetry.wall_s telemetry in
  let trace = ref [] in
  let probe chunk_elems =
    let throughput = measure ~chunk_elems in
    trace := { chunk_elems; throughput } :: !trace;
    Telemetry.incr telemetry "miad.iterations";
    Telemetry.observe telemetry "miad.probe_throughput_gbps" throughput;
    throughput
  in
  (* Multiplicative increase while throughput improves. *)
  let rec increase chunk best iters =
    if iters >= max_iters then (chunk, best)
    else begin
      let next = 2 * chunk in
      let t = probe next in
      if t > best then increase next t (iters + 1) else (chunk, best)
    end
  in
  (* Additive decrease while it keeps improving on the overshoot point.
     The decrease phase gets its own [max_iters] probe budget: seeding it
     with the up-phase probe count would silently consume it (the seed
     behaviour), starving back-off exactly when the up phase explored
     most. It never probes below [shrink]: with an odd [init] the steps
     would otherwise reach a 1-element chunk, whose program has millions
     of ops. *)
  let rec decrease chunk best iters =
    if iters >= max_iters || chunk - shrink < shrink then (chunk, best)
    else begin
      let next = chunk - shrink in
      let t = probe next in
      if t > best then decrease next t (iters + 1) else (chunk, best)
    end
  in
  let t0 = probe init in
  let up_chunk, up_best = increase init t0 1 in
  let chosen, _ = decrease up_chunk up_best 0 in
  if Telemetry.enabled telemetry then begin
    Telemetry.observe telemetry "plan.phase.miad_s"
      (Telemetry.wall_s telemetry -. w0);
    Telemetry.set_gauge telemetry "miad.chosen_chunk_elems" (Float.of_int chosen);
    Telemetry.span telemetry ~cat:"miad" ~start:span_start
      ~args:
        [
          ("probes", Json.int (List.length !trace));
          ("chosen_chunk_elems", Json.int chosen);
        ]
      "miad.tune"
  end;
  { chosen; trace = List.rev !trace }
