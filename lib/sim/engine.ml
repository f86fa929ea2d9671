module Telemetry = Blink_telemetry.Telemetry

type resource = { bandwidth : float; latency : float; lanes : int; gap : float }
type policy = [ `Fair | `Stream_priority ]

type result = {
  makespan : float;
  finish : float array;
  start : float array;
  busy : float array;
}

(* Monomorphic arena heaps for the event loop: the simulator spends most
   of its time pushing/popping these, and the staged add/pop protocol
   (see Pqueue) keeps steady-state event processing allocation-free. *)
module Events = Pqueue.Float_int
module Waitq = Pqueue.Float_int_int

(* Time until the op's data is available once service starts. *)
let data_time resources (o : Program.op) =
  match o.kind with
  | Program.Transfer { bytes; link; bw_scale; _ } ->
      let r = resources.(link) in
      bytes /. (r.bandwidth *. bw_scale)
  | Program.Compute { bytes; engine; _ } ->
      let r = resources.(engine) in
      bytes /. r.bandwidth
  | Program.Delay { seconds } -> seconds

(* Fold the timed ops into the telemetry handle as simulated-time slices,
   one track per resource — the merged-timeline half of the Chrome
   exporter. Only reached when tracing is on. *)
let record_slices telemetry prog ~start ~finish =
  Program.iter_ops
    (fun o ->
      let id = o.Program.id in
      let track = match Program.resource_of_op o with Some r -> r | None -> -1 in
      let name =
        match o.Program.kind with
        | Program.Transfer { bytes; _ } -> Printf.sprintf "xfer#%d %.0fB" id bytes
        | Program.Compute { bytes; _ } -> Printf.sprintf "comp#%d %.0fB" id bytes
        | Program.Delay { seconds } ->
            Printf.sprintf "delay#%d %.0fus" id (seconds *. 1e6)
      in
      Telemetry.slice telemetry ~track ~name ~start:start.(id)
        ~dur:(finish.(id) -. start.(id))
        ~args:[ ("stream", Blink_telemetry.Json.int o.Program.stream) ]
        ())
    prog

(* ------------------------------------------------------------------ *)
(* Prepared schedules: everything [run] used to derive from the program
   on every call — validation, per-op resource ids, base durations and
   occupancies, pipeline latencies, pending-dependency counts and the
   dependents adjacency — lowered once into flat immutable arrays. The
   dependents lists become a CSR adjacency whose edges pack the
   destination op and the stream-edge flag into one int
   ([(dst lsl 1) lor is_stream]), preserving the exact per-op edge order
   the list-based engine produced so replay is bit-identical. *)

type prepared = {
  p_prog : Program.t;
  p_resources : resource array;
  p_n : int;
  p_n_res : int;
  p_res_of : int array;  (* resource id, or -1 for delays *)
  p_dur : float array;  (* base duration (data_time) *)
  p_occ : float array;  (* lane occupancy: max dur gap *)
  p_lat : float array;  (* pipeline latency of the op's resource *)
  p_stream : int array;
  p_lanes : int array;  (* per-resource lane count *)
  p_pending0 : int array;  (* initial pending-dependency counts *)
  p_dep_off : int array;  (* CSR row offsets, length n+1 *)
  p_dep : int array;  (* packed edges: (dst lsl 1) lor is_stream *)
  p_sources : int array;  (* ops with no dependencies, ascending id *)
  (* Prepare-time op fusion (see [contention_free] below): maximal runs of
     back-to-back same-resource, same-stream ops whose interior members
     have the stream edge as their only dependency are dispatched as one
     fused schedule entry. Interior members never enter the event heap. *)
  p_fuse_next : int array;  (* next chain member, or -1 *)
  p_fuse_len : int array;  (* chain length at heads (>= 2), 0 interior, 1 else *)
  p_fuse_safe : bool;  (* every resource passed the contention analysis *)
  p_fuse_chains : int;  (* number of fused chains *)
  p_fuse_ops : int;  (* ops covered by fused chains (heads included) *)
}

(* Contention-freedom analysis, the condition under which fusion is exact.

   Resource [r] is contention-free when the sum over streams of that
   stream's worst-case simultaneous lane demand on [r] is at most
   [lanes r]. A stream needs at most one lane at a time on [r] when every
   one of its ops there has [dur >= gap] (then occupancy equals duration,
   so the lane is released exactly when the stream successor becomes
   ready — finish times are monotone along a stream); otherwise we bound
   its demand by its op count on [r]. If every used resource is
   contention-free, no op ever waits past its ready time: start times are
   the dataflow fixpoint, independent of heap tie-breaking. That makes
   event elision for fused chains exact — interior members start at their
   predecessor's finish, which is precisely what the unfused engine
   computes — so fused replay is bit-identical (timing and data) to
   unfused. When any resource fails the test we disable fusion entirely
   rather than risk divergence. *)
let contention_free ~resources ~res_of ~dur ~stream ~n_streams n =
  let n_res = Array.length resources in
  let n_str = max 1 n_streams in
  let cnt = Array.make (n_res * n_str) 0 in
  let tight = Array.make (n_res * n_str) true in
  for id = 0 to n - 1 do
    let r = res_of.(id) in
    if r >= 0 then begin
      let c = (r * n_str) + stream.(id) in
      cnt.(c) <- cnt.(c) + 1;
      if dur.(id) < resources.(r).gap then tight.(c) <- false
    end
  done;
  let safe = ref true in
  for r = 0 to n_res - 1 do
    if !safe then begin
      let demand = ref 0 in
      for s = 0 to n_str - 1 do
        let c = (r * n_str) + s in
        if cnt.(c) > 0 then
          demand := !demand + (if tight.(c) then 1 else cnt.(c))
      done;
      if !demand > resources.(r).lanes then safe := false
    end
  done;
  !safe

let prepare ?(telemetry = Telemetry.disabled) ?(fuse = true) ~resources prog =
  Array.iteri
    (fun i r ->
      if r.lanes <= 0 || r.latency < 0. || r.bandwidth <= 0. || r.gap < 0. then
        invalid_arg (Printf.sprintf "Engine.run: bad resource %d" i))
    resources;
  let n = Program.n_ops prog in
  let n_res = Array.length resources in
  Program.iter_ops
    (fun o ->
      match Program.resource_of_op o with
      | Some r when r < 0 || r >= n_res ->
          invalid_arg
            (Printf.sprintf "Engine.run: op %d uses unknown resource %d"
               o.Program.id r)
      | Some _ | None -> ())
    prog;
  let res_of = Array.make n (-1) in
  let dur = Array.make n 0. in
  let occ = Array.make n 0. in
  let lat = Array.make n 0. in
  let stream = Array.make n 0 in
  (* Pending-dependency counts: explicit deps plus one for a stream
     predecessor. Data dependencies pay the resource's pipeline latency;
     stream order does not (back-to-back chunks on one lane issue from the
     queue without a fresh launch round-trip). *)
  let pending = Array.make n 0 in
  let dependents = Array.make n [] in  (* (dependent, is_stream_edge) *)
  Program.iter_ops
    (fun o ->
      let id = o.Program.id in
      let d = data_time resources o in
      dur.(id) <- d;
      stream.(id) <- o.Program.stream;
      (* Delays occupy no resource and start as soon as they are ready. *)
      (match Program.resource_of_op o with
      | Some r ->
          res_of.(id) <- r;
          occ.(id) <- Float.max d resources.(r).gap;
          lat.(id) <- resources.(r).latency
      | None -> ());
      List.iter
        (fun dep ->
          pending.(id) <- pending.(id) + 1;
          dependents.(dep) <- (id, false) :: dependents.(dep))
        o.Program.deps)
    prog;
  Program.iter_stream_edges
    (fun ~pred ~succ ->
      pending.(succ) <- pending.(succ) + 1;
      dependents.(pred) <- (succ, true) :: dependents.(pred))
    prog;
  let n_edges = Array.fold_left (fun acc l -> acc + List.length l) 0 dependents in
  let dep_off = Array.make (n + 1) 0 in
  let dep = Array.make n_edges 0 in
  let pos = ref 0 in
  for id = 0 to n - 1 do
    dep_off.(id) <- !pos;
    List.iter
      (fun (dst, is_stream) ->
        dep.(!pos) <- (dst lsl 1) lor (if is_stream then 1 else 0);
        incr pos)
      dependents.(id)
  done;
  dep_off.(n) <- !pos;
  let sources = ref [] in
  for id = n - 1 downto 0 do
    if pending.(id) = 0 then sources := id :: !sources
  done;
  (* Fusion chains: a stream edge pred -> succ is a chain link when both
     ops run on the same resource and the stream edge is succ's only
     dependency (pending count 1), so nothing external gates succ's
     start. Heads keep arbitrary dependencies. Only built when the whole
     schedule is contention-free (see [contention_free]); otherwise the
     arrays stay trivial and dispatch is unchanged. *)
  let fuse_safe =
    fuse
    && contention_free ~resources ~res_of ~dur ~stream
         ~n_streams:(Program.n_streams prog) n
  in
  let fuse_next = Array.make n (-1) in
  let fuse_len = Array.make n 1 in
  let fuse_chains = ref 0 in
  let fuse_ops = ref 0 in
  if fuse_safe then begin
    Program.iter_stream_edges
      (fun ~pred ~succ ->
        if res_of.(pred) >= 0
           && res_of.(pred) = res_of.(succ)
           && pending.(succ) = 1
        then fuse_next.(pred) <- succ)
      prog;
    let interior = Array.make n false in
    for id = 0 to n - 1 do
      let nx = fuse_next.(id) in
      if nx >= 0 then interior.(nx) <- true
    done;
    for id = 0 to n - 1 do
      if fuse_next.(id) >= 0 && not interior.(id) then begin
        let len = ref 1 in
        let m = ref fuse_next.(id) in
        let last = ref false in
        while not !last do
          incr len;
          fuse_len.(!m) <- 0;
          let nx = fuse_next.(!m) in
          if nx < 0 then last := true else m := nx
        done;
        fuse_len.(id) <- !len;
        incr fuse_chains;
        fuse_ops := !fuse_ops + !len
      end
    done
  end;
  if Telemetry.enabled telemetry then Telemetry.incr telemetry "engine.prepares";
  {
    p_prog = prog;
    p_resources = resources;
    p_n = n;
    p_n_res = n_res;
    p_res_of = res_of;
    p_dur = dur;
    p_occ = occ;
    p_lat = lat;
    p_stream = stream;
    p_lanes = Array.map (fun r -> r.lanes) resources;
    p_pending0 = pending;
    p_dep_off = dep_off;
    p_dep = dep;
    p_sources = Array.of_list !sources;
    p_fuse_next = fuse_next;
    p_fuse_len = fuse_len;
    p_fuse_safe = fuse_safe;
    p_fuse_chains = !fuse_chains;
    p_fuse_ops = !fuse_ops;
  }

let prepared_program p = p.p_prog
let prepared_ops p = p.p_n
let fusion_enabled p = p.p_fuse_safe
let fused_chains p = p.p_fuse_chains
let fused_ops p = p.p_fuse_ops

(* ------------------------------------------------------------------ *)
(* Arenas: the engine's mutable working set, reset in place per run.
   Arrays are kept at exactly (n ops, n resources) — [result] aliases
   them directly, and consumers like [Critical_path.utilization] iterate
   the whole [busy] array — and reallocated only when the prepared
   schedule's shape differs from the previous run. *)

type arena = {
  mutable a_start : float array;
  mutable a_finish : float array;
  mutable a_ready : float array;
  mutable a_pending : int array;
  mutable a_busy : float array;
  mutable a_lanes : int array;
  a_mk : float array;  (* 1 slot: running makespan, unboxed *)
  a_events : Events.t;
  mutable a_wait : Waitq.t array;
  a_in_use : bool Atomic.t;
      (* Guards against concurrent or reentrant runs on one arena, which
         would silently corrupt the working arrays. Atomic so the
         acquire is race-free across domains. *)
}

let arena () =
  {
    a_start = [||];
    a_finish = [||];
    a_ready = [||];
    a_pending = [||];
    a_busy = [||];
    a_lanes = [||];
    a_mk = Array.make 1 0.;
    a_events = Events.create ();
    a_wait = [||];
    a_in_use = Atomic.make false;
  }

(* Per-domain scratch arena: the default when callers don't pass one.
   Domain-local so concurrent planners (e.g. tuning probes fanned across
   a Pool) never share mutable engine state. *)
let scratch_key = Domain.DLS.new_key arena
let scratch_arena () = Domain.DLS.get scratch_key

let reset_arena a p =
  let n = p.p_n and n_res = p.p_n_res in
  if Array.length a.a_start <> n then begin
    a.a_start <- Array.make n nan;
    a.a_finish <- Array.make n nan;
    a.a_ready <- Array.make n 0.;
    a.a_pending <- Array.make n 0
  end;
  if Array.length a.a_busy <> n_res then begin
    a.a_busy <- Array.make n_res 0.;
    a.a_lanes <- Array.make n_res 0
  end;
  if Array.length a.a_wait <> n_res then
    a.a_wait <- Array.init n_res (fun _ -> Waitq.create ())
  else Array.iter Waitq.clear a.a_wait;
  Array.fill a.a_start 0 n nan;
  Array.fill a.a_finish 0 n nan;
  (* Initial ready time of every op is its resource's pipeline latency. *)
  Array.blit p.p_lat 0 a.a_ready 0 n;
  Array.blit p.p_pending0 0 a.a_pending 0 n;
  Array.fill a.a_busy 0 n_res 0.;
  Array.blit p.p_lanes 0 a.a_lanes 0 n_res;
  a.a_mk.(0) <- 0.;
  Events.clear a.a_events

(* ------------------------------------------------------------------ *)
(* Fault hook: the retry branch of the event loop, which only [Fault.run]
   drives. [no_faults] is the sentinel for a run without one, checked
   once per run the way [Recorder.none] is. *)

type fault_hook = {
  attempt : int -> int -> bool;
  io : float array;
  occ : float array;
}

let no_faults = { attempt = (fun _ _ -> true); io = [||]; occ = [||] }

(* The tail every dispatch shares once an op's service is fixed: write
   its begin/end recorder pair (both are known at dispatch — the
   simulator fixes the finish when service starts) with inline array
   stores, advance the makespan and release the dependents. [skip] is
   one packed edge to leave alone (a fused chain's inline successor), or
   -1. A top-level inlined function rather than a closure in [exec], so
   sharing it costs a run neither a call per op nor a closure. *)
let[@inline] finish_op a p ~rec_on recorder estaged id skip =
  let fin = a.a_finish.(id) in
  if rec_on then begin
    let r = p.p_res_of.(id) in
    let h = recorder.Recorder.head in
    let mask = recorder.Recorder.mask in
    let i = h land mask in
    recorder.Recorder.ev_kind.(i) <- 0;
    recorder.Recorder.ev_op.(i) <- id;
    recorder.Recorder.ev_res.(i) <- r;
    recorder.Recorder.ev_time.(i) <- a.a_start.(id);
    let j = (h + 1) land mask in
    recorder.Recorder.ev_kind.(j) <- 1;
    recorder.Recorder.ev_op.(j) <- id;
    recorder.Recorder.ev_res.(j) <- r;
    recorder.Recorder.ev_time.(j) <- fin;
    recorder.Recorder.head <- h + 2
  end;
  if fin > a.a_mk.(0) then a.a_mk.(0) <- fin;
  for e = p.p_dep_off.(id) to p.p_dep_off.(id + 1) - 1 do
    let packed = p.p_dep.(e) in
    if packed <> skip then begin
      let dep = packed lsr 1 in
      let candidate = if packed land 1 = 1 then fin else fin +. p.p_lat.(dep) in
      if candidate > a.a_ready.(dep) then a.a_ready.(dep) <- candidate;
      let pend = a.a_pending.(dep) - 1 in
      a.a_pending.(dep) <- pend;
      if pend = 0 then begin
        estaged.(0) <- a.a_ready.(dep);
        Events.add_staged a.a_events dep
      end
    end
  done

let exec ~faults ~policy ~telemetry ~recorder a p =
  let t_span = Telemetry.now_s telemetry in
  if Atomic.exchange a.a_in_use true then
    invalid_arg
      "Engine.run_prepared: arena already in use (concurrent or reentrant \
       run on one arena)";
  reset_arena a p;
  let n = p.p_n in
  let events = a.a_events in
  let estaged = Events.staged events in
  let fair = match policy with `Fair -> true | `Stream_priority -> false in
  (* Flight recorder and fault hook: one physical-equality check each,
     hoisted here. The no-fault dispatch never consults the hook. *)
  let rec_on = recorder != Recorder.none in
  let faults_on = faults != no_faults in
  (* Times never travel as float arguments: closure calls box them, and
     this is the per-op hot path. [start_op] reads its start time from
     the staged slot (where [pop_staged] left it) before the slot is
     reused for pushes; fused chain members get theirs in [a_start],
     written by their predecessor. Once an op's service is fixed, its
     times are read back from [a_start]/[a_finish]. *)
  let rec fused_member id =
    a.a_finish.(id) <- a.a_start.(id) +. p.p_dur.(id);
    let next = p.p_fuse_next.(id) in
    if next < 0 then begin
      (* Last member: release the chain's lane before the dependents
         fan-out, exactly where the unfused engine pushes its lane_free
         (so equal-timestamp pops keep the free-before-acquire order). *)
      estaged.(0) <- a.a_start.(id) +. p.p_occ.(id);
      Events.add_staged events (-1 - p.p_res_of.(id))
    end;
    (* The stream edge to the next chain member is skipped, so the
       member's pending count never reaches zero and it never enters the
       event heap. *)
    finish_op a p ~rec_on recorder estaged id ((next lsl 1) lor 1);
    if next >= 0 then begin
      (* Back-to-back on one lane: the successor starts exactly at this
         member's finish (stream edges pay no latency, and under the
         contention-free precondition it never waits for the lane). *)
      a.a_start.(next) <- a.a_finish.(id);
      fused_member next
    end
  in
  let start_op id =
    let t = estaged.(0) in
    a.a_start.(id) <- t;
    let r = p.p_res_of.(id) in
    if p.p_fuse_len.(id) > 1 then begin
      (* Chain head: one lane serves the whole chain, acquired here and
         released by [fused_member] at the last member's release time. *)
      a.a_lanes.(r) <- a.a_lanes.(r) - 1;
      fused_member id
    end
    else if faults_on && r >= 0 then begin
      (* One attempt under faults. [Fault.run] prepares its schedules
         unfused (fused chains assume fixed durations), so no chain head
         gets here. The hook reads the attempt's start time, nominal
         duration and nominal occupancy from [io] and answers through it:
         the lane release time, then the finish time if served or the
         retry's ready time if not. *)
      let io = faults.io in
      io.(0) <- t;
      io.(1) <- p.p_dur.(id);
      io.(2) <- p.p_occ.(id);
      let served = faults.attempt id r in
      a.a_lanes.(r) <- a.a_lanes.(r) - 1;
      estaged.(0) <- io.(0);
      Events.add_staged events (-1 - r);
      if served then begin
        a.a_finish.(id) <- io.(1);
        finish_op a p ~rec_on recorder estaged id (-1)
      end
      else begin
        estaged.(0) <- io.(1);
        Events.add_staged events id
      end
    end
    else begin
      a.a_finish.(id) <- t +. p.p_dur.(id);
      if r >= 0 then begin
        a.a_lanes.(r) <- a.a_lanes.(r) - 1;
        (* Lane_free events are encoded as negative values (-1 - r). *)
        estaged.(0) <- t +. p.p_occ.(id);
        Events.add_staged events (-1 - r)
      end;
      finish_op a p ~rec_on recorder estaged id (-1)
    end
  in
  let srcs = p.p_sources in
  for i = 0 to Array.length srcs - 1 do
    let id = srcs.(i) in
    estaged.(0) <- a.a_ready.(id);
    Events.add_staged events id
  done;
  let rec drain () =
    if not (Events.is_empty events) then begin
      let v = Events.pop_staged events in
      if v >= 0 then begin
        (* Ready op. *)
        let id = v in
        let r = p.p_res_of.(id) in
        if r < 0 then start_op id
        else if a.a_lanes.(r) > 0 then start_op id
        else begin
          (* Per-resource waiting sets keyed by the scheduling policy. *)
          let w = a.a_wait.(r) in
          (Waitq.staged w).(0) <- (if fair then estaged.(0) else 0.);
          Waitq.add_staged w p.p_stream.(id) id
        end
      end
      else begin
        (* Lane freed on resource (-1 - v). *)
        let r = -1 - v in
        a.a_lanes.(r) <- a.a_lanes.(r) + 1;
        let w = a.a_wait.(r) in
        (* [pop_staged] on the waitq leaves [estaged.(0)] untouched, so
           the event time is still in place for [start_op]. *)
        if not (Waitq.is_empty w) then start_op (Waitq.pop_staged w)
      end;
      drain ()
    end
  in
  drain ();
  (* Every op must have run; a cycle would leave NaNs (impossible by
     construction, but guard against programmer error). *)
  for i = 0 to n - 1 do
    if Float.is_nan a.a_finish.(i) then begin
      Atomic.set a.a_in_use false;
      invalid_arg (Printf.sprintf "Engine.run: op %d never became ready" i)
    end
  done;
  (* Busy totals are a constant of the schedule (every op runs exactly
     once), so they are summed here in op-id order rather than in
     dispatch order: the float sum is then independent of heap pop order
     and bit-identical between fused and unfused replays. Under faults the
     hook's per-op lane-seconds (failed attempts included) stand in for
     the nominal occupancies. *)
  let occ = if faults_on then faults.occ else p.p_occ in
  for id = 0 to n - 1 do
    let r = p.p_res_of.(id) in
    if r >= 0 then a.a_busy.(r) <- a.a_busy.(r) +. occ.(id)
  done;
  let makespan = a.a_mk.(0) in
  if Telemetry.enabled telemetry then begin
    Telemetry.incr telemetry "engine.runs";
    Telemetry.incr telemetry ~by:n "engine.ops_executed";
    Telemetry.observe telemetry "engine.makespan_s" makespan;
    if Telemetry.tracing telemetry then begin
      record_slices telemetry p.p_prog ~start:a.a_start ~finish:a.a_finish;
      Telemetry.span telemetry ~cat:"engine" ~start:t_span
        ~args:
          [
            ("ops", Blink_telemetry.Json.int n);
            ("makespan_s", Blink_telemetry.Json.float makespan);
          ]
        "engine.run"
    end
  end;
  Atomic.set a.a_in_use false;
  { makespan; finish = a.a_finish; start = a.a_start; busy = a.a_busy }

let run_prepared ?(policy = `Fair) ?(telemetry = Telemetry.disabled) ?arena:a
    ?(recorder = Recorder.none) p =
  let a = match a with Some a -> a | None -> scratch_arena () in
  exec ~faults:no_faults ~policy ~telemetry ~recorder a p

let run_faulted ?(policy = `Fair) ?(recorder = Recorder.none) faults p =
  exec ~faults ~policy ~telemetry:Telemetry.disabled ~recorder (arena ()) p

let run ?policy ?(telemetry = Telemetry.disabled) ?fuse ~resources prog =
  let p = prepare ~telemetry ?fuse ~resources prog in
  (* A fresh arena per call: [run]'s result arrays must stay independent
     across calls (callers compare results of separate runs). *)
  run_prepared ?policy ~telemetry ~arena:(arena ()) p

let throughput ~bytes result =
  if result.makespan <= 0. then 0. else bytes /. result.makespan
