module Telemetry = Blink_telemetry.Telemetry

type resource = { bandwidth : float; latency : float; lanes : int; gap : float }
type policy = [ `Fair | `Stream_priority ]

type result = {
  makespan : float;
  finish : float array;
  start : float array;
  busy : float array;
}

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

(* The arrays the event loop reads. Field order is shared with
   engine_stubs.c (its S_ positions). *)
type schedule = {
  s_res_of : int array;  (* resource id, or -1 for delays *)
  s_dur : float array;  (* base duration (data_time) *)
  s_occ : float array;  (* lane occupancy: max dur gap *)
  s_lat : float array;  (* pipeline latency of the op's resource *)
  s_stream : int array;
  s_lanes : int array;  (* per-resource lane count *)
  s_pending0 : int array;  (* initial pending-dependency counts *)
  s_dep_off : int array;  (* CSR row offsets, length n+1 *)
  s_dep : int array;  (* packed edges: (dst lsl 1) lor is_stream *)
  s_sources : int array;  (* ops with no dependencies, ascending id *)
  (* Prepare-time op fusion (see [contention_free] below): maximal runs of
     back-to-back same-resource, same-stream ops whose interior members
     have the stream edge as their only dependency are dispatched as one
     fused schedule entry. Interior members never enter the event heap. *)
  s_fuse_next : int array;  (* next chain member, or -1 *)
  s_fuse_len : int array;  (* chain length at heads (>= 2), 0 interior, 1 else *)
  s_wait_off : int array;
      (* length n_res+1: resource r's waiting heap starts at entry
         [s_wait_off.(r)] of the arena's work buffer; its ops on r bound it *)
}

type prepared = {
  p_sched : schedule;
  p_prog : Program.t;
  p_n : int;
  p_n_res : int;
  p_work_bytes : int;
      (* the arena work buffer a run needs, its event heap excluded *)
  p_events : int;  (* event heap entries a run without faults needs *)
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

(* The event heap's peak, beyond one pending entry per op: the lane-free
   events in flight. Resource r has at most [lanes r] lanes taken at once
   and at most [attempts] service attempts per op on it, so it holds at
   most [min (lanes r) (ops r * attempts)] lane-free events. Written so
   that the product cannot overflow. *)
let lane_events ~lanes ~wait_off ~attempts =
  let sum = ref 0 in
  Array.iteri
    (fun r l ->
      let ops = wait_off.(r + 1) - wait_off.(r) in
      if ops > 0 then sum := !sum + if attempts > l / ops then l else ops * attempts)
    lanes;
  !sum

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
  (* Each resource's waiting heap holds at most its own ops. *)
  let wait_off = Array.make (n_res + 1) 0 in
  Array.iter (fun r -> if r >= 0 then wait_off.(r + 1) <- wait_off.(r + 1) + 1) res_of;
  for r = 0 to n_res - 1 do
    wait_off.(r + 1) <- wait_off.(r) + wait_off.(r + 1)
  done;
  let lanes = Array.map (fun r -> r.lanes) resources in
  if Telemetry.enabled telemetry then Telemetry.incr telemetry "engine.prepares";
  {
    p_sched =
      {
        s_res_of = res_of;
        s_dur = dur;
        s_occ = occ;
        s_lat = lat;
        s_stream = stream;
        s_lanes = lanes;
        s_pending0 = pending;
        s_dep_off = dep_off;
        s_dep = dep;
        s_sources = Array.of_list !sources;
        s_fuse_next = fuse_next;
        s_fuse_len = fuse_len;
        s_wait_off = wait_off;
      };
    p_prog = prog;
    p_n = n;
    p_n_res = n_res;
    (* ready times, lane counts and heap sizes, waiting heaps (16-byte
       entries), pending counts padded to 8 bytes: the layout
       engine_stubs.c reads. The event heap follows. *)
    p_work_bytes =
      (8 * n) + (16 * n_res) + (16 * wait_off.(n_res)) + (4 * (n + (n land 1)));
    p_events = n + lane_events ~lanes ~wait_off ~attempts:1;
    p_fuse_safe = fuse_safe;
    p_fuse_chains = !fuse_chains;
    p_fuse_ops = !fuse_ops;
  }

let schedule p = p.p_sched
let prepared_program p = p.p_prog
let prepared_ops p = p.p_n
let fusion_enabled p = p.p_fuse_safe
let fused_chains p = p.p_fuse_chains
let fused_ops p = p.p_fuse_ops

(* ------------------------------------------------------------------ *)
(* Arenas: the engine's mutable working set, reset in place per run by
   the event loop. The result arrays are kept at exactly (n ops, n
   resources) — [result] aliases them directly, and consumers like
   [Critical_path.utilization] iterate the whole [busy] array — and
   reallocated only when the prepared schedule's shape differs from the
   previous run. The work buffer, which holds the loop's other state and
   its heaps, only ever grows. Field order is shared with engine_stubs.c
   (its A_ positions). *)

type arena = {
  mutable a_start : float array;
  mutable a_finish : float array;
  mutable a_busy : float array;
  mutable a_work : Bytes.t;
      (* ready times, free lanes, waiting heaps, pending counts, events *)
  a_mk : float array;  (* 1 slot: the makespan, unboxed *)
  a_in_use : bool Atomic.t;
      (* Guards against concurrent or reentrant runs on one arena, which
         would silently corrupt the working arrays. Atomic so the
         acquire is race-free across domains. *)
}

let arena () =
  {
    a_start = [||];
    a_finish = [||];
    a_busy = [||];
    a_work = Bytes.empty;
    a_mk = Array.make 1 0.;
    a_in_use = Atomic.make false;
  }

(* Per-domain scratch arena: the default when callers don't pass one.
   Domain-local so concurrent planners (e.g. tuning probes fanned across
   a Pool) never share mutable engine state. *)
let scratch_key = Domain.DLS.new_key arena
let scratch_arena () = Domain.DLS.get scratch_key

(* [events] is the event heap's capacity, which must bound the run's
   peak (see [lane_events]). *)
let size_arena a p ~events =
  if Array.length a.a_start <> p.p_n then begin
    a.a_start <- Array.create_float p.p_n;
    a.a_finish <- Array.create_float p.p_n
  end;
  if Array.length a.a_busy <> p.p_n_res then a.a_busy <- Array.create_float p.p_n_res;
  let bytes = p.p_work_bytes + (16 * events) in
  if Bytes.length a.a_work < bytes then a.a_work <- Bytes.create bytes

(* ------------------------------------------------------------------ *)
(* Fault hook: the retry branch of the event loop, which only [Fault.run]
   drives. [no_faults] is the sentinel for a run without one. Field order
   is shared with engine_stubs.c (its H_ positions). *)

type fault_hook = {
  attempt : int -> int -> bool;
  io : float array;
  occ : float array;
  max_attempts : int;
}

let no_faults = { attempt = (fun _ _ -> true); io = [||]; occ = [||]; max_attempts = 1 }

(* The event loop (engine_stubs.c): resets the arena for the schedule,
   dispatches every event and sums the busy times. Returns -1, the first
   op that never became ready, or -2 if the event heap filled up (only a
   fault hook that overruns its [max_attempts] can fill it). The flags
   are 1 for [`Fair], 2 to record, 4 to decide attempts through the
   hook. *)
external event_loop : schedule -> arena -> Recorder.t -> fault_hook -> int -> int
  = "blink_engine_run"

let exec ~faults ~policy ~telemetry ~recorder a p =
  let t_span = Telemetry.now_s telemetry in
  if Atomic.exchange a.a_in_use true then
    invalid_arg
      "Engine.run_prepared: arena already in use (concurrent or reentrant \
       run on one arena)";
  let events =
    if faults == no_faults then p.p_events
    else
      p.p_n
      + lane_events ~lanes:p.p_sched.s_lanes ~wait_off:p.p_sched.s_wait_off
          ~attempts:faults.max_attempts
  in
  size_arena a p ~events;
  let flags =
    (match policy with `Fair -> 1 | `Stream_priority -> 0)
    lor (if recorder != Recorder.none then 2 else 0)
    lor if faults != no_faults then 4 else 0
  in
  let stuck =
    match event_loop p.p_sched a recorder faults flags with
    | stuck -> stuck
    | exception e ->
        (* Only a fault hook raises (an unrecoverable op). *)
        let bt = Printexc.get_raw_backtrace () in
        Atomic.set a.a_in_use false;
        Printexc.raise_with_backtrace e bt
  in
  (* Every op must have run; a cycle would leave one unfinished
     (impossible by construction, but guard against programmer error). *)
  if stuck <> -1 then begin
    Atomic.set a.a_in_use false;
    if stuck = -2 then
      invalid_arg "Engine.run_faulted: the hook made more attempts than its max_attempts";
    invalid_arg (Printf.sprintf "Engine.run: op %d never became ready" stuck)
  end;
  let n = p.p_n in
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
