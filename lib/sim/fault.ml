module Telemetry = Blink_telemetry.Telemetry

type event =
  | Degrade of { res : int; at : float; factor : float }
  | Fail of { res : int; at : float }
  | Flaky of { res : int; from_s : float; until_s : float }

type retry = { timeout_s : float; backoff_s : float; max_attempts : int }

let default_retry = { timeout_s = 1e-3; backoff_s = 5e-4; max_attempts = 4 }

type outcome = {
  timing : Engine.result;
  retries : int;
  faulted_ops : int;
}

exception Unrecoverable of { op : int; resource : int; attempts : int }

(* Per-resource fault state, folded once from the event list: first death
   time, flaky windows, and a piecewise-constant rate multiplier (event
   times paired with the cumulative factor in force from that time on). *)
type res_faults = {
  fail_at : float;
  flaky : (float * float) list;  (* sorted by window start *)
  degr_t : float array;  (* ascending event times *)
  degr_m : float array;  (* cumulative multiplier from degr_t.(i) on *)
}

let healthy = { fail_at = infinity; flaky = []; degr_t = [||]; degr_m = [||] }

let fold_events ~n_res events =
  let faults = Array.make n_res healthy in
  let check_res r =
    if r < 0 || r >= n_res then
      invalid_arg (Printf.sprintf "Fault.run: event on unknown resource %d" r)
  in
  let degrades = Array.make n_res [] in
  List.iter
    (fun ev ->
      match ev with
      | Degrade { res; at; factor } ->
          check_res res;
          if at < 0. then invalid_arg "Fault.run: negative event time";
          if factor <= 0. || factor > 1. then
            invalid_arg "Fault.run: degradation factor must be in (0, 1]";
          degrades.(res) <- (at, factor) :: degrades.(res)
      | Fail { res; at } ->
          check_res res;
          if at < 0. then invalid_arg "Fault.run: negative event time";
          let f = faults.(res) in
          faults.(res) <- { f with fail_at = Float.min f.fail_at at }
      | Flaky { res; from_s; until_s } ->
          check_res res;
          if from_s < 0. || until_s <= from_s then
            invalid_arg "Fault.run: empty flaky window";
          let f = faults.(res) in
          faults.(res) <- { f with flaky = (from_s, until_s) :: f.flaky })
    events;
  Array.iteri
    (fun r f -> faults.(r) <- { f with flaky = List.sort compare f.flaky })
    faults;
  Array.iteri
    (fun r ds ->
      if ds <> [] then begin
        let ds = List.sort compare ds in
        let times = Array.of_list (List.map fst ds) in
        let mult = Array.make (Array.length times) 1. in
        let m = ref 1. in
        List.iteri
          (fun i (_, factor) ->
            m := !m *. factor;
            mult.(i) <- !m)
          ds;
        faults.(r) <- { faults.(r) with degr_t = times; degr_m = mult }
      end)
    degrades;
  faults

let is_flaky f t = List.exists (fun (from_s, until_s) -> t >= from_s && t < until_s) f.flaky

(* Absolute finish time of [work] seconds of nominal-rate service starting
   at [t0], integrating the piecewise-constant rate multiplier. With no
   degradations this is exactly [t0 +. work] (the engine's arithmetic). *)
let service_finish f t0 work =
  let n = Array.length f.degr_t in
  if n = 0 then t0 +. work
  else begin
    (* Multiplier already in force at t0. *)
    let i0 = ref 0 in
    while !i0 < n && f.degr_t.(!i0) <= t0 do incr i0 done;
    let rec go t w m i =
      if w <= 0. then t
      else if i >= n then t +. (w /. m)
      else begin
        let span = f.degr_t.(i) -. t in
        let done_ = span *. m in
        if w <= done_ then t +. (w /. m)
        else go f.degr_t.(i) (w -. done_) f.degr_m.(i) (i + 1)
      end
    in
    let m0 = if !i0 = 0 then 1. else f.degr_m.(!i0 - 1) in
    go t0 work m0 !i0
  end

let run ?(policy = `Fair) ?(telemetry = Telemetry.disabled) ?(retry = default_retry)
    ?(events = []) ?(recorder = Recorder.none) ~resources prog =
  if retry.timeout_s < 0. || retry.backoff_s < 0. || retry.max_attempts < 1 then
    invalid_arg "Fault.run: bad retry policy";
  (* Unfused: fused chains assume fixed durations, which faults break. *)
  let p = Engine.prepare ~fuse:false ~resources prog in
  let faults = fold_events ~n_res:(Array.length resources) events in
  Telemetry.incr telemetry ~by:(List.length events) "fault.injected";
  let n = Engine.prepared_ops p in
  let attempts = Array.make n 0 in
  let retries = ref 0 in
  let rec_on = recorder != Recorder.none in
  (* Automatic post-mortem: a run that retried or failed dumps its
     flight-recorder window into the Chrome exporter, so the retry storm
     is visible next to the planning spans without any caller action. *)
  let dump () =
    if rec_on && Telemetry.tracing telemetry then
      ignore (Recorder.dump_slices recorder telemetry)
  in
  let timing =
    match events with
    | [] -> Engine.run_prepared ~policy ~arena:(Engine.arena ()) ~recorder p
    | _ ->
        let io = Array.make 3 0. and occ = Array.make n 0. in
        (* All fault times are known up front, so every attempt's outcome
           is decided at dispatch. *)
        let attempt id r =
          let t = io.(0) and dur = io.(1) in
          let f = faults.(r) in
          let fin = service_finish f t dur in
          let detected =
            if t >= f.fail_at || is_flaky f t then t +. retry.timeout_s
            else if fin > f.fail_at then f.fail_at +. retry.timeout_s
            else nan
          in
          let gap = resources.(r).Engine.gap in
          if Float.is_nan detected then begin
            (* An undegraded service keeps the engine's own occupancy, so
               lane release and busy time match [Engine.run] bit for bit. *)
            let o = if fin = t +. dur then io.(2) else Float.max (fin -. t) gap in
            occ.(id) <- occ.(id) +. o;
            io.(0) <- t +. o;
            io.(1) <- fin;
            true
          end
          else begin
            (* The stalled attempt holds its lane until the timeout fires. *)
            let o = Float.max (detected -. t) gap in
            occ.(id) <- occ.(id) +. o;
            attempts.(id) <- attempts.(id) + 1;
            if rec_on then
              Recorder.record recorder Recorder.Retry ~op:id ~res:r ~time:detected;
            if attempts.(id) >= retry.max_attempts then begin
              dump ();
              raise (Unrecoverable { op = id; resource = r; attempts = attempts.(id) })
            end;
            incr retries;
            Telemetry.incr telemetry "engine.retries";
            io.(0) <- t +. o;
            io.(1) <-
              detected +. (retry.backoff_s *. (2. ** Float.of_int (attempts.(id) - 1)));
            false
          end
        in
        Engine.run_faulted ~policy ~recorder { Engine.attempt; io; occ } p
  in
  if !retries > 0 then dump ();
  {
    timing;
    retries = !retries;
    faulted_ops = Array.fold_left (fun acc k -> if k > 0 then acc + 1 else acc) 0 attempts;
  }
