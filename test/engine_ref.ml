(* The reference event loop: the OCaml dispatch [Engine.run_prepared]
   ran before the loop moved to C, kept here the way [Semantics.Ref]
   keeps the float-array data path. It replays a prepared schedule
   through the [Pqueue] heaps into fresh arrays; the tests demand that
   the engine's result, recorder ring and fault-hook calls match it bit
   for bit. *)

module E = Blink_sim.Engine
module Recorder = Blink_sim.Recorder
module Events = Pqueue.Float_int
module Waitq = Pqueue.Float_int_int

let run ?(policy = `Fair) ?(recorder = Recorder.none) ?faults p =
  let s = E.schedule p in
  let n = Array.length s.E.s_res_of and n_res = Array.length s.E.s_lanes in
  let start = Array.make n nan and finish = Array.make n nan in
  (* Initial ready time of every op is its resource's pipeline latency. *)
  let ready = Array.copy s.E.s_lat and pending = Array.copy s.E.s_pending0 in
  let busy = Array.make n_res 0. and lanes = Array.copy s.E.s_lanes in
  let mk = ref 0. in
  let events = Events.create () in
  let wait = Array.init n_res (fun _ -> Waitq.create ()) in
  let estaged = Events.staged events in
  let fair = match policy with `Fair -> true | `Stream_priority -> false in
  let rec_on = recorder != Recorder.none in
  (* The tail every dispatch shares once an op's service is fixed: its
     begin/end recorder pair, the makespan and the release of its
     dependents. [skip] is one packed edge to leave alone (a fused
     chain's inline successor), or -1. *)
  let finish_op id skip =
    let fin = finish.(id) in
    if rec_on then begin
      let r = s.E.s_res_of.(id) in
      let h = recorder.Recorder.head in
      let mask = recorder.Recorder.mask in
      let i = h land mask in
      recorder.Recorder.ev_kind.(i) <- 0;
      recorder.Recorder.ev_op.(i) <- id;
      recorder.Recorder.ev_res.(i) <- r;
      recorder.Recorder.ev_time.(i) <- start.(id);
      let j = (h + 1) land mask in
      recorder.Recorder.ev_kind.(j) <- 1;
      recorder.Recorder.ev_op.(j) <- id;
      recorder.Recorder.ev_res.(j) <- r;
      recorder.Recorder.ev_time.(j) <- fin;
      recorder.Recorder.head <- h + 2
    end;
    if fin > !mk then mk := fin;
    for e = s.E.s_dep_off.(id) to s.E.s_dep_off.(id + 1) - 1 do
      let packed = s.E.s_dep.(e) in
      if packed <> skip then begin
        let dep = packed lsr 1 in
        let candidate = if packed land 1 = 1 then fin else fin +. s.E.s_lat.(dep) in
        if candidate > ready.(dep) then ready.(dep) <- candidate;
        let pend = pending.(dep) - 1 in
        pending.(dep) <- pend;
        if pend = 0 then begin
          estaged.(0) <- ready.(dep);
          Events.add_staged events dep
        end
      end
    done
  in
  let rec fused_member id =
    finish.(id) <- start.(id) +. s.E.s_dur.(id);
    let next = s.E.s_fuse_next.(id) in
    if next < 0 then begin
      (* Last member: release the chain's lane before the dependents
         fan-out, where the unfused dispatch pushes its lane_free. *)
      estaged.(0) <- start.(id) +. s.E.s_occ.(id);
      Events.add_staged events (-1 - s.E.s_res_of.(id))
    end;
    finish_op id ((next lsl 1) lor 1);
    if next >= 0 then begin
      start.(next) <- finish.(id);
      fused_member next
    end
  in
  let start_op id =
    let t = estaged.(0) in
    start.(id) <- t;
    let r = s.E.s_res_of.(id) in
    if s.E.s_fuse_len.(id) > 1 then begin
      lanes.(r) <- lanes.(r) - 1;
      fused_member id
    end
    else
      match faults with
      | Some (h : E.fault_hook) when r >= 0 ->
          let io = h.E.io in
          io.(0) <- t;
          io.(1) <- s.E.s_dur.(id);
          io.(2) <- s.E.s_occ.(id);
          let served = h.E.attempt id r in
          lanes.(r) <- lanes.(r) - 1;
          estaged.(0) <- io.(0);
          Events.add_staged events (-1 - r);
          if served then begin
            finish.(id) <- io.(1);
            finish_op id (-1)
          end
          else begin
            estaged.(0) <- io.(1);
            Events.add_staged events id
          end
      | Some _ | None ->
          finish.(id) <- t +. s.E.s_dur.(id);
          if r >= 0 then begin
            lanes.(r) <- lanes.(r) - 1;
            (* Lane_free events are encoded as negative values (-1 - r). *)
            estaged.(0) <- t +. s.E.s_occ.(id);
            Events.add_staged events (-1 - r)
          end;
          finish_op id (-1)
  in
  Array.iter
    (fun id ->
      estaged.(0) <- ready.(id);
      Events.add_staged events id)
    s.E.s_sources;
  while not (Events.is_empty events) do
    let v = Events.pop_staged events in
    if v >= 0 then begin
      let r = s.E.s_res_of.(v) in
      if r < 0 || lanes.(r) > 0 then start_op v
      else begin
        let w = wait.(r) in
        (Waitq.staged w).(0) <- (if fair then estaged.(0) else 0.);
        Waitq.add_staged w s.E.s_stream.(v) v
      end
    end
    else begin
      let r = -1 - v in
      lanes.(r) <- lanes.(r) + 1;
      (* The waitq's pop leaves [estaged.(0)], the event time, in place
         for [start_op]. *)
      if not (Waitq.is_empty wait.(r)) then start_op (Waitq.pop_staged wait.(r))
    end
  done;
  Array.iteri
    (fun i f ->
      if Float.is_nan f then
        invalid_arg (Printf.sprintf "Engine.run: op %d never became ready" i))
    finish;
  let occ = match faults with Some h -> h.E.occ | None -> s.E.s_occ in
  for id = 0 to n - 1 do
    let r = s.E.s_res_of.(id) in
    if r >= 0 then busy.(r) <- busy.(r) +. occ.(id)
  done;
  { E.makespan = !mk; finish; start; busy }
