type attribution = {
  path : Trace.span list;
  makespan : float;
  transfer_s : float;
  compute_s : float;
  delay_s : float;
  wait_s : float;
  per_resource : (int * float) list;
}

let attribute prog (r : Engine.result) =
  let path = Trace.critical_path prog r in
  let makespan = r.Engine.makespan in
  let transfer_s = ref 0. and compute_s = ref 0. and delay_s = ref 0. in
  let per_res = Hashtbl.create 16 in
  let covered = ref 0. in
  List.iter
    (fun (s : Trace.span) ->
      let d = s.Trace.finish -. s.Trace.start in
      covered := !covered +. d;
      let o = Program.op prog s.Trace.op in
      (match o.Program.kind with
      | Program.Transfer _ -> transfer_s := !transfer_s +. d
      | Program.Compute _ -> compute_s := !compute_s +. d
      | Program.Delay _ -> delay_s := !delay_s +. d);
      match Program.resource_of_op o with
      | Some res ->
          let prev = Option.value (Hashtbl.find_opt per_res res) ~default:0. in
          Hashtbl.replace per_res res (prev +. d)
      | None -> ())
    path;
  (* Spans on the chain never overlap (each starts no earlier than its
     predecessor's finish), so everything not inside a span is waiting:
     lane queueing, pipeline latency, and the lead-in before the chain's
     first op. *)
  let wait_s = Float.max 0. (makespan -. !covered) in
  let per_resource =
    Hashtbl.fold (fun res d acc -> (res, d) :: acc) per_res []
    |> List.sort (fun (ra, da) (rb, db) ->
           match compare db da with 0 -> compare ra rb | c -> c)
  in
  {
    path;
    makespan;
    transfer_s = !transfer_s;
    compute_s = !compute_s;
    delay_s = !delay_s;
    wait_s;
    per_resource;
  }

type link_report = {
  resource : int;
  busy_s : float;
  utilization : float;
  slack_s : float;
  on_path : bool;
}

let links ~resources prog (r : Engine.result) =
  let on_path = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      match Program.resource_of_op (Program.op prog s.Trace.op) with
      | Some res -> Hashtbl.replace on_path res ()
      | None -> ())
    (Trace.critical_path prog r);
  let makespan = r.Engine.makespan in
  Array.to_list resources
  |> List.mapi (fun i (res : Engine.resource) ->
         let busy_s = r.Engine.busy.(i) in
         let lanes = Float.of_int res.Engine.lanes in
         let utilization =
           if makespan <= 0. then 0. else busy_s /. (lanes *. makespan)
         in
         {
           resource = i;
           busy_s;
           utilization;
           slack_s = Float.max 0. (makespan -. (busy_s /. lanes));
           on_path = Hashtbl.mem on_path i;
         })
  |> List.sort (fun a b ->
         match compare b.utilization a.utilization with
         | 0 -> compare a.resource b.resource
         | c -> c)
