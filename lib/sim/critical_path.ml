type span = {
  op : int;
  start : float;
  finish : float;
  via : [ `Dep | `Stream | `Start ];
}

type link_report = {
  resource : int;
  busy_s : float;
  utilization : float;
  slack_s : float;
  on_path : bool;
}

type attribution = {
  path : span list;
  makespan : float;
  transfer_s : float;
  compute_s : float;
  delay_s : float;
  wait_s : float;
  per_resource : (int * float) list;
  links : link_report list;
}

let utilization ~resources (r : Engine.result) dst =
  let mk = r.Engine.makespan in
  let best = ref (-1) and best_u = ref neg_infinity in
  for i = 0 to Array.length resources - 1 do
    let lanes = Float.of_int resources.(i).Engine.lanes in
    let u = if mk <= 0. then 0. else r.Engine.busy.(i) /. (lanes *. mk) in
    dst.(i) <- u;
    if u > !best_u then begin
      best := i;
      best_u := u
    end
  done;
  !best

(* The chain ending at the last-finishing op: at each step, follow the
   predecessor (stream predecessor first, then the deps in order) that
   finished last; the first of several equal finishes wins. *)
let walk prog (r : Engine.result) =
  let n = Program.n_ops prog in
  if n = 0 then []
  else begin
    let pred = Array.make n (-1) in
    Program.iter_stream_edges (fun ~pred:a ~succ:b -> pred.(b) <- a) prog;
    let finish = r.Engine.finish in
    let last = ref 0 in
    for i = 1 to n - 1 do
      if finish.(i) > finish.(!last) then last := i
    done;
    let rec go op acc =
      let best = ref (-1) and via = ref `Start in
      let consider c kind =
        if !best < 0 || finish.(c) > finish.(!best) then begin
          best := c;
          via := kind
        end
      in
      if pred.(op) >= 0 then consider pred.(op) `Stream;
      List.iter (fun d -> consider d `Dep) (Program.op prog op).Program.deps;
      let span =
        { op; start = r.Engine.start.(op); finish = finish.(op); via = !via }
      in
      if !best < 0 then span :: acc else go !best (span :: acc)
    in
    go !last []
  end

let attribute ~resources prog (r : Engine.result) =
  let path = walk prog r in
  let makespan = r.Engine.makespan in
  let transfer_s = ref 0. and compute_s = ref 0. and delay_s = ref 0. in
  let per_res = Hashtbl.create 16 in
  let covered = ref 0. in
  List.iter
    (fun s ->
      let d = s.finish -. s.start in
      covered := !covered +. d;
      let o = Program.op prog s.op in
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
  (* Largest value first, ties by lowest resource id. *)
  let desc ra va rb vb = match compare vb va with 0 -> compare ra rb | c -> c in
  let per_resource =
    Hashtbl.fold (fun res d acc -> (res, d) :: acc) per_res []
    |> List.sort (fun (ra, da) (rb, db) -> desc ra da rb db)
  in
  let util = Array.make (Array.length resources) 0. in
  ignore (utilization ~resources r util);
  let links =
    List.init (Array.length resources) (fun i ->
        let busy_s = r.Engine.busy.(i) in
        let lanes = Float.of_int resources.(i).Engine.lanes in
        {
          resource = i;
          busy_s;
          utilization = util.(i);
          slack_s = Float.max 0. (makespan -. (busy_s /. lanes));
          on_path = Hashtbl.mem per_res i;
        })
    |> List.sort (fun a b ->
           desc a.resource a.utilization b.resource b.utilization)
  in
  {
    path;
    makespan;
    transfer_s = !transfer_s;
    compute_s = !compute_s;
    delay_s = !delay_s;
    wait_s;
    per_resource;
    links;
  }
