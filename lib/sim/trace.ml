type utilization = { resource : int; busy : float; fraction : float }

let utilizations ~resources (r : Engine.result) =
  let out = ref [] in
  Array.iteri
    (fun i busy ->
      let lanes = Float.of_int resources.(i).Engine.lanes in
      let fraction =
        if r.Engine.makespan <= 0. then 0.
        else busy /. (lanes *. r.Engine.makespan)
      in
      out := { resource = i; busy; fraction } :: !out)
    r.Engine.busy;
  List.sort (fun a b -> compare b.fraction a.fraction) !out

let bottleneck ~resources result =
  match utilizations ~resources result with
  | top :: _ -> Some top.resource
  | [] -> None

type span = {
  op : int;
  start : float;
  finish : float;
  via : [ `Dep | `Stream | `Start ];
}

let stream_predecessors prog =
  let n = Program.n_ops prog in
  let pred = Array.make n (-1) in
  Program.iter_stream_edges (fun ~pred:a ~succ:b -> pred.(b) <- a) prog;
  pred

let critical_path prog (r : Engine.result) =
  let n = Program.n_ops prog in
  if n = 0 then []
  else begin
    let pred = stream_predecessors prog in
    let last = ref 0 in
    for i = 1 to n - 1 do
      if r.Engine.finish.(i) > r.Engine.finish.(!last) then last := i
    done;
    let rec walk op acc =
      let o = Program.op prog op in
      let candidates =
        (if pred.(op) >= 0 then [ (pred.(op), `Stream) ] else [])
        @ List.map (fun d -> (d, `Dep)) o.Program.deps
      in
      let best =
        List.fold_left
          (fun acc (c, kind) ->
            match acc with
            | Some (b, _) when r.Engine.finish.(b) >= r.Engine.finish.(c) -> acc
            | _ -> Some (c, kind))
          None candidates
      in
      match best with
      | Some (b, kind) ->
          let span =
            { op; start = r.Engine.start.(op); finish = r.Engine.finish.(op); via = kind }
          in
          walk b (span :: acc)
      | None ->
          { op; start = r.Engine.start.(op); finish = r.Engine.finish.(op); via = `Start }
          :: acc
    in
    walk !last []
  end

let to_chrome_json prog (r : Engine.result) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  let first = ref true in
  Program.iter_ops
    (fun o ->
      let id = o.Program.id in
      let tid = match Program.resource_of_op o with Some res -> res | None -> -1 in
      let name =
        match o.Program.kind with
        | Program.Transfer { bytes; _ } -> Printf.sprintf "xfer#%d %.0fB" id bytes
        | Program.Compute { bytes; _ } -> Printf.sprintf "comp#%d %.0fB" id bytes
        | Program.Delay { seconds } -> Printf.sprintf "delay#%d %.0fus" id (seconds *. 1e6)
      in
      if not !first then Buffer.add_string buf ",";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           {|{"name":"%s","cat":"op","ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d,"args":{"stream":%d}}|}
           name
           (r.Engine.start.(id) *. 1e6)
           ((r.Engine.finish.(id) -. r.Engine.start.(id)) *. 1e6)
           tid o.Program.stream))
    prog;
  Buffer.add_string buf "]";
  Buffer.contents buf
