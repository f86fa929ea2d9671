type mem_ref = { node : int; buf : int; off : int; len : int }

type action =
  | Copy of { src : mem_ref; dst : mem_ref }
  | Reduce of { src : mem_ref; dst : mem_ref }

type kind =
  | Transfer of {
      bytes : float;
      link : int;
      bw_scale : float;
      action : action option;
    }
  | Compute of { bytes : float; engine : int; action : action option }
  | Delay of { seconds : float }

type op = { id : int; kind : kind; stream : int; deps : int list }

type t = {
  mutable ops : op array;
  mutable n : int;
  mutable streams : int list array;  (* stream -> op ids, reverse order *)
  mutable n_streams : int;
  mutable buffers : (int * int * int) list;  (* node, buf, len; reverse order *)
  buffer_lens : (int * int, int) Hashtbl.t;
  next_buf : (int, int) Hashtbl.t;  (* node -> next buffer id *)
}

let dummy = { id = -1; kind = Compute { bytes = 0.; engine = 0; action = None }; stream = 0; deps = [] }

let create () =
  {
    ops = Array.make 64 dummy;
    n = 0;
    streams = Array.make 8 [];
    n_streams = 0;
    buffers = [];
    buffer_lens = Hashtbl.create 32;
    next_buf = Hashtbl.create 8;
  }

let fresh_stream t =
  if t.n_streams = Array.length t.streams then begin
    let bigger = Array.make (2 * t.n_streams) [] in
    Array.blit t.streams 0 bigger 0 t.n_streams;
    t.streams <- bigger
  end;
  let s = t.n_streams in
  t.n_streams <- t.n_streams + 1;
  s

let add t ?(deps = []) ~stream kind =
  if stream < 0 || stream >= t.n_streams then
    invalid_arg "Program.add: unknown stream";
  List.iter
    (fun d ->
      if d < 0 || d >= t.n then invalid_arg "Program.add: forward dependency")
    deps;
  (match kind with
  | Transfer { bytes; bw_scale; _ } ->
      if bytes < 0. || bw_scale <= 0. then
        invalid_arg "Program.add: bad transfer parameters"
  | Compute { bytes; _ } ->
      if bytes < 0. then invalid_arg "Program.add: negative bytes"
  | Delay { seconds } ->
      if seconds < 0. then invalid_arg "Program.add: negative delay");
  if t.n = Array.length t.ops then begin
    let bigger = Array.make (2 * t.n) dummy in
    Array.blit t.ops 0 bigger 0 t.n;
    t.ops <- bigger
  end;
  let id = t.n in
  t.ops.(id) <- { id; kind; stream; deps };
  t.n <- t.n + 1;
  t.streams.(stream) <- id :: t.streams.(stream);
  id

let declare_buffer t ~node ~len =
  if len < 0 then invalid_arg "Program.declare_buffer: negative length";
  let buf = Option.value (Hashtbl.find_opt t.next_buf node) ~default:0 in
  Hashtbl.replace t.next_buf node (buf + 1);
  Hashtbl.replace t.buffer_lens (node, buf) len;
  t.buffers <- (node, buf, len) :: t.buffers;
  buf

let buffer_len t ~node ~buf =
  match Hashtbl.find_opt t.buffer_lens (node, buf) with
  | Some len -> len
  | None ->
      invalid_arg
        (Printf.sprintf "Program.buffer_len: unknown buffer (%d,%d)" node buf)

let buffers t = List.rev t.buffers

let resource_of_op o =
  match o.kind with
  | Transfer { link; _ } -> Some link
  | Compute { engine; _ } -> Some engine
  | Delay _ -> None

let n_ops t = t.n

let op t id =
  if id < 0 || id >= t.n then invalid_arg "Program.op: bad id";
  t.ops.(id)

let ops t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.ops.(i) :: acc) in
  go (t.n - 1) []

let n_streams t = t.n_streams

let stream_ops t s =
  if s < 0 || s >= t.n_streams then invalid_arg "Program.stream_ops: bad stream";
  List.rev t.streams.(s)

let iter_ops f t =
  for i = 0 to t.n - 1 do
    f t.ops.(i)
  done

(* Streams store op ids in reverse submission order, so folding from the
   head visits each (pred, succ) pair tail-to-head without allocating a
   reversed list. Every op has at most one stream successor, so callers
   that accumulate per-predecessor state see each op at most once. *)
let iter_stream_edges f t =
  for s = 0 to t.n_streams - 1 do
    match t.streams.(s) with
    | [] -> ()
    | last :: rest ->
        ignore
          (List.fold_left
             (fun succ pred ->
               f ~pred ~succ;
               pred)
             last rest)
  done

(* Ops are appended with backward-only deps and stream order follows
   submission order, so ascending op id is already a topological order. *)
let topological_order t = List.init t.n Fun.id

let pp ppf t =
  Format.fprintf ppf "@[<v>program: %d ops, %d streams" t.n t.n_streams;
  iter_ops
    (fun o ->
      match o.kind with
      | Transfer { bytes; link; bw_scale; _ } ->
          Format.fprintf ppf "@,  #%d s%d xfer %.0fB link=%d scale=%.2f deps=%s"
            o.id o.stream bytes link bw_scale
            (String.concat "," (List.map string_of_int o.deps))
      | Compute { bytes; engine; _ } ->
          Format.fprintf ppf "@,  #%d s%d comp %.0fB engine=%d deps=%s" o.id
            o.stream bytes engine
            (String.concat "," (List.map string_of_int o.deps))
      | Delay { seconds } ->
          Format.fprintf ppf "@,  #%d s%d delay %.2es deps=%s" o.id o.stream
            seconds
            (String.concat "," (List.map string_of_int o.deps)))
    t;
  Format.fprintf ppf "@]"
