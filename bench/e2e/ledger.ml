(* In-memory span recorder for the traced pass. The benchmark opens a
   span around each public call it makes into a layer; spans nest through
   an explicit stack, and every span of one op carries that op's request
   id. Nothing is written until the workload ends. *)

module Json = Blink_telemetry.Json

type span = {
  mutable name : string;
  request : int;
  parent : int;  (** index of the enclosing span, -1 for a root *)
  start : float;
  mutable stop : float;
}

type t = {
  clock : unit -> float;
  mutable spans : span array;
  mutable n : int;
  mutable stack : int list;
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; spans = [||]; n = 0; stack = [] }

let push t s =
  if t.n = Array.length t.spans then begin
    let grown = Array.make (max 256 (2 * t.n)) s in
    Array.blit t.spans 0 grown 0 t.n;
    t.spans <- grown
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

(* Run [f] inside a span named [name]. A root span takes [request]
   (default -1); a nested span inherits its parent's. [relabel] renames
   the span from [f]'s result, for calls whose layer is only known
   afterwards (a plan lookup that turned out to be a build). *)
let span t ?request ?relabel name f =
  let parent = match t.stack with [] -> -1 | p :: _ -> p in
  let request =
    match (request, parent) with
    | Some r, _ -> r
    | None, -1 -> -1
    | None, p -> t.spans.(p).request
  in
  let i = push t { name; request; parent; start = t.clock (); stop = nan } in
  t.stack <- i :: t.stack;
  let x =
    Fun.protect
      ~finally:(fun () ->
        t.spans.(i).stop <- t.clock ();
        t.stack <- List.tl t.stack)
      f
  in
  Option.iter (fun label -> t.spans.(i).name <- label x) relabel;
  x

let spans t = Array.sub t.spans 0 t.n

let rec root_of spans i =
  if spans.(i).parent < 0 then i else root_of spans spans.(i).parent

let in_tree ?root spans i =
  match root with
  | None -> true
  | Some name -> String.equal spans.(root_of spans i).name name

(* Self time: a span's duration minus the part of its interval that its
   children cover. Children are clipped to the parent and their union is
   taken, so overlapping or overhanging children are never counted
   twice. *)
let self_times spans =
  let n = Array.length spans in
  let children = Array.make n [] in
  Array.iteri
    (fun i s ->
      if s.parent >= 0 then children.(s.parent) <- i :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      let clipped =
        List.filter_map
          (fun c ->
            let a = Float.max s.start spans.(c).start
            and b = Float.min s.stop spans.(c).stop in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) clipped
      in
      s.stop -. s.start -. covered)
    spans

(* Summed self time per span name, in order of first appearance; [root]
   keeps only the trees whose root span has that name. *)
let self_by_name ?root spans =
  let self = self_times spans in
  let order = ref [] and sums = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      if in_tree ?root spans i then
        match Hashtbl.find_opt sums s.name with
        | Some r -> r := !r +. self.(i)
        | None ->
            order := s.name :: !order;
            Hashtbl.add sums s.name (ref self.(i)))
    spans;
  List.rev_map (fun name -> (name, !(Hashtbl.find sums name))) !order

let durations ~name spans =
  Array.to_list spans
  |> List.filter (fun s -> String.equal s.name name)
  |> List.map (fun s -> s.stop -. s.start)
  |> Array.of_list

(* Share of traced op time that no layer span accounts for: the roots'
   own self time over their total duration. *)
let residual_frac ?root spans =
  let self = self_times spans in
  let own = ref 0. and total = ref 0. in
  Array.iteri
    (fun i s ->
      if s.parent < 0 && in_tree ?root spans i then begin
        own := !own +. self.(i);
        total := !total +. (s.stop -. s.start)
      end)
    spans;
  if !total <= 0. then 0. else !own /. !total

(* Chrome trace-event rendering ("X" complete events, microseconds since
   [origin]) on process track [pid]. *)
let chrome_events ~pid ~origin spans =
  Array.to_list
    (Array.mapi
       (fun i s ->
         Json.Obj
           [
             ("name", Json.str s.name);
             ("cat", Json.str "e2e");
             ("ph", Json.str "X");
             ("ts", Json.float ((s.start -. origin) *. 1e6));
             ("dur", Json.float ((s.stop -. s.start) *. 1e6));
             ("pid", Json.int pid);
             ("tid", Json.int 0);
             ( "args",
               Json.Obj
                 [
                   ("span", Json.int i);
                   ("parent", Json.int s.parent);
                   ("request", Json.int s.request);
                 ] );
           ])
       spans)
