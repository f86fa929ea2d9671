module Server = Blink_topology.Server
module Link = Blink_topology.Link
module Automorphism = Blink_graph.Automorphism

(* Composite pair label over an allocation's GPU tuple: everything the
   fabric/graph construction reads off a pair. NVLink part: link-class
   tag (-1 when the pair is not directly wired), physical-link
   multiplicity, and the effective fault state (1.0 healthy, the factor
   for a degraded pair, 0.0 for a downed pair — Degraded 0 is rejected by
   [Server.normalize_faults], so 0.0 is unambiguous). PCIe part: whether
   the two GPUs share a switch (0), share only a CPU (1), or sit across
   the QPI (2) — the full route-relevant relation, since the fabric only
   materializes switches with allocated members. *)
type label = int * int * float * int

type t = {
  class_digest : string;
  id : string;
  canonical : (int array * Server.faults) option;
  canonical_root : int option;
  is_canonical : bool;
}

let class_digest t = t.class_digest
let id t = t.id
let is_canonical t = t.is_canonical
let canonical_alloc t = t.canonical
let canonical_root t = t.canonical_root
let same_class a b = String.equal a.class_digest b.class_digest

let state_of faults u v =
  match Server.fault_state faults u v with
  | None -> 1.0
  | Some (Server.Degraded f) -> f
  | Some Server.Down -> 0.0

let pair_label server faults u v : label =
  let nv_tag, lanes, state =
    match Server.pair_links server u v with
    | None -> (-1, 0, 1.0)
    | Some (kind, n) -> (Link.tag kind, n, state_of faults u v)
  in
  let su = Server.switch_of_gpu server u
  and sv = Server.switch_of_gpu server v in
  let pcie =
    if su = sv then 0
    else if Server.cpu_of_switch server su = Server.cpu_of_switch server sv
    then 1
    else 2
  in
  (nv_tag, lanes, state, pcie)

let add_label b ((tag, lanes, state, pcie) : label) =
  Printf.bprintf b "%d,%d,%h,%d;" tag lanes state pcie

let add_params b ~epsilon ~threshold =
  let p = function None -> Buffer.add_string b "-|" | Some f -> Printf.bprintf b "%h|" f in
  p epsilon;
  p threshold

(* Lexicographically-least tuple of distinct server GPUs whose pair
   structure realizes the canonical matrix [m] — the class
   representative. Structural parts (link class, lanes, PCIe relation)
   must match exactly; the fault state is imposed on the representative
   afterwards, so it only requires an underlying link to exist, which the
   matching link class already guarantees. Greedy depth-first search with
   candidates in ascending GPU order: the first complete assignment is
   the least one. *)
exception Found
exception Budget

let canonical_member server (m : label array array) k ~budget =
  let n = server.Server.n_gpus in
  let nodes = ref 0 in
  let tuple = Array.make (max k 1) (-1) in
  let used = Array.make n false in
  let structural ((tag, lanes, _, pcie) : label) = (tag, lanes, pcie) in
  let rec go i =
    if i = k then raise Found
    else
      for c = 0 to n - 1 do
        if not used.(c) then begin
          incr nodes;
          if !nodes > budget then raise Budget;
          let ok = ref true in
          for j = 0 to i - 1 do
            if
              !ok
              && structural (pair_label server [] tuple.(j) c)
                 <> structural m.(j).(i)
            then ok := false
          done;
          if !ok then begin
            tuple.(i) <- c;
            used.(c) <- true;
            go (i + 1);
            used.(c) <- false;
            tuple.(i) <- -1
          end
        end
      done
  in
  if k = 0 then Some [||]
  else
    match go 0 with
    | () -> None
    | exception Found -> Some (Array.sub tuple 0 k)
    | exception Budget -> None

let faults_of_matrix (m : label array array) (tuple : int array) k =
  let acc = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let tag, _, state, _ = m.(i).(j) in
      if tag >= 0 && state < 1.0 then
        let key = (min tuple.(i) tuple.(j), max tuple.(i) tuple.(j)) in
        let st = if state = 0.0 then Server.Down else Server.Degraded state in
        acc := (key, st) :: !acc
    done
  done;
  List.sort compare (Server.normalize_faults !acc)

let search_budget = 60_000

(* Memoized on the exact realization (server wiring, GPU tuple, faults,
   root, planner parameters): the cluster service fingerprints every
   slice of every job, but distinct realizations number in the hundreds. *)
(* Realization memo. A slot is [Pending] while some domain computes the
   fingerprint, so concurrent requests for the same realization wait on
   the condition instead of recomputing; [Ready] slots are evicted a
   bounded batch at a time in insertion order (the FIFO queue holds one
   record per Ready slot), never by wiping the table. *)
type slot = Ready of t | Pending

let memo : (string, slot) Hashtbl.t = Hashtbl.create 256
let memo_fifo : string Queue.t = Queue.create ()
let memo_mutex = Mutex.create ()
let memo_ready = Condition.create ()
let memo_cap = 8192

(* Evict an eighth of the cap per overflow: old entries age out while the
   ~46-class working set of a real cluster stays resident. *)
let memo_evict_target = memo_cap - (memo_cap / 8)

(* Under [memo_mutex]. [Pending] slots hold no FIFO record and are never
   evicted — the computing domain still expects to publish them. *)
let rec memo_evict_to_target () =
  if Hashtbl.length memo > memo_evict_target && not (Queue.is_empty memo_fifo)
  then begin
    let key = Queue.pop memo_fifo in
    (match Hashtbl.find_opt memo key with
    | Some (Ready _) -> Hashtbl.remove memo key
    | Some Pending | None -> ());
    memo_evict_to_target ()
  end

let default_planner = "treegen"

(* Built on every call, memo hits included: the server part is the digest
   [Server] computed at construction, and integers skip [Printf]. Non-
   canonical ids hash these bytes, so they must stay exactly as spelled
   here. *)
let add_int b n = Buffer.add_string b (string_of_int n)

let realization_key ~planner ~epsilon ~threshold ~root server ~gpus ~faults =
  let b = Buffer.create 128 in
  Buffer.add_string b (Server.digest server);
  Buffer.add_char b '|';
  Array.iter
    (fun g ->
      add_int b g;
      Buffer.add_char b ',')
    gpus;
  Buffer.add_char b '|';
  List.iter
    (fun ((u, v), st) ->
      add_int b u;
      Buffer.add_char b '-';
      add_int b v;
      match st with
      | Server.Down -> Buffer.add_string b ":down;"
      | Server.Degraded f -> Printf.bprintf b ":%h;" f)
    faults;
  Buffer.add_char b '|';
  add_int b (match root with None -> -1 | Some r -> r);
  Buffer.add_char b '|';
  add_params b ~epsilon ~threshold;
  Buffer.add_string b "|planner:";
  Buffer.add_string b planner;
  Buffer.contents b

let compute ~planner ~epsilon ~threshold ~root server ~gpus ~faults
    ~realization =
  let k = Array.length gpus in
  let lbl i j = pair_label server faults gpus.(i) gpus.(j) in
  let perm =
    match
      Automorphism.canonical_order ~n:k ~budget:search_budget ~label:lbl ()
    with
    | Some p -> p
    | None ->
        (* Label-uniform graph blew the exact-search budget (NVSwitch-style
           fabrics): fall back to sorting positions by their label
           multiset. Deterministic and collision-free — the digest still
           hashes the matrix itself — it merely unifies fewer isomorphic
           members. *)
        let inv i =
          List.sort compare
            (List.filter_map
               (fun j -> if j = i then None else Some (lbl i j))
               (List.init k Fun.id))
        in
        List.init k Fun.id
        |> List.sort (fun a b ->
               compare (inv a, gpus.(a)) (inv b, gpus.(b)))
        |> Array.of_list
  in
  let m =
    Array.init k (fun i ->
        Array.init k (fun j ->
            if i = j then ((-2, 0, 0., 0) : label)
            else lbl perm.(i) perm.(j)))
  in
  let root_pos =
    match root with
    | None -> None
    | Some r ->
        let pos = ref (-1) in
        Array.iteri (fun i p -> if p = r then pos := i) perm;
        Some !pos
  in
  let class_digest =
    let b = Buffer.create 256 in
    Buffer.add_string b (Server.digest server);
    Printf.bprintf b "|%d|" k;
    for i = 0 to k - 1 do
      for j = 0 to k - 1 do
        if i <> j then add_label b m.(i).(j)
      done
    done;
    Printf.bprintf b "|root:%d|" (Option.value root_pos ~default:(-1));
    add_params b ~epsilon ~threshold;
    Printf.bprintf b "|planner:%s" planner;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let canonical =
    match canonical_member server m k ~budget:search_budget with
    | None -> None
    | Some tuple -> Some (tuple, faults_of_matrix m tuple k)
  in
  let is_canonical =
    match canonical with
    | None -> false
    | Some (tuple, cfaults) ->
        tuple = gpus && cfaults = faults
        && (match (root, root_pos) with
           | None, _ -> true
           | Some r, Some pos -> r = pos
           | Some _, None -> false)
  in
  let id =
    if is_canonical then class_digest
    else class_digest ^ "+" ^ Digest.to_hex (Digest.string realization)
  in
  { class_digest; id; canonical; canonical_root = root_pos; is_canonical }

let make ?(planner = default_planner) ?epsilon ?threshold ?root server ~gpus
    ~faults =
  let faults = List.sort compare (Server.normalize_faults faults) in
  let realization =
    realization_key ~planner ~epsilon ~threshold ~root server ~gpus ~faults
  in
  Mutex.lock memo_mutex;
  let rec await () =
    match Hashtbl.find_opt memo realization with
    | Some (Ready t) ->
        Mutex.unlock memo_mutex;
        t
    | Some Pending ->
        (* Another domain is computing this exact realization: wait for
           its publish instead of burning a redundant canonical-form
           search. *)
        Condition.wait memo_ready memo_mutex;
        await ()
    | None ->
        Hashtbl.replace memo realization Pending;
        Mutex.unlock memo_mutex;
        let t =
          try
            compute ~planner ~epsilon ~threshold ~root server ~gpus ~faults
              ~realization
          with e ->
            Mutex.lock memo_mutex;
            Hashtbl.remove memo realization;
            Condition.broadcast memo_ready;
            Mutex.unlock memo_mutex;
            raise e
        in
        Mutex.lock memo_mutex;
        if Hashtbl.length memo >= memo_cap then memo_evict_to_target ();
        Hashtbl.replace memo realization (Ready t);
        Queue.push realization memo_fifo;
        Condition.broadcast memo_ready;
        Mutex.unlock memo_mutex;
        t
  in
  await ()
