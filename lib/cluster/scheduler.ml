type job = { id : int; gpus : int; duration : int }

(* Demand mix: mostly small power-of-two jobs, a tail of 8- and 16-GPU
   jobs, mirroring the shape of published multi-tenant traces. *)
let demand_of_draw x =
  if x < 0.30 then 1
  else if x < 0.55 then 2
  else if x < 0.80 then 4
  else if x < 0.95 then 8
  else 16

let generate_trace ?(seed = 42) ~n_jobs () =
  let rng = Random.State.make [| seed |] in
  List.init n_jobs (fun id ->
      let gpus = demand_of_draw (Random.State.float rng 1.) in
      (* Log-uniform residence between 20 and 400 arrivals: keeps a
         64-server cluster in the high-occupancy regime (~85%) where
         fragmentation appears. *)
      let duration =
        int_of_float (20. *. (20. ** Random.State.float rng 1.))
      in
      { id; gpus; duration })

type placement = { job : job; slices : (int * int) list }

type stats = {
  placements : placement list;
  per_server_counts : int array;
  fragmented_jobs : int;
  multi_gpu_jobs : int;
  rejected : int;
}

let simulate ?(servers = 64) jobs =
  let free = Array.make servers 8 in
  (* Departures keyed by arrival index. *)
  let departures : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let placements = ref [] in
  let rejected = ref 0 in
  List.iteri
    (fun now job ->
      (match Hashtbl.find_opt departures now with
      | Some slices ->
          List.iter (fun (s, g) -> free.(s) <- free.(s) + g) slices;
          Hashtbl.remove departures now
      | None -> ());
      let total_free = Array.fold_left ( + ) 0 free in
      if total_free < job.gpus then incr rejected
      else begin
        (* Best fit: pack into the fullest server that still holds the
           whole job (tightening fragmentation); when no server has room,
           split over the emptiest servers so the pieces are large (5+3,
           6+2, ...) — the fragments figure 3 reports. *)
        let slices = ref [] in
        let best = ref (-1) in
        Array.iteri
          (fun s f ->
            if f >= job.gpus && (!best < 0 || f < free.(!best)) then best := s)
          free;
        if !best >= 0 then begin
          free.(!best) <- free.(!best) - job.gpus;
          slices := [ (!best, job.gpus) ]
        end
        else begin
          let order =
            List.init servers Fun.id
            |> List.stable_sort (fun a b -> compare free.(b) free.(a))
          in
          let remaining = ref job.gpus in
          List.iter
            (fun s ->
              if !remaining > 0 && free.(s) > 0 then begin
                let take = min free.(s) !remaining in
                free.(s) <- free.(s) - take;
                remaining := !remaining - take;
                slices := (s, take) :: !slices
              end)
            order
        end;
        let slices = List.rev !slices in
        placements := { job; slices } :: !placements;
        let leave = now + job.duration in
        let pending = Option.value (Hashtbl.find_opt departures leave) ~default:[] in
        Hashtbl.replace departures leave (slices @ pending)
      end)
    jobs;
  let placements = List.rev !placements in
  let per_server_counts = Array.make 8 0 in
  let fragmented = ref 0 in
  let multi = ref 0 in
  List.iter
    (fun p ->
      if p.job.gpus > 1 then begin
        incr multi;
        if List.length p.slices > 1 then incr fragmented;
        List.iter
          (fun (_, g) ->
            per_server_counts.(g - 1) <- per_server_counts.(g - 1) + 1)
          p.slices
      end)
    placements;
  {
    placements;
    per_server_counts;
    fragmented_jobs = !fragmented;
    multi_gpu_jobs = !multi;
    rejected = !rejected;
  }

let fraction stats g =
  if g < 1 || g > 8 then invalid_arg "Scheduler.fraction: 1..8";
  let total = Array.fold_left ( + ) 0 stats.per_server_counts in
  if total = 0 then 0.
  else Float.of_int stats.per_server_counts.(g - 1) /. Float.of_int total

(* ------------------------------------------------------------------ *)
(* Communication capability of the fragments, via the compiled-plan layer *)

module Server = Blink_topology.Server
module Alloc = Blink_topology.Alloc
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Telemetry = Blink_telemetry.Telemetry
module Json = Blink_telemetry.Json

type slice_profile = { size : int; count : int; all_reduce_gbps : float }

(* Lexicographically-least NVLink-connected allocation of size [g] (any
   subset works on NVSwitch machines). *)
let representative_alloc server g =
  let n = server.Server.n_gpus in
  if g > n then None
  else if server.Server.nvswitch <> None then
    Some (Array.init g Fun.id)
  else begin
    let rec subsets lo size =
      if size = 0 then Seq.return []
      else
        Seq.concat
          (Seq.map
             (fun first ->
               Seq.map (fun rest -> first :: rest) (subsets (first + 1) (size - 1)))
             (Seq.init (n - lo - size + 1) (fun i -> lo + i)))
    in
    Seq.find
      (fun gpus -> Alloc.nvlink_connected server gpus)
      (subsets 0 g)
    |> Option.map Array.of_list
  end

module Fingerprint = Blink_store.Fingerprint

let profile_slices ?(server = Server.dgx1v) ?(elems = 4_000_000)
    ?(telemetry = Telemetry.disabled) stats =
  List.filter_map
    (fun g ->
      let count = stats.per_server_counts.(g - 1) in
      if count = 0 then None
      else
        let span_start = Telemetry.now_s telemetry in
        let profile =
          match representative_alloc server g with
          | None -> { size = g; count; all_reduce_gbps = 0. }
          | Some gpus ->
              (* One handle and one compiled plan per slice *shape*: every
                 further slice of this size in the trace would replay it.
                 The per-size handle shares the caller's telemetry, so one
                 registry aggregates the whole profiling sweep. *)
              let handle = Blink.create ~telemetry server ~gpus in
              let plan =
                Blink.plan ~chunk_elems:(Blink.heuristic_chunk ~elems) handle
                  Plan.All_reduce ~elems
              in
              let gbps =
                Blink.algbw_gbps ~elems
                  (Plan.execute ~data:false plan).Plan.timing
              in
              { size = g; count; all_reduce_gbps = gbps }
        in
        if Telemetry.enabled telemetry then begin
          let labels = [ ("slice_size", string_of_int g) ] in
          Telemetry.incr telemetry ~labels ~by:count "scheduler.slices";
          Telemetry.set_gauge telemetry ~labels
            "scheduler.slice.all_reduce_gbps" profile.all_reduce_gbps;
          Telemetry.span telemetry ~cat:"scheduler" ~start:span_start
            ~args:
              [
                ("slice_size", Json.int g);
                ("count", Json.int count);
                ("all_reduce_gbps", Json.float profile.all_reduce_gbps);
              ]
            (Printf.sprintf "scheduler.profile_slice_%d" g)
        end;
        Some profile)
    [ 2; 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* Long-running multi-tenant collective service: the paper's cluster
   observation (40,000 jobs collapsing into a few dozen unique topology
   classes) turned into a closed loop. Jobs from the synthetic churn
   trace are admitted against capacity and per-tenant quotas, placed at
   GPU-id granularity, and every NVLink-capable slice opens a Blink
   handle against one shared fingerprint-keyed plan store — so after the
   first job of each topology class, planning cost is a store hit. *)

type tenant_stats = {
  tenant : int;
  submitted : int;
  admitted : int;
  rejected_capacity : int;
  rejected_quota : int;
  gpu_seconds : float;
}

type histogram_summary = {
  h_count : int;
  h_mean_s : float;
  h_p95_s : float;
  h_max_s : float;
}

type tenant_observatory = {
  ob_tenant : int;
  ob_jobs : int;  (** admitted jobs contributing samples *)
  ob_latency : histogram_summary;
  ob_queue_wait : histogram_summary;
  ob_straggler_slices : int;
}

type fingerprint_class = {
  fc_class : string;
  fc_slices : int;
  fc_mean_gbps : float;
  fc_best_gbps : float;
  fc_worst_gbps : float;
  fc_stragglers : int;
}

type straggler = {
  st_tenant : int;
  st_class : string;
  st_expected_gbps : float;
  st_achieved_gbps : float;
}

type service_report = {
  jobs : int;
  admitted_jobs : int;
  rejected_capacity_jobs : int;
  rejected_quota_jobs : int;
  planned_slices : int;
  single_gpu_slices : int;
  pcie_slices : int;
  store : Blink_store.Store.stats;
  unique_fingerprints : int;
  hit_rate : float;
  mean_slice_seconds : float;
  wall_seconds : float;
  jobs_per_second : float;
  tenants : tenant_stats list;
  fairness : float;
  verified_slices : int;
  verify_mismatches : int;
  observatory : tenant_observatory list;
  classes : fingerprint_class list;
  stragglers : straggler list;
  straggler_slices : int;
  straggler_epsilon : float;
}

(* Jain's fairness index over per-tenant accumulated GPU-time:
   (sum x)^2 / (n * sum x^2), 1.0 = perfectly even. *)
let jain xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else
    let s = Array.fold_left ( +. ) 0. xs in
    let s2 = Array.fold_left (fun a x -> a +. (x *. x)) 0. xs in
    if s2 = 0. then 1.0 else s *. s /. (Float.of_int n *. s2)

let summarize samples =
  match samples with
  | [] -> { h_count = 0; h_mean_s = 0.; h_p95_s = 0.; h_max_s = 0. }
  | _ ->
      let a = Array.of_list samples in
      Array.sort compare a;
      let n = Array.length a in
      let sum = Array.fold_left ( +. ) 0. a in
      let p95 = a.(min (n - 1) (int_of_float (ceil (0.95 *. float n)) - 1)) in
      {
        h_count = n;
        h_mean_s = sum /. float n;
        h_p95_s = p95;
        h_max_s = a.(n - 1);
      }

let run_service ?(seed = 42) ?(servers = 64) ?(server = Server.dgx1v)
    ?(n_tenants = 8) ?(quota_frac = 0.5) ?(elems = 1_000_000)
    ?max_store_plans ?(verify_every = 0) ?(telemetry = Telemetry.disabled)
    ?straggler ?(straggler_epsilon = 0.1) ~n_jobs ()
    =
  if n_tenants <= 0 then
    invalid_arg "Scheduler.run_service: n_tenants must be positive";
  (match straggler with
  | Some (t, f) when t < 0 || t >= n_tenants || f <= 1. ->
      invalid_arg
        "Scheduler.run_service: straggler wants a valid tenant and a \
         slowdown factor > 1"
  | Some _ | None -> ());
  if straggler_epsilon <= 0. || straggler_epsilon >= 1. then
    invalid_arg "Scheduler.run_service: straggler_epsilon must be in (0, 1)";
  let jobs = generate_trace ~seed ~n_jobs () in
  let n_gpus = server.Server.n_gpus in
  let store = Blink.new_store ?max_plans:max_store_plans () in
  (* Per-server free GPU ids: placement is id-level so every slice is a
     concrete allocation the fingerprint layer can canonicalize. *)
  let free_ids = Array.init servers (fun _ -> Array.make n_gpus true) in
  let free = Array.make servers n_gpus in
  let quota =
    max 1 (int_of_float (quota_frac *. Float.of_int (servers * n_gpus)))
  in
  let in_flight = Array.make n_tenants 0 in
  let departures : (int, int * (int * int list) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let submitted = Array.make n_tenants 0 in
  let admitted = Array.make n_tenants 0 in
  let rej_cap = Array.make n_tenants 0 in
  let rej_quota = Array.make n_tenants 0 in
  let gpu_seconds = Array.make n_tenants 0. in
  let planned = ref 0 and single = ref 0 and pcie = ref 0 in
  let slice_seconds = ref 0. in
  let verified = ref 0 and mismatches = ref 0 in
  (* Observatory state: per-tenant wall-clock samples, per-fingerprint
     achieved-rate classes, and the stragglers those classes expose. *)
  let latencies = Array.make n_tenants [] in
  let queue_waits = Array.make n_tenants [] in
  let tenant_stragglers = Array.make n_tenants 0 in
  let class_stats :
      (string, int ref * float ref * float ref * float ref * int ref)
      Hashtbl.t =
    (* count, sum, best, worst, stragglers *)
    Hashtbl.create 64
  in
  let straggler_log = ref [] in
  let straggler_count = ref 0 in
  let bytes_per_elem = Blink.bytes_per_elem in
  (* Lowest free ids first: deterministic, and biases slices towards the
     same concrete tuples, which keeps the fingerprint memo warm. *)
  let take_ids s g =
    let ids = ref [] and got = ref 0 in
    let id = ref 0 in
    while !got < g && !id < n_gpus do
      if free_ids.(s).(!id) then begin
        free_ids.(s).(!id) <- false;
        ids := !id :: !ids;
        incr got
      end;
      incr id
    done;
    free.(s) <- free.(s) - g;
    List.rev !ids
  in
  let run_slice tenant ids =
    let g = List.length ids in
    if g < 2 then incr single
    else if not (Alloc.nvlink_connected server ids) then
      (* No NVLink spanning structure: this slice would go through the
         hybrid PCIe path, which has no per-topology compiled plan. *)
      incr pcie
    else begin
      let gpus = Array.of_list ids in
      let fp = Fingerprint.make server ~gpus ~faults:[] in
      (* Remap onto the class representative: isomorphic slices then hand
         Blink.create literally identical inputs, so their store keys
         collapse to the bare class digest and they share plans. *)
      let cgpus =
        match Fingerprint.canonical_alloc fp with
        | Some (tuple, _) -> tuple
        | None -> gpus
      in
      let handle = Blink.create ~telemetry ~store server ~gpus:cgpus in
      let chunk = Blink.heuristic_chunk ~elems in
      let plan =
        Blink.plan ~chunk_elems:chunk handle Plan.All_reduce ~elems
      in
      let seconds = Plan.seconds (Plan.execute ~data:false plan) in
      incr planned;
      slice_seconds := !slice_seconds +. seconds;
      (* Straggler detection: slices of one fingerprint class run the
         same compiled plan, so their achieved rates are identical
         unless something tenant-side slows them down (here: the
         injected slowdown). Expectation = best rate seen in the class
         so far; a slice more than epsilon below it is flagged. *)
      let observed =
        match straggler with
        | Some (t, factor) when t = tenant -> seconds *. factor
        | Some _ | None -> seconds
      in
      let rate =
        if observed <= 0. then 0.
        else float elems *. bytes_per_elem /. observed /. 1e9
      in
      let digest = Fingerprint.class_digest fp in
      let count, sum, best, worst, cls_straggled =
        match Hashtbl.find_opt class_stats digest with
        | Some acc -> acc
        | None ->
            let acc = (ref 0, ref 0., ref 0., ref infinity, ref 0) in
            Hashtbl.add class_stats digest acc;
            acc
      in
      if !count > 0 && rate < (1. -. straggler_epsilon) *. !best then begin
        incr straggler_count;
        incr cls_straggled;
        tenant_stragglers.(tenant) <- tenant_stragglers.(tenant) + 1;
        straggler_log :=
          {
            st_tenant = tenant;
            st_class = digest;
            st_expected_gbps = !best;
            st_achieved_gbps = rate;
          }
          :: !straggler_log;
        Telemetry.incr telemetry "service.straggler_slices"
      end;
      incr count;
      sum := !sum +. rate;
      if rate > !best then best := rate;
      if rate < !worst then worst := rate;
      if verify_every > 0 && !planned mod verify_every = 0 then begin
        (* Bit-identity check: a fresh handle with a private store must
           time the same collective to the exact same float. *)
        let fresh =
          Blink.create ~telemetry:Telemetry.disabled server ~gpus:cgpus
        in
        let p' =
          Blink.plan ~chunk_elems:chunk fresh Plan.All_reduce ~elems
        in
        let s' = Plan.seconds (Plan.execute ~data:false p') in
        incr verified;
        if not (Float.equal seconds s') then incr mismatches
      end
    end
  in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun now job ->
      (* Release everything departing at this arrival tick. *)
      (match Hashtbl.find_opt departures now with
      | Some (tenant, slices) ->
          List.iter
            (fun (s, ids) ->
              List.iter (fun id -> free_ids.(s).(id) <- true) ids;
              free.(s) <- free.(s) + List.length ids;
              in_flight.(tenant) <- in_flight.(tenant) - List.length ids)
            slices;
          Hashtbl.remove departures now
      | None -> ());
      let tenant = job.id mod n_tenants in
      submitted.(tenant) <- submitted.(tenant) + 1;
      let total_free = Array.fold_left ( + ) 0 free in
      if total_free < job.gpus then rej_cap.(tenant) <- rej_cap.(tenant) + 1
      else if in_flight.(tenant) + job.gpus > quota then
        rej_quota.(tenant) <- rej_quota.(tenant) + 1
      else begin
        let tj0 = Unix.gettimeofday () in
        admitted.(tenant) <- admitted.(tenant) + 1;
        in_flight.(tenant) <- in_flight.(tenant) + job.gpus;
        gpu_seconds.(tenant) <-
          gpu_seconds.(tenant)
          +. Float.of_int (job.gpus * job.duration);
        (* Same placement policy as [simulate], at GPU-id granularity. *)
        let slices = ref [] in
        let best = ref (-1) in
        Array.iteri
          (fun s f ->
            if f >= job.gpus && (!best < 0 || f < free.(!best)) then best := s)
          free;
        if !best >= 0 then slices := [ (!best, take_ids !best job.gpus) ]
        else begin
          let order =
            List.init servers Fun.id
            |> List.stable_sort (fun a b -> compare free.(b) free.(a))
          in
          let remaining = ref job.gpus in
          List.iter
            (fun s ->
              if !remaining > 0 && free.(s) > 0 then begin
                let take = min free.(s) !remaining in
                remaining := !remaining - take;
                slices := (s, take_ids s take) :: !slices
              end)
            order
        end;
        let slices = List.rev !slices in
        (* Queue wait = service-side wall time between admission and the
           first slice starting to plan (placement cost); latency = the
           whole admission-to-last-slice-done wall time. *)
        let tq = Unix.gettimeofday () in
        List.iter (fun (_, ids) -> run_slice tenant ids) slices;
        let tdone = Unix.gettimeofday () in
        queue_waits.(tenant) <- (tq -. tj0) :: queue_waits.(tenant);
        latencies.(tenant) <- (tdone -. tj0) :: latencies.(tenant);
        if Telemetry.enabled telemetry then begin
          let l = [ ("tenant", string_of_int tenant) ] in
          Telemetry.observe telemetry ~labels:l "service.tenant.queue_wait_s"
            (tq -. tj0);
          Telemetry.observe telemetry ~labels:l "service.tenant.latency_s"
            (tdone -. tj0)
        end;
        let leave = now + job.duration in
        (* Merge with any same-tick departure of the same tenant; ticks
           collide rarely enough that folding cross-tenant collisions
           into the earlier tenant's bucket would skew accounting, so
           push collisions one tick later instead. *)
        let rec book leave slices =
          match Hashtbl.find_opt departures leave with
          | None -> Hashtbl.replace departures leave (tenant, slices)
          | Some (t', prior) when t' = tenant ->
              Hashtbl.replace departures leave (tenant, slices @ prior)
          | Some _ -> book (leave + 1) slices
        in
        book leave slices
      end)
    jobs;
  let wall = Unix.gettimeofday () -. t0 in
  let st = Blink.store_stats store in
  let lookups = st.Blink_store.Store.hits + st.Blink_store.Store.misses in
  let tenants =
    List.init n_tenants (fun i ->
        {
          tenant = i;
          submitted = submitted.(i);
          admitted = admitted.(i);
          rejected_capacity = rej_cap.(i);
          rejected_quota = rej_quota.(i);
          gpu_seconds = gpu_seconds.(i);
        })
  in
  {
    jobs = n_jobs;
    admitted_jobs = Array.fold_left ( + ) 0 admitted;
    rejected_capacity_jobs = Array.fold_left ( + ) 0 rej_cap;
    rejected_quota_jobs = Array.fold_left ( + ) 0 rej_quota;
    planned_slices = !planned;
    single_gpu_slices = !single;
    pcie_slices = !pcie;
    store = st;
    unique_fingerprints = st.Blink_store.Store.fingerprints;
    hit_rate =
      (if lookups = 0 then 0.
       else Float.of_int st.Blink_store.Store.hits /. Float.of_int lookups);
    mean_slice_seconds =
      (if !planned = 0 then 0. else !slice_seconds /. Float.of_int !planned);
    wall_seconds = wall;
    jobs_per_second =
      (if wall <= 0. then 0. else Float.of_int n_jobs /. wall);
    tenants;
    fairness = jain gpu_seconds;
    verified_slices = !verified;
    verify_mismatches = !mismatches;
    observatory =
      List.init n_tenants (fun i ->
          {
            ob_tenant = i;
            ob_jobs = admitted.(i);
            ob_latency = summarize latencies.(i);
            ob_queue_wait = summarize queue_waits.(i);
            ob_straggler_slices = tenant_stragglers.(i);
          });
    classes =
      Hashtbl.fold
        (fun digest (count, sum, best, worst, straggled) acc ->
          {
            fc_class = digest;
            fc_slices = !count;
            fc_mean_gbps = (if !count = 0 then 0. else !sum /. float !count);
            fc_best_gbps = !best;
            fc_worst_gbps = (if !count = 0 then 0. else !worst);
            fc_stragglers = !straggled;
          }
          :: acc)
        class_stats []
      |> List.sort (fun a b ->
             match compare b.fc_slices a.fc_slices with
             | 0 -> compare a.fc_class b.fc_class
             | c -> c);
    stragglers = List.rev !straggler_log;
    straggler_slices = !straggler_count;
    straggler_epsilon;
  }
