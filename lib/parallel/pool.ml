module Telemetry = Blink_telemetry.Telemetry

(* Workers mark their domain so nested parallel_map calls fall back to
   sequential execution instead of deadlocking on their own pool. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

let clamp_domains n = max 1 (min 512 n)

(* Pure parser for the BLINK_DOMAINS override, separated out so tests can
   drive it without touching the process environment. Malformed values
   must not be silently coerced: a typo'd "BLINK_DOMAINS=al1" falling
   back to 64 recommended domains, or "0" quietly meaning 1, makes CI
   parallel/sequential equivalence runs lie. *)
let parse_domains s =
  match int_of_string_opt (String.trim s) with
  | None ->
      Error
        (Printf.sprintf
           "BLINK_DOMAINS=%S is not an integer; ignoring the override" s)
  | Some n when n <= 0 ->
      Error
        (Printf.sprintf
           "BLINK_DOMAINS=%S must be positive; ignoring the override" s)
  | Some n when n > 512 -> Ok (clamp_domains n)
  | Some n -> Ok n

let env_domains () =
  match Sys.getenv_opt "BLINK_DOMAINS" with
  | None -> None
  | Some s -> (
      match parse_domains s with
      | Ok n -> Some n
      | Error msg ->
          Printf.eprintf "blink: warning: %s\n%!" msg;
          None)

let default_domains () =
  match env_domains () with
  | Some n -> n
  | None -> clamp_domains (Domain.recommended_domain_count ())

type t = {
  size : int;
  mutex : Mutex.t;
  has_work : Condition.t;  (* queue non-empty or shutting down *)
  finished : Condition.t;  (* broadcast after every task completion *)
  queue : (unit -> unit) Queue.t;
  mutable shutting_down : bool;
  mutable busy : int;
  mutable busy_peak : int;
  mutable tasks_run : int;
  mutable workers : unit Domain.t list;
  telemetry : Telemetry.t;
}

let domains t = t.size
let tasks_run t = t.tasks_run
let busy_peak t = t.busy_peak

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.shutting_down do
    Condition.wait t.has_work t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* shutting down *)
  else begin
    let task = Queue.pop t.queue in
    t.busy <- t.busy + 1;
    if t.busy > t.busy_peak then t.busy_peak <- t.busy;
    Mutex.unlock t.mutex;
    task ();  (* never raises: batches wrap their tasks *)
    Mutex.lock t.mutex;
    t.busy <- t.busy - 1;
    t.tasks_run <- t.tasks_run + 1;
    Condition.broadcast t.finished;
    Mutex.unlock t.mutex;
    worker_loop t
  end

let create ?domains ?(telemetry = Telemetry.disabled) () =
  let size =
    match domains with
    | None -> default_domains ()
    | Some d ->
        if d <= 0 then invalid_arg "Pool.create: domains <= 0";
        let d = clamp_domains d in
        (match env_domains () with Some cap -> min d cap | None -> d)
  in
  let t =
    {
      size;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      finished = Condition.create ();
      queue = Queue.create ();
      shutting_down = false;
      busy = 0;
      busy_peak = 0;
      tasks_run = 0;
      workers = [];
      telemetry;
    }
  in
  if size > 1 then
    t.workers <-
      List.init size (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set in_worker_key true;
              worker_loop t));
  Telemetry.set_gauge telemetry "pool.domains" (Float.of_int size);
  t

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.shutting_down <- true;
  t.workers <- [];
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

(* Publish the pool gauges after a batch; reads are synchronized because
   the batch waiter held the mutex when it observed completion. *)
let publish t =
  if Telemetry.enabled t.telemetry then begin
    Mutex.lock t.mutex;
    let tasks = t.tasks_run and peak = t.busy_peak in
    Mutex.unlock t.mutex;
    Telemetry.set_gauge t.telemetry "pool.domains" (Float.of_int t.size);
    Telemetry.set_gauge t.telemetry "pool.tasks" (Float.of_int tasks);
    Telemetry.set_gauge t.telemetry "pool.busy_peak" (Float.of_int peak)
  end

let sequential_map t f xs =
  let results = List.map f xs in
  Mutex.lock t.mutex;
  t.tasks_run <- t.tasks_run + List.length xs;
  if t.busy_peak < 1 && xs <> [] then t.busy_peak <- 1;
  Mutex.unlock t.mutex;
  publish t;
  results

let parallel_map t f xs =
  if t.shutting_down then invalid_arg "Pool.parallel_map: pool is shut down";
  match xs with
  | [] -> []
  | [ _ ] -> sequential_map t f xs
  | _ when t.size <= 1 || in_worker () -> sequential_map t f xs
  | _ ->
      let items = Array.of_list xs in
      let n = Array.length items in
      let results = Array.make n None in
      let remaining = ref n in
      Mutex.lock t.mutex;
      Array.iteri
        (fun i x ->
          Queue.add
            (fun () ->
              let r = try Ok (f x) with e -> Error e in
              (* Distinct slots; publication to the waiter is ordered by
                 the mutex release below. *)
              results.(i) <- Some r;
              Mutex.lock t.mutex;
              decr remaining;
              Mutex.unlock t.mutex)
            t.queue)
        items;
      Condition.broadcast t.has_work;
      while !remaining > 0 do
        Condition.wait t.finished t.mutex
      done;
      Mutex.unlock t.mutex;
      publish t;
      (* Re-raise the earliest failure in submission order. *)
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error e) -> raise e
             | None -> assert false)
           results)

let map ?pool f xs =
  match pool with Some t -> parallel_map t f xs | None -> List.map f xs

let parallel_iter t f xs = ignore (parallel_map t f xs)

(* Single-task futures: the overlap primitive behind Blink.prewarm_async.
   A future created on a sequential pool (1 domain, or from inside a
   worker) runs its thunk eagerly in the calling domain, so [async f;
   ...; await] degenerates to [f (); ...] — same results, same order,
   no concurrency. *)
type 'a future = {
  f_pool : t;
  f_cell : ('a, exn) result option Atomic.t;
}

let async t f =
  if t.shutting_down then invalid_arg "Pool.async: pool is shut down";
  if t.size <= 1 || in_worker () then
    { f_pool = t; f_cell = Atomic.make (Some (try Ok (f ()) with e -> Error e)) }
  else begin
    let cell = Atomic.make None in
    Mutex.lock t.mutex;
    Queue.add
      (fun () ->
        (* The atomic publishes the result; the worker loop broadcasts
           [finished] right after the task returns, waking any awaiter. *)
        Atomic.set cell (Some (try Ok (f ()) with e -> Error e)))
      t.queue;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    { f_pool = t; f_cell = cell }
  end

let await { f_pool = t; f_cell = cell } =
  let result =
    match Atomic.get cell with
    | Some r -> r  (* eager (sequential) future, or already finished *)
    | None ->
        Mutex.lock t.mutex;
        while Atomic.get cell = None do
          Condition.wait t.finished t.mutex
        done;
        Mutex.unlock t.mutex;
        Option.get (Atomic.get cell)
  in
  publish t;
  match result with Ok v -> v | Error e -> raise e

let both t f g =
  match parallel_map t (fun thunk -> thunk ()) [ (fun () -> `A (f ())); (fun () -> `B (g ())) ] with
  | [ `A a; `B b ] -> (a, b)
  | _ -> assert false

let with_pool ?domains ?telemetry f =
  let t = create ?domains ?telemetry () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_pool = ref None

let default () =
  match !default_pool with
  | Some t -> t
  | None ->
      let t = create () in
      default_pool := Some t;
      at_exit (fun () -> shutdown t);
      t
