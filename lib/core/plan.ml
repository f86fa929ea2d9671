module Codegen = Blink_collectives.Codegen
module Fabric = Blink_topology.Fabric
module Engine = Blink_sim.Engine
module Sem = Blink_sim.Semantics
module Recorder = Blink_sim.Recorder
module Critical_path = Blink_sim.Critical_path
module Telemetry = Blink_telemetry.Telemetry
module Json = Blink_telemetry.Json

type collective =
  | All_reduce
  | Broadcast
  | Reduce
  | Gather
  | All_gather
  | Reduce_scatter

let collective_name = function
  | All_reduce -> "all_reduce"
  | Broadcast -> "broadcast"
  | Reduce -> "reduce"
  | Gather -> "gather"
  | All_gather -> "all_gather"
  | Reduce_scatter -> "reduce_scatter"

type family = Trees | Per_root

let family_name = function Trees -> "trees" | Per_root -> "per_root"

type t = {
  collective : collective;
  family : family;
  elems : int;
  chunk_elems : int;
  root : int;
  n_ranks : int;
  program : Blink_sim.Program.t;
  layout : Codegen.layout;
  trees : Blink_collectives.Tree.weighted list;
  resources : Engine.resource array;
  telemetry : Telemetry.t;
  prepared : Engine.prepared;
  arena : Engine.arena;
  recorder : Recorder.t;
  mutable pool_mem : Sem.memory option;
  mutable gauge_cells : gauge_cells option;
}

(* Pre-resolved per-resource gauge handles for the plan's own telemetry
   registry: resolved on the first instrumented execute, so steady-state
   executes update busy/utilization/bottleneck gauges without rebuilding
   label lists and hashtable keys every run. *)
and gauge_cells = {
  busy_cells : Telemetry.Metrics.gauge_cell array;
  util_cells : Telemetry.Metrics.gauge_cell array;
  bottleneck_cell : Telemetry.Metrics.gauge_cell;
  util : float array;  (* scratch for [Critical_path.utilization] *)
}

let build ~family collective ~spec ~root ~elems ~trees =
  let telemetry = spec.Codegen.telemetry in
  let name = collective_name collective in
  let span_start = Telemetry.now_s telemetry in
  let w0 = Telemetry.wall_s telemetry in
  let program, layout =
    match collective with
    | All_reduce -> Codegen.all_reduce spec ~elems ~trees
    | Broadcast -> Codegen.broadcast spec ~root ~elems ~trees
    | Reduce -> Codegen.reduce spec ~root ~elems ~trees
    | Gather -> Codegen.gather spec ~root ~elems ~trees
    | All_gather -> Codegen.all_gather spec ~elems ~trees
    | Reduce_scatter -> Codegen.reduce_scatter spec ~elems ~trees
  in
  let resources = Fabric.resources spec.Codegen.fabric in
  (* Lower the program into the engine's immutable schedule here, once:
     every [execute] replays it against the plan's own arena. *)
  let prepared = Engine.prepare ~telemetry ~resources program in
  Telemetry.incr telemetry ~labels:[ ("collective", name) ] "plan.builds";
  (* Codegen phase = program generation + engine lowering: with the MWU,
     ILP and MIAD timers this completes the replan decomposition. *)
  if Telemetry.enabled telemetry then
    Telemetry.observe telemetry
      ~labels:[ ("collective", name) ]
      "plan.phase.codegen_s"
      (Telemetry.wall_s telemetry -. w0);
  Telemetry.span telemetry ~cat:"plan" ~start:span_start
    ~args:[ ("collective", Json.str name); ("elems", Json.int elems) ]
    "plan.build";
  {
    collective;
    family;
    elems;
    chunk_elems = spec.Codegen.chunk_elems;
    root;
    n_ranks = Fabric.n_ranks spec.Codegen.fabric;
    program;
    layout;
    trees;
    resources;
    telemetry;
    prepared;
    arena = Engine.arena ();
    recorder = Recorder.create ();
    pool_mem = None;
    gauge_cells = None;
  }

type execution = { timing : Engine.result; memory : Sem.memory option }

let resolve_gauge_cells t =
  match t.gauge_cells with
  | Some cells -> cells
  | None ->
      let cell ?labels name =
        Option.get (Telemetry.gauge_cell t.telemetry ?labels name)
      in
      let per_resource name r =
        cell ~labels:[ ("resource", string_of_int r) ] name
      in
      let n_res = Array.length t.resources in
      let cells =
        {
          busy_cells = Array.init n_res (per_resource "engine.resource.busy_s");
          util_cells =
            Array.init n_res (per_resource "engine.resource.utilization");
          bottleneck_cell = cell "engine.bottleneck_resource";
          util = Array.make n_res 0.;
        }
      in
      t.gauge_cells <- Some cells;
      cells

(* The per-resource busy/utilization gauge fold, allocation-free: the
   same utilizations and bottleneck as [Critical_path.attribute]'s link
   table, computed by the one [Critical_path.utilization] into the plan's
   preallocated array and published through its pre-resolved cells. *)
let fold_utilizations t (timing : Engine.result) =
  let cells = resolve_gauge_cells t in
  let util = cells.util in
  let best = Critical_path.utilization ~resources:t.resources timing util in
  for r = 0 to Array.length t.resources - 1 do
    Telemetry.Metrics.set_cell cells.busy_cells.(r) timing.Engine.busy.(r);
    Telemetry.Metrics.set_cell cells.util_cells.(r) util.(r)
  done;
  if best >= 0 then
    Telemetry.Metrics.set_cell cells.bottleneck_cell (Float.of_int best)

let execute ?policy ?(data = true) ?(reuse_memory = true) ?load t =
  let telemetry = t.telemetry in
  let name = collective_name t.collective in
  let span_start = Telemetry.now_s telemetry in
  let minor0 = Gc.minor_words () in
  let timing =
    Engine.run_prepared ?policy ~telemetry ~arena:t.arena ~recorder:t.recorder
      t.prepared
  in
  let memory =
    if not data then None
    else begin
      let mem, reused =
        if reuse_memory then (
          match t.pool_mem with
          | Some mem -> (mem, true)
          | None ->
              let mem = Sem.memory_of_program t.program in
              t.pool_mem <- Some mem;
              (mem, false))
        else (Sem.memory_of_program t.program, false)
      in
      (* A reused pooled memory holds the previous replay's data. The
         begin/commit protocol zeroes only the buffers whose stale
         contents could leak into this replay and that [load] didn't
         just rewrite — for the steady state (every input reloaded each
         iteration) that is no zeroing at all. Fresh memories are
         already zeroed. *)
      if reused then Sem.begin_replay mem t.program;
      (match load with Some f -> f mem t.layout | None -> ());
      if reused then Sem.commit_replay mem;
      Sem.run t.program mem;
      Some mem
    end
  in
  (* Fold the engine's post-mortem view into the registry: makespan
     distribution plus per-resource busy time / utilization gauges — the
     paper's link-utilization lens, always on when metrics are. Disabled
     telemetry takes none of these branches. *)
  if Telemetry.enabled telemetry then begin
    Telemetry.incr telemetry ~labels:[ ("collective", name) ] "plan.executes";
    Telemetry.observe telemetry "plan.execute.makespan_s"
      timing.Engine.makespan;
    (* Steady-state allocation telemetry: minor words spent by this
       execute (engine replay + data pass + the registry's own cost). *)
    Telemetry.observe telemetry "plan.execute.minor_words"
      (Gc.minor_words () -. minor0);
    fold_utilizations t timing;
    if Telemetry.tracing telemetry then
      Telemetry.span telemetry ~cat:"plan" ~start:span_start
        ~args:
          [
            ("collective", Json.str name);
            ("data_pass", Json.Bool data);
            ("makespan_s", Json.float timing.Engine.makespan);
          ]
        "plan.execute"
  end;
  { timing; memory }

let seconds e = e.timing.Engine.makespan
