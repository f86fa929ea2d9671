(* Data replay over per-node Bigarray float32 slabs.

   All of a node's buffers live contiguously in one slab; an offset table
   indexed by (node, buf) replaces the seed's (node, buf) Hashtbl, and
   the replay program is compiled once per (memory, program) pair into
   flat kernel arrays — pre-resolved (slab, offset, len) triples, each
   entry one copy or one in-place reduce — so steady-state replays do no
   hashing, no bounds re-checking and no list traversal.

   Buffers are float32 (the element width the library models throughout;
   see Blink.bytes_per_elem). Writes and reads convert at the boundary:
   values exactly representable in float32 — in particular the small
   integers the tests and benchmarks replay — round-trip unchanged, and
   reductions accumulate in float32 exactly as a real fp32 collective
   would. The seed's float64 [float array] implementation survives as
   {!Ref} for equivalence testing. *)

type slab = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* C kernels (semantics_stubs.c): the copy, the in-place reduce, and
   both boundary conversions — float64 -> float32 for writes, float32 ->
   float64 for reads — are conversion-bound through the Bigarray
   accessors (each element round-trips through double, and a
   per-element read-back also boxes it), so the hot loops live in C
   where they stay in single precision, restrict-qualified and unrolled
   wide. *)
external f32_reduce : slab -> int -> slab -> int -> int -> unit
  = "blink_f32_reduce"
[@@noalloc]

external f32_copy : slab -> int -> slab -> int -> int -> unit
  = "blink_f32_copy"
[@@noalloc]

external f32_of_f64 : slab -> int -> float array -> int -> unit
  = "blink_f32_of_f64"
[@@noalloc]

(* [f64_of_f32 dst src soff len]: dst.(i) = src.{soff + i}, the exact
   widening of a read; fills an unboxed float array in place. *)
external f64_of_f32 : float array -> slab -> int -> int -> unit
  = "blink_f64_of_f32"
[@@noalloc]

type kernels = {
  k_prog : Program.t;  (* program these kernels were compiled from *)
  k_kind : int array;  (* 0 = copy, 1 = reduce *)
  k_src : slab array;
  k_soff : int array;
  k_dst : slab array;
  k_doff : int array;
  k_len : int array;
  k_raw : int;
      (* kernel count before contiguity batching: one per op action,
         what exec would have dispatched unbatched *)
  (* Slab segments whose initial contents can influence a replay — read
     before the kernels wrote them, or not written by any kernel at all
     (so a user [read] would see them). Only these need zeroing between
     pooled replays; fully-overwritten scratch does not. Parallel
     arrays: (node, buf, segment view to fill, every-replay flag).
     [k_zero_every] distinguishes segments the kernels rewrite each run
     (stale reads of kernel-written ranges — dirty again after every
     replay) from segments no kernel ever writes: the latter stay zero
     until a user [write] dirties their buffer, so commit_replay skips
     them while the buffer's [user_touched] flag is clear. *)
  k_zero_nodes : int array;
  k_zero_bufs : int array;
  k_zero_views : slab array;
  k_zero_every : bool array;
}

type memory = {
  slabs : slab array;  (* node -> contiguous storage for its buffers *)
  offs : int array array;  (* node -> buf -> element offset in slab *)
  lens : int array array;  (* node -> buf -> declared element count *)
  mutable kernels : kernels option;  (* compiled lazily at first run *)
  pending_zero : bool array array;  (* node -> buf -> must zero before run *)
  user_touched : bool array array;
      (* node -> buf -> a user [write] may have left nonzero data in
         ranges no kernel writes (cleared when those ranges are zeroed) *)
  mutable armed : bool;  (* a begin_replay is waiting for commit_replay *)
}

let memory_of_program prog =
  let buffers = Program.buffers prog in
  let n_nodes =
    1 + List.fold_left (fun m (node, _, _) -> max m node) (-1) buffers
  in
  let counts = Array.make n_nodes 0 in
  List.iter
    (fun (node, buf, _) -> counts.(node) <- max counts.(node) (buf + 1))
    buffers;
  let offs = Array.init n_nodes (fun node -> Array.make counts.(node) 0) in
  let lens = Array.init n_nodes (fun node -> Array.make counts.(node) 0) in
  let totals = Array.make n_nodes 0 in
  (* Buffer ids are dense per node in declaration order, so walking the
     declaration list assigns each buffer a contiguous slab segment. *)
  List.iter
    (fun (node, buf, len) ->
      offs.(node).(buf) <- totals.(node);
      lens.(node).(buf) <- len;
      totals.(node) <- totals.(node) + len)
    buffers;
  let slabs =
    Array.init n_nodes (fun node ->
        let s =
          Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout
            totals.(node)
        in
        Bigarray.Array1.fill s 0.;
        s)
  in
  {
    slabs;
    offs;
    lens;
    kernels = None;
    pending_zero = Array.init n_nodes (fun node -> Array.make counts.(node) false);
    user_touched = Array.init n_nodes (fun node -> Array.make counts.(node) false);
    armed = false;
  }

let reset mem =
  Array.iter (fun s -> Bigarray.Array1.fill s 0.) mem.slabs;
  Array.iter (fun p -> Array.fill p 0 (Array.length p) false) mem.pending_zero;
  Array.iter (fun p -> Array.fill p 0 (Array.length p) false) mem.user_touched;
  mem.armed <- false

let check_known mem ~node ~buf =
  if
    node < 0
    || node >= Array.length mem.slabs
    || buf < 0
    || buf >= Array.length mem.offs.(node)
  then
    invalid_arg
      (Printf.sprintf "Semantics: unknown buffer (node=%d, buf=%d)" node buf)

let write mem ~node ~buf values =
  check_known mem ~node ~buf;
  let len = mem.lens.(node).(buf) in
  if Array.length values <> len then
    invalid_arg "Semantics.write: length mismatch";
  f32_of_f64 mem.slabs.(node) mem.offs.(node).(buf) values len;
  mem.user_touched.(node).(buf) <- true;
  (* A full-buffer write between begin_replay and commit_replay makes the
     deferred zeroing of this buffer unnecessary. *)
  if mem.armed then mem.pending_zero.(node).(buf) <- false

(* A fresh float array holding [len] slab elements from [base], widened
   in one C pass: no per-element boxing, and no zero-fill before it. *)
let widen s base len =
  let out = Array.create_float len in
  f64_of_f32 out s base len;
  out

let read mem ~node ~buf =
  check_known mem ~node ~buf;
  widen mem.slabs.(node) mem.offs.(node).(buf) mem.lens.(node).(buf)

let read_slice mem ~node ~buf ~off ~len =
  check_known mem ~node ~buf;
  if off < 0 || len < 0 || off + len > mem.lens.(node).(buf) then
    invalid_arg
      (Printf.sprintf
         "Semantics.read_slice: out of bounds (node=%d, buf=%d, off=%d, len=%d)"
         node buf off len);
  widen mem.slabs.(node) (mem.offs.(node).(buf) + off) len

(* Resolve a mem_ref to (slab, absolute offset), with the seed's exact
   error messages at the same call (the program's first run). *)
let resolve mem (r : Program.mem_ref) =
  let node = r.Program.node and buf = r.Program.buf in
  check_known mem ~node ~buf;
  if
    r.Program.off < 0 || r.Program.len < 0
    || r.Program.off + r.Program.len > mem.lens.(node).(buf)
  then
    invalid_arg
      (Printf.sprintf "Semantics: out-of-bounds ref node=%d buf=%d off=%d len=%d"
         node buf r.Program.off r.Program.len);
  (mem.slabs.(node), mem.offs.(node).(buf) + r.Program.off)

(* Coverage sets for the must-zero analysis: sorted, disjoint, merged
   [(start, stop)] interval lists per buffer. *)
let add_iv ivs off stop =
  let rec go off stop = function
    | [] -> [ (off, stop) ]
    | (s, e) :: rest ->
        if stop < s then (off, stop) :: (s, e) :: rest
        else if e < off then (s, e) :: go off stop rest
        else go (min off s) (max stop e) rest
  in
  go off stop ivs

(* The sub-intervals of [off, stop) not covered by [ivs]. *)
let rec uncovered ivs off stop =
  if off >= stop then []
  else
    match ivs with
    | [] -> [ (off, stop) ]
    | (s, e) :: rest ->
        if e <= off then uncovered rest off stop
        else if s >= stop then [ (off, stop) ]
        else if s <= off then uncovered rest e stop
        else (off, s) :: uncovered rest e stop

(* A chain-following topological order: Kahn's algorithm over data deps
   plus stream edges, taking ready ops in ascending id but always
   preferring the stream successor of the op just emitted when it became
   ready. Codegen programs synchronize every read-after-write and
   write-after-read through op dependencies, so any valid topological
   order computes the same data (the Ref-equivalence tests replay the
   plain id order against this one); this particular order lays each
   stream's pipelined chunk run out back-to-back, which is exactly the
   shape the contiguity batching below compresses. *)
let chain_order prog =
  let n = Program.n_ops prog in
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  let snext = Array.make n (-1) in
  Program.iter_ops
    (fun o ->
      List.iter
        (fun d ->
          indeg.(o.Program.id) <- indeg.(o.Program.id) + 1;
          succs.(d) <- o.Program.id :: succs.(d))
        o.Program.deps)
    prog;
  Program.iter_stream_edges
    (fun ~pred ~succ ->
      indeg.(succ) <- indeg.(succ) + 1;
      succs.(pred) <- succ :: succs.(pred);
      snext.(pred) <- succ)
    prog;
  let module IS = Set.Make (Int) in
  let ready = ref IS.empty in
  for id = 0 to n - 1 do
    if indeg.(id) = 0 then ready := IS.add id !ready
  done;
  let out = Array.make n 0 in
  let k = ref 0 in
  let rec emit id =
    out.(!k) <- id;
    incr k;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := IS.add s !ready)
      succs.(id);
    let nx = snext.(id) in
    if nx >= 0 && indeg.(nx) = 0 && IS.mem nx !ready then begin
      ready := IS.remove nx !ready;
      emit nx
    end
  in
  while not (IS.is_empty !ready) do
    let id = IS.min_elt !ready in
    ready := IS.remove id !ready;
    emit id
  done;
  assert (!k = n);
  Array.to_list out

let compile mem prog =
  let acc = ref [] in
  (* Track, per buffer, which intervals the kernels have written so far;
     a read of anything outside them means the buffer's initial contents
     reach the result, so pooled replays must re-zero it. *)
  let written =
    Array.map (fun offs -> Array.make (Array.length offs) []) mem.offs
  in
  let stale =
    Array.map (fun offs -> Array.make (Array.length offs) []) mem.offs
  in
  let note_read (r : Program.mem_ref) =
    let node = r.Program.node and buf = r.Program.buf in
    List.iter
      (fun (s, e) -> stale.(node).(buf) <- add_iv stale.(node).(buf) s e)
      (uncovered
         written.(node).(buf)
         r.Program.off
         (r.Program.off + r.Program.len))
  in
  let note_write (r : Program.mem_ref) =
    written.(r.Program.node).(r.Program.buf) <-
      add_iv
        written.(r.Program.node).(r.Program.buf)
        r.Program.off
        (r.Program.off + r.Program.len)
  in
  List.iter
    (fun id ->
      let o = Program.op prog id in
      let action =
        match o.Program.kind with
        | Program.Transfer { action; _ } | Program.Compute { action; _ } ->
            action
        | Program.Delay _ -> None
      in
      match action with
      | None -> ()
      | Some (Program.Copy { src; dst }) ->
          if src.Program.len <> dst.Program.len then
            invalid_arg "Semantics: copy length mismatch";
          let s, so = resolve mem src and d, doff = resolve mem dst in
          note_read src;
          note_write dst;
          acc := (0, s, so, d, doff, src.Program.len) :: !acc
      | Some (Program.Reduce { src; dst }) ->
          if src.Program.len <> dst.Program.len then
            invalid_arg "Semantics: reduce length mismatch";
          let s, so = resolve mem src and d, doff = resolve mem dst in
          note_read src;
          note_read dst;  (* a reduce reads its destination *)
          note_write dst;
          acc := (1, s, so, d, doff, src.Program.len) :: !acc)
    (chain_order prog);
  (* Must-zero set, segment-precise: the intervals a kernel reads before
     anything wrote them (their stale contents reach the result) plus
     the intervals no kernel ever writes (a user [read] of leftover
     bytes there would see a past replay). Intervals the kernels
     overwrite without first reading need no zeroing at all. Each
     segment carries an every-replay flag: stale reads of
     kernel-written ranges are dirty again after every run, while
     ranges no kernel writes can only be dirtied by a user [write] —
     commit_replay skips those until the buffer's user_touched flag
     says otherwise, so steady-state replays of collectives with
     untouched staging or unused peers do no fill at all. *)
  let zeros = ref [] in
  Array.iteri
    (fun node bufs ->
      Array.iteri
        (fun buf len ->
          if len > 0 then begin
            (* stale ∩ written: rewritten by the kernels every run. *)
            List.iter
              (fun (s, e) ->
                List.iter
                  (fun (cs, ce) ->
                    let cs = max cs s and ce = min ce e in
                    if cs < ce then
                      zeros := (node, buf, cs, ce - cs, true) :: !zeros)
                  written.(node).(buf))
              stale.(node).(buf);
            (* Complement of written (⊇ stale ∖ written): only ever
               dirtied by user writes. *)
            List.iter
              (fun (s, e) -> zeros := (node, buf, s, e - s, false) :: !zeros)
              (uncovered written.(node).(buf) 0 len)
          end)
        bufs)
    mem.lens;
  let zeros = Array.of_list (List.rev !zeros) in
  let raw = List.rev !acc in
  let n_raw = List.length raw in
  (* [x at xo] and [y at yo], both [len] elements, touch no common cell.
     Slab segments of distinct buffers never overlap (slabs are carved
     contiguously per buffer), so offset arithmetic within one slab plus
     physical slab identity decides it. *)
  let disjoint x xo y yo len = x != y || xo + len <= yo || yo + len <= xo in
  (* Contiguity batching: back-to-back kernels of one kind over adjacent
     slab ranges collapse into a single wide call. Pipelined chunk
     chains produce exactly this shape. Reduces batch unconditionally —
     the merged forward loop performs the identical element-by-element
     sequence as the concatenated loops (the C stub falls back to strict
     forward order whenever ranges alias). A merged copy is one memmove,
     which is NOT sequential when an earlier destination overlaps a
     later source, so same-slab copies only merge when the combined
     ranges stay disjoint. *)
  let rec batch = function
    | (k1, s1, so1, d1, do1, l1) :: (k2, s2, so2, d2, do2, l2) :: rest
      when k1 = k2 && s1 == s2 && d1 == d2
           && so2 = so1 + l1
           && do2 = do1 + l1
           && (k1 <> 0 || disjoint s1 so1 d1 do1 (l1 + l2)) ->
        batch ((k1, s1, so1, d1, do1, l1 + l2) :: rest)
    | e :: rest -> e :: batch rest
    | [] -> []
  in
  let ks = Array.of_list (batch raw) in
  {
    k_prog = prog;
    k_kind = Array.map (fun (k, _, _, _, _, _) -> k) ks;
    k_src = Array.map (fun (_, s, _, _, _, _) -> s) ks;
    k_soff = Array.map (fun (_, _, so, _, _, _) -> so) ks;
    k_dst = Array.map (fun (_, _, _, d, _, _) -> d) ks;
    k_doff = Array.map (fun (_, _, _, _, doff, _) -> doff) ks;
    k_len = Array.map (fun (_, _, _, _, _, len) -> len) ks;
    k_raw = n_raw;
    k_zero_nodes = Array.map (fun (node, _, _, _, _) -> node) zeros;
    k_zero_bufs = Array.map (fun (_, buf, _, _, _) -> buf) zeros;
    k_zero_views =
      Array.map
        (fun (node, buf, off, len, _) ->
          Bigarray.Array1.sub mem.slabs.(node)
            (mem.offs.(node).(buf) + off)
            len)
        zeros;
    k_zero_every = Array.map (fun (_, _, _, _, every) -> every) zeros;
  }

let exec k =
  for i = 0 to Array.length k.k_kind - 1 do
    let len = k.k_len.(i) in
    let s = k.k_src.(i) and d = k.k_dst.(i) in
    let so = k.k_soff.(i) and doff = k.k_doff.(i) in
    if k.k_kind.(i) = 0 then f32_copy d doff s so len
    else f32_reduce d doff s so len
  done

let ensure_kernels mem prog =
  match mem.kernels with
  | Some k when k.k_prog == prog -> k
  | Some _ | None ->
      let k = compile mem prog in
      mem.kernels <- Some k;
      k

let run prog mem = exec (ensure_kernels mem prog)

(* (raw, compiled, 0): how far contiguity batching compressed the
   kernel table. The third component is a constant kept for callers
   that destructure the triple. *)
let kernel_stats mem prog =
  let k = ensure_kernels mem prog in
  (k.k_raw, Array.length k.k_kind, 0)

(* Raw kernel entry points for the [bench kernels] microbench. *)
module Kernels = struct
  let copy = f32_copy
  let reduce = f32_reduce
  let of_f64 = f32_of_f64
  let to_f64 = f64_of_f32
end

(* Pooled-replay protocol: [begin_replay] marks the buffers whose stale
   contents could leak into the next replay; [write]s in between clear
   their marks (a full-buffer write supersedes zeroing); [commit_replay]
   zeroes whatever marks remain. Replaying load-then-commit over a used
   memory is therefore indistinguishable from replaying over a fresh one,
   while the common case — the caller reloads every input buffer — skips
   the zero-fill entirely. *)
let begin_replay mem prog =
  let k = ensure_kernels mem prog in
  for i = 0 to Array.length k.k_zero_nodes - 1 do
    mem.pending_zero.(k.k_zero_nodes.(i)).(k.k_zero_bufs.(i)) <- true
  done;
  mem.armed <- true

let commit_replay mem =
  (match mem.kernels with
  | Some k ->
      (* A buffer may contribute several zero segments; fill every
         pending segment first, then clear the per-buffer marks.
         Segments the kernels never write are still zero from their
         last fill unless a user [write] touched the buffer since, so
         those skip the fill while user_touched is clear. *)
      for i = 0 to Array.length k.k_zero_nodes - 1 do
        if
          mem.pending_zero.(k.k_zero_nodes.(i)).(k.k_zero_bufs.(i))
          && (k.k_zero_every.(i)
             || mem.user_touched.(k.k_zero_nodes.(i)).(k.k_zero_bufs.(i)))
        then Bigarray.Array1.fill k.k_zero_views.(i) 0.
      done;
      for i = 0 to Array.length k.k_zero_nodes - 1 do
        let node = k.k_zero_nodes.(i) and buf = k.k_zero_bufs.(i) in
        if mem.pending_zero.(node).(buf) then
          (* Every never-kernel-written segment of this buffer was just
             zeroed (or was already zero), so user data is gone from
             those ranges until the next write. *)
          mem.user_touched.(node).(buf) <- false
      done;
      for i = 0 to Array.length k.k_zero_nodes - 1 do
        mem.pending_zero.(k.k_zero_nodes.(i)).(k.k_zero_bufs.(i)) <- false
      done
  | None -> ());
  mem.armed <- false

(* ------------------------------------------------------------------ *)
(* The seed implementation, kept as the equivalence-test reference. *)

module Ref = struct
  type memory = (int * int, float array) Hashtbl.t

  let memory_of_program prog =
    let mem = Hashtbl.create 32 in
    List.iter
      (fun (node, buf, len) -> Hashtbl.replace mem (node, buf) (Array.make len 0.))
      (Program.buffers prog);
    mem

  let lookup mem ~node ~buf =
    match Hashtbl.find_opt mem (node, buf) with
    | Some arr -> arr
    | None ->
        invalid_arg
          (Printf.sprintf "Semantics: unknown buffer (node=%d, buf=%d)" node buf)

  let write mem ~node ~buf values =
    let arr = lookup mem ~node ~buf in
    if Array.length values <> Array.length arr then
      invalid_arg "Semantics.write: length mismatch";
    Array.blit values 0 arr 0 (Array.length values)

  let read mem ~node ~buf = Array.copy (lookup mem ~node ~buf)

  let slice mem (r : Program.mem_ref) =
    let arr = lookup mem ~node:r.Program.node ~buf:r.Program.buf in
    if r.Program.off < 0 || r.Program.len < 0
       || r.Program.off + r.Program.len > Array.length arr
    then
      invalid_arg
        (Printf.sprintf "Semantics: out-of-bounds ref node=%d buf=%d off=%d len=%d"
           r.Program.node r.Program.buf r.Program.off r.Program.len);
    arr

  let apply mem = function
    | Program.Copy { src; dst } ->
        if src.Program.len <> dst.Program.len then
          invalid_arg "Semantics: copy length mismatch";
        let s = slice mem src and d = slice mem dst in
        Array.blit s src.Program.off d dst.Program.off src.Program.len
    | Program.Reduce { src; dst } ->
        if src.Program.len <> dst.Program.len then
          invalid_arg "Semantics: reduce length mismatch";
        let s = slice mem src and d = slice mem dst in
        for i = 0 to src.Program.len - 1 do
          d.(dst.Program.off + i) <-
            d.(dst.Program.off + i) +. s.(src.Program.off + i)
        done

  let run prog mem =
    List.iter
      (fun id ->
        let o = Program.op prog id in
        let action =
          match o.Program.kind with
          | Program.Transfer { action; _ } | Program.Compute { action; _ } ->
              action
          | Program.Delay _ -> None
        in
        Option.iter (apply mem) action)
      (Program.topological_order prog)
end
