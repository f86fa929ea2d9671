(* The shared fingerprint-keyed plan store (PR 6): canonical topology
   fingerprints, cross-handle plan sharing, and fault isolation between
   tenants of one store. *)

module Server = Blink_topology.Server
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Telemetry = Blink_telemetry.Telemetry
module Fingerprint = Blink_store.Fingerprint
module Store = Blink_store.Store

module Tree = Blink_collectives.Tree
module Engine = Blink_sim.Engine

let full = Array.init 8 Fun.id
let quad_lo = [| 0; 1; 2; 3 |]
let quad_hi = [| 4; 5; 6; 7 |]

(* GPU pairs a compiled plan actually routes over (rank space mapped back
   to gpu ids) — failing one of these guarantees the plan is affected. *)
let used_pairs (p : Plan.t) ~gpus =
  List.concat_map
    (fun { Tree.tree; _ } ->
      Array.to_list (Array.mapi (fun r pr -> (r, pr)) tree.Tree.parent))
    p.Plan.trees
  |> List.filter_map (fun (r, pr) ->
         if pr >= 0 then
           Some (min gpus.(r) gpus.(pr), max gpus.(r) gpus.(pr))
         else None)
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Fingerprint correctness *)

let test_isomorphic_same_class () =
  (* The two DGX-1V quads are isomorphic under i -> i+4: same link
     classes, multiplicities and PCIe relations. *)
  let a = Fingerprint.make Server.dgx1v ~gpus:quad_lo ~faults:[] in
  let b = Fingerprint.make Server.dgx1v ~gpus:quad_hi ~faults:[] in
  Alcotest.(check bool) "quads share a class" true (Fingerprint.same_class a b);
  (* Rank order never matters: a permuted tuple is the same allocation. *)
  let p = Fingerprint.make Server.dgx1v ~gpus:[| 3; 1; 0; 2 |] ~faults:[] in
  Alcotest.(check bool) "permuted tuple same class" true
    (Fingerprint.same_class a p);
  (* Both quads resolve to one class representative, so remapped handles
     get literally identical construction inputs. *)
  let ca = Option.get (Fingerprint.canonical_alloc a) in
  let cb = Option.get (Fingerprint.canonical_alloc b) in
  Alcotest.(check bool) "same representative tuple" true (fst ca = fst cb);
  Alcotest.(check bool) "representative carries no faults" true
    (snd ca = [])

let test_non_isomorphic_never_collide () =
  let mk ?(faults = []) gpus = Fingerprint.make Server.dgx1v ~gpus ~faults in
  let healthy = mk full in
  (* Different allocation size. *)
  Alcotest.(check bool) "size differs" false
    (Fingerprint.same_class healthy (mk quad_lo));
  (* Same allocation, degraded pair: fault state is part of the label. *)
  let degraded = mk ~faults:[ ((0, 1), Server.Degraded 0.5) ] full in
  Alcotest.(check bool) "degraded differs from healthy" false
    (Fingerprint.same_class healthy degraded);
  (* Distinct degradation factors are distinct classes. *)
  let degraded' = mk ~faults:[ ((0, 1), Server.Degraded 0.25) ] full in
  Alcotest.(check bool) "factor is part of the class" false
    (Fingerprint.same_class degraded degraded');
  (* A downed link differs from any degradation. *)
  let down = mk ~faults:[ ((0, 1), Server.Down) ] full in
  Alcotest.(check bool) "down differs from degraded" false
    (Fingerprint.same_class degraded down);
  (* Different servers never collide even on the same gpu tuple. *)
  let p = Fingerprint.make Server.dgx1p ~gpus:full ~faults:[] in
  Alcotest.(check bool) "server wiring in the class" false
    (Fingerprint.same_class healthy p);
  (* Planner parameters shift the compiled plans, hence the class. *)
  let eps = Fingerprint.make ~epsilon:0.05 Server.dgx1v ~gpus:full ~faults:[] in
  Alcotest.(check bool) "epsilon in the class" false
    (Fingerprint.same_class healthy eps)

let test_canonical_realization_ids () =
  (* The representative's own fingerprint is canonical: its id is the
     bare class digest, and isomorphic members resolve to it. *)
  let a = Fingerprint.make Server.dgx1v ~gpus:quad_lo ~faults:[] in
  let rep, rfaults = Option.get (Fingerprint.canonical_alloc a) in
  let r = Fingerprint.make Server.dgx1v ~gpus:rep ~faults:rfaults in
  Alcotest.(check bool) "representative is canonical" true
    (Fingerprint.is_canonical r);
  Alcotest.(check string) "canonical id is the class digest"
    (Fingerprint.class_digest r) (Fingerprint.id r);
  Alcotest.(check bool) "member and representative share the class" true
    (Fingerprint.same_class a r);
  (* Two identical realizations share the full id even when not
     canonical; distinct realizations of one class never do. *)
  let h1 = Fingerprint.make Server.dgx1v ~gpus:quad_hi ~faults:[] in
  let h2 = Fingerprint.make Server.dgx1v ~gpus:quad_hi ~faults:[] in
  Alcotest.(check string) "identical realizations share ids"
    (Fingerprint.id h1) (Fingerprint.id h2)

(* Store keys hash the bytes of the realization and class keys, so any
   change to how those keys are spelled silently re-keys every shared
   plan. These ids were recorded once; a refactor of the fingerprint must
   reproduce them byte for byte. *)
let pinned_degraded = [ ((2, 3), Server.Degraded 0.5); ((0, 1), Server.Down) ]

let pinned =
  [
    ( "dgx1v quad lo",
      (fun () -> Fingerprint.make Server.dgx1v ~gpus:quad_lo ~faults:[]),
      "9230dd27309a8907a27ea85fa1e382ac" );
    ( "dgx1v quad hi",
      (fun () -> Fingerprint.make Server.dgx1v ~gpus:quad_hi ~faults:[]),
      "9230dd27309a8907a27ea85fa1e382ac+1b55f6733d022e16285c9a173ba937d7" );
    ( "dgx1v degraded",
      (fun () ->
        Fingerprint.make Server.dgx1v ~gpus:full ~faults:pinned_degraded),
      "6f2335c9e10293793ff284ec8068e3b5+2e8374ae9a2647c3bfd76ff6910d13c5" );
    ( "dgx1v root 3",
      (fun () -> Fingerprint.make ~root:3 Server.dgx1v ~gpus:full ~faults:[]),
      "8eaaf53743139f08c95037bc1d7e2985+968fdba8e0b8812b4def0f7aba7b8de4" );
    ( "dgx1v epsilon threshold",
      (fun () ->
        Fingerprint.make ~epsilon:0.05 ~threshold:0.1 Server.dgx1v ~gpus:full
          ~faults:[]),
      "26b3a43098978fdab6ca1c95dbb3e7f8+f6eb49eb475b491e74bd2a48a116f2f6" );
    ( "dgx1v lp-flow",
      (fun () ->
        Fingerprint.make ~planner:"lp-flow" Server.dgx1v ~gpus:full ~faults:[]),
      "aa061f1827f85ffba1b21c29984519c5+1bf1e886901e6cbf5fedb11c2bfec0dc" );
    ( "dgx1p 1,4,5,6",
      (fun () ->
        Fingerprint.make Server.dgx1p ~gpus:[| 1; 4; 5; 6 |] ~faults:[]),
      "36427306a27b0ebcc51d0a11bb3941ac+fbed71c23145b1603da7042d678365e3" );
    ( "dgx2 full",
      (fun () ->
        Fingerprint.make Server.dgx2 ~gpus:(Array.init 16 Fun.id) ~faults:[]),
      "18c3985ca3da9ed19e3b95df9f1c63c4" );
  ]

let test_pinned_ids () =
  List.iter
    (fun (name, make, expected) ->
      let fp = make () in
      let cls, canonical =
        match String.index_opt expected '+' with
        | None -> (expected, true)
        | Some i -> (String.sub expected 0 i, false)
      in
      Alcotest.(check string) (name ^ " id") expected (Fingerprint.id fp);
      Alcotest.(check string) (name ^ " class") cls (Fingerprint.class_digest fp);
      Alcotest.(check bool) (name ^ " canonical") canonical
        (Fingerprint.is_canonical fp))
    pinned

(* A memo hit is one short key and one table lookup; it must not rebuild
   the server's digest. Counted in minor words, which repeat exactly,
   rather than timed. *)
let test_hit_allocation () =
  let hits = 1_000 in
  List.iter
    (fun (name, make, _) ->
      ignore (make ());
      let before = Gc.minor_words () in
      for _ = 1 to hits do
        ignore (make ())
      done;
      let per_hit = (Gc.minor_words () -. before) /. float hits in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words per hit (< 300)" name per_hit)
        true (per_hit < 300.))
    pinned

(* Two domains race on 64 realizations no other test makes (fresh
   [Server.custom] names, so the first requests miss): one computes a slot
   while the other waits on its [Pending] marker. Both must see exactly
   the fingerprint a lone caller gets. *)
let test_two_domain_memo () =
  let servers =
    List.init 16 (fun i ->
        let s = Server.dgx1v in
        Server.custom ~name:(Printf.sprintf "memo-race-%d" i)
          ~n_gpus:s.Server.n_gpus ~nvlinks:s.Server.nvlinks
          ~pcie_switches:s.Server.pcie_switches
          ~switches_per_cpu:s.Server.switches_per_cpu ())
  in
  let tuples = [ quad_lo; quad_hi; [| 1; 4; 5; 6 |]; [| 0; 1; 5 |] ] in
  let work =
    Array.of_list
      (List.concat_map (fun s -> List.map (fun g -> (s, g)) tuples) servers)
  in
  let race () =
    Array.map
      (fun (s, gpus) ->
        let fp = Fingerprint.make s ~gpus ~faults:[] in
        (Fingerprint.id fp, Fingerprint.class_digest fp))
      work
  in
  let other = Domain.spawn race in
  let here = race () in
  let there = Domain.join other in
  Array.iteri
    (fun i (s, gpus) ->
      let fp = Fingerprint.make s ~gpus ~faults:[] in
      let expect = (Fingerprint.id fp, Fingerprint.class_digest fp) in
      let name = Printf.sprintf "realization %d" i in
      Alcotest.(check (pair string string)) (name ^ " main") expect here.(i);
      Alcotest.(check (pair string string)) (name ^ " spawned") expect there.(i);
      (* The class digest is recomputed from scratch on a relabeled tuple
         the race never requested: the racing domains hashed the same
         canonical matrix. *)
      let rev = Array.of_list (List.rev (Array.to_list gpus)) in
      Alcotest.(check string) (name ^ " class recomputed")
        (Fingerprint.class_digest (Fingerprint.make s ~gpus:rev ~faults:[]))
        (snd here.(i)))
    work

(* ------------------------------------------------------------------ *)
(* Cross-handle plan sharing through one store *)

let test_shared_store_physical_sharing () =
  let store = Blink.new_store () in
  let a = Blink.create ~store Server.dgx1v ~gpus:full in
  let b = Blink.create ~store Server.dgx1v ~gpus:full in
  let pa = Blink.plan ~chunk_elems:4096 a Plan.All_reduce ~elems:100_000 in
  let pb = Blink.plan ~chunk_elems:4096 b Plan.All_reduce ~elems:100_000 in
  Alcotest.(check bool) "same physical plan across handles" true (pa == pb);
  (* Handle-local counters keep their per-tenant meaning. *)
  let sa = Blink.plan_cache_stats a and sb = Blink.plan_cache_stats b in
  Alcotest.(check int) "first tenant missed" 1 sa.Blink.misses;
  Alcotest.(check int) "first tenant no hit" 0 sa.Blink.hits;
  Alcotest.(check int) "second tenant hit" 1 sb.Blink.hits;
  Alcotest.(check int) "second tenant no miss" 0 sb.Blink.misses;
  (* The store aggregates across both. *)
  let st = Blink.store_stats store in
  Alcotest.(check int) "store hits" 1 st.Store.hits;
  Alcotest.(check int) "store misses" 1 st.Store.misses;
  Alcotest.(check int) "one live plan" 1 st.Store.entries;
  Alcotest.(check int) "one fingerprint" 1 st.Store.fingerprints

let test_canonical_remap_sharing () =
  (* The cluster-service pattern: remap isomorphic allocations onto the
     class representative, then plan through one store. *)
  let store = Blink.new_store () in
  let alloc gpus =
    let fp = Fingerprint.make Server.dgx1v ~gpus ~faults:[] in
    fst (Option.get (Fingerprint.canonical_alloc fp))
  in
  let a = Blink.create ~store Server.dgx1v ~gpus:(alloc quad_lo) in
  let b = Blink.create ~store Server.dgx1v ~gpus:(alloc quad_hi) in
  let pa = Blink.plan ~chunk_elems:4096 a Plan.Broadcast ~elems:65_536 in
  let pb = Blink.plan ~chunk_elems:4096 b Plan.Broadcast ~elems:65_536 in
  Alcotest.(check bool) "isomorphic quads share the compiled plan" true
    (pa == pb);
  Alcotest.(check int) "one fingerprint for both quads" 1
    (Blink.store_stats store).Store.fingerprints

let test_fault_isolation_between_tenants () =
  let store = Blink.new_store () in
  let a = Blink.create ~store Server.dgx1v ~gpus:full in
  let b = Blink.create ~store Server.dgx1v ~gpus:full in
  let pb = Blink.plan ~chunk_elems:4096 b Plan.All_reduce ~elems:100_000 in
  (* Tenant [a] loses a link the cached plan routes over and migrates to
     its degraded fingerprint; the affected plan is invalid *for a*. A
     cold replan publishes under the degraded fingerprint (the default
     warm path keeps its derived plans handle-private by design). *)
  let u, v = List.hd (used_pairs pb ~gpus:full) in
  Blink.fail_link ~replan:`Cold a ~u ~v;
  let pa' = Blink.plan ~chunk_elems:4096 a Plan.All_reduce ~elems:100_000 in
  Alcotest.(check bool) "degraded tenant replans" true (not (pa' == pb));
  (* Tenant [b]'s entries survive untouched: same physical instance, a
     cache hit, zero invalidations on its side. *)
  let pb' = Blink.plan ~chunk_elems:4096 b Plan.All_reduce ~elems:100_000 in
  Alcotest.(check bool) "healthy tenant keeps its plan" true (pb' == pb);
  Alcotest.(check int) "healthy tenant unpoisoned" 0
    (Blink.plan_cache_invalidations b);
  let sb = Blink.plan_cache_stats b in
  Alcotest.(check int) "healthy tenant hit its cache" 1 sb.Blink.hits;
  (* The store now tracks both topology classes. *)
  Alcotest.(check int) "two fingerprints after the fault" 2
    (Blink.store_stats store).Store.fingerprints;
  (* A warm replan on a shared store publishes nothing, prewarm included:
     a fresh tenant born on the same degraded fabric still gets the cold
     plan a private handle builds. *)
  let store = Blink.new_store () in
  let a = Blink.create ~store Server.dgx1v ~gpus:full in
  Blink.fail_link a ~u:0 ~v:1;
  let before = Blink.store_stats store in
  ignore (Blink.prewarm a [ (Plan.All_reduce, 1_048_576) ]);
  Alcotest.(check bool) "warm prewarm inserts nothing" true
    (Blink.store_stats store = before);
  let cold_plan ?store () =
    let link_faults = [ ((0, 1), Server.Down) ] in
    let h = Blink.create ?store ~link_faults Server.dgx1v ~gpus:full in
    Blink.plan h Plan.All_reduce ~elems:1_048_576
  in
  let fresh = cold_plan ~store () and private_ = cold_plan () in
  let makespan p = (Plan.execute ~data:false p).Plan.timing.Engine.makespan in
  Alcotest.(check int) "fresh tenant gets the cold chunk"
    private_.Plan.chunk_elems fresh.Plan.chunk_elems;
  Alcotest.(check (float 0.)) "fresh tenant gets the cold makespan"
    (makespan private_) (makespan fresh)

let test_store_capacity_shared () =
  let store = Blink.new_store ~max_plans:2 () in
  let h = Blink.create ~store Server.dgx1v ~gpus:full in
  List.iter
    (fun elems ->
      ignore (Blink.plan ~chunk_elems:4096 h Plan.All_reduce ~elems))
    [ 1_000; 2_000; 3_000 ];
  let st = Blink.store_stats store in
  Alcotest.(check int) "cap bounds live plans" 2 st.Store.entries;
  Alcotest.(check int) "one eviction" 1 st.Store.evictions;
  (* The eviction also lands on the inserting handle's telemetry. *)
  Alcotest.(check int) "handle saw the eviction" 1
    (Telemetry.counter_value (Blink.telemetry h) "plan.cache.evictions");
  (* Non-evictable entries (topology, tuned chunks) never count against
     the cap: the fingerprint bucket stays alive. *)
  Alcotest.(check int) "bucket survives" 1 st.Store.fingerprints

(* Regression: an unbounded store under migration churn used to keep one
   stale FIFO record per migrated entry forever (nothing evicts, so
   nothing popped them) — quadratic queue growth over the run. The queue
   must now stay linear in the live entry count. *)
let test_fifo_compaction () =
  let s : (int, int) Store.t = Store.create () in
  let rounds = 200 in
  for i = 0 to rounds - 1 do
    let from_ = Printf.sprintf "fp%d" (i mod 2) in
    let to_ = Printf.sprintf "fp%d" ((i + 1) mod 2) in
    ignore (Store.insert_built s ~fp:from_ i i);
    (* Every live entry moves buckets, stranding its old FIFO record. *)
    ignore
      (Store.migrate s ~from_ ~to_ ~classify:(fun _ _ -> `Copy)
         ~drop_source:true)
  done;
  let st = Store.stats s in
  Alcotest.(check int) "all entries live" rounds st.Store.entries;
  Alcotest.(check int) "migration drops nothing" 0 st.Store.invalidations;
  (* Pre-compaction this was ~rounds^2/2 records (20k); with stale-record
     compaction it is bounded by live + the compaction slack. *)
  Alcotest.(check bool)
    (Printf.sprintf "fifo stays linear (%d records for %d entries)"
       (Store.fifo_records s) st.Store.entries)
    true
    (Store.fifo_records s <= (2 * rounds) + 65);
  (* Compaction preserved FIFO semantics: a capped store under the same
     churn still evicts the oldest entries first. *)
  let c : (int, int) Store.t = Store.create ~max_plans:8 () in
  for i = 0 to rounds - 1 do
    let from_ = Printf.sprintf "fp%d" (i mod 2) in
    let to_ = Printf.sprintf "fp%d" ((i + 1) mod 2) in
    ignore (Store.insert_built c ~fp:from_ i i);
    ignore
      (Store.migrate c ~from_ ~to_ ~classify:(fun _ _ -> `Copy)
         ~drop_source:true)
  done;
  let stc = Store.stats c in
  Alcotest.(check bool)
    (Printf.sprintf "cap holds under churn (%d live)" stc.Store.entries)
    true
    (stc.Store.entries >= 1 && stc.Store.entries <= 8);
  (* FIFO order survived compaction: the newest entry is never the one
     evicted. *)
  let live = Printf.sprintf "fp%d" (rounds mod 2) in
  Alcotest.(check (option int)) "newest entry survives" (Some (rounds - 1))
    (Store.find_opt c ~fp:live (rounds - 1))

let test_store_validation () =
  Alcotest.check_raises "non-positive store cap"
    (Invalid_argument "Store.create: max_plans must be positive") (fun () ->
      ignore (Blink.new_store ~max_plans:0 ()));
  let store = Blink.new_store () in
  Alcotest.(check bool) "store + max_cached_plans rejected" true
    (try
       ignore
         (Blink.create ~store ~max_cached_plans:4 Server.dgx1v ~gpus:full);
       false
     with Invalid_argument _ -> true);
  (* The historical create-time message is preserved verbatim. *)
  Alcotest.check_raises "non-positive handle cap"
    (Invalid_argument "Blink.create: max_cached_plans must be positive")
    (fun () ->
      ignore (Blink.create ~max_cached_plans:0 Server.dgx1v ~gpus:full))

let () =
  Alcotest.run "store"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "isomorphic same class" `Quick
            test_isomorphic_same_class;
          Alcotest.test_case "non-isomorphic never collide" `Quick
            test_non_isomorphic_never_collide;
          Alcotest.test_case "canonical realization ids" `Quick
            test_canonical_realization_ids;
          Alcotest.test_case "fingerprint ids pinned" `Quick test_pinned_ids;
          Alcotest.test_case "hit allocation" `Quick test_hit_allocation;
          Alcotest.test_case "two-domain memo" `Quick test_two_domain_memo;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "cross-handle physical sharing" `Quick
            test_shared_store_physical_sharing;
          Alcotest.test_case "canonical remap sharing" `Quick
            test_canonical_remap_sharing;
          Alcotest.test_case "fault isolation" `Quick
            test_fault_isolation_between_tenants;
          Alcotest.test_case "shared capacity" `Quick
            test_store_capacity_shared;
          Alcotest.test_case "fifo compaction" `Quick test_fifo_compaction;
          Alcotest.test_case "validation" `Quick test_store_validation;
        ] );
    ]
