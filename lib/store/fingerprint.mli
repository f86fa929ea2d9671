(** Canonical topology fingerprints: the key of the shared plan store.

    The paper's cluster analysis (section 5.2) found 40,000 jobs
    collapsing into ~46 unique DGX-1V configurations — so compiled plans
    should be keyed by the {e isomorphism class} of an allocation's
    interconnect, not by the handle that compiled them. A fingerprint
    digests everything plan construction reads: the induced NVLink
    subgraph with link classes, multiplicities and per-pair fault state,
    the PCIe switch/CPU relation, the allocation size, the planner
    parameters, and the pinned root's canonical position.

    Bit-identical sharing needs more than isomorphism, though: fabric and
    graph construction enumerate links and switches in server order, so
    two merely-relabeled allocations build structurally different (if
    behaviorally equivalent) programs. The fingerprint therefore also
    computes the class {e representative} — the lexicographically-least
    GPU tuple realizing the canonical label matrix. Callers that first
    remap onto {!canonical_alloc} (as the cluster service does) get
    handles with literally identical construction inputs; their store
    keys collapse to the bare class digest and every isomorphic job hits
    the same compiled plans. Handles on non-canonical realizations get a
    realization-suffixed key: they still share with identical
    realizations, never unsoundly across distinct ones. *)

type t

val make :
  ?planner:string ->
  ?epsilon:float ->
  ?threshold:float ->
  ?root:int ->
  Blink_topology.Server.t ->
  gpus:int array ->
  faults:Blink_topology.Server.faults ->
  t
(** Fingerprint the allocation [gpus] on [server] under the accumulated
    link [faults] (normalized internally). [root] is the pinned root
    {e rank} if any; [epsilon]/[threshold] are the tree-packing
    parameters and [planner] (default ["treegen"]) the planner-backend
    name — all four shift the digest because they shift the compiled
    plans, so tenants on different backends never share store entries.
    Memoized on the exact realization; the canonical-form
    search is exact for allocations up to ~10 GPUs and falls back to a
    deterministic invariant order (collision-free, less unifying) on
    label-uniform fabrics such as NVSwitch machines.

    A memo hit builds one short realization key (the server's
    construction-time {!Blink_topology.Server.digest}, the GPU tuple,
    faults, root and planner parameters) and does one table lookup under
    the memo lock: 93 minor words and about 1 µs for a DGX-1V slice on a
    2-core VM, against 1,889 words and 12 µs when every hit re-digested
    the server. The bytes of that key and of the class key are a
    contract: non-canonical {!id}s hash the realization key and
    {!class_digest} hashes the class key, so a change to how either is
    spelled re-keys every shared plan. [test_store]'s "fingerprint ids
    pinned" holds them. *)

val id : t -> string
(** The store key: the class digest alone when this realization {e is}
    the class representative, otherwise the class digest plus a
    realization suffix. Equal ids guarantee bit-identical plan
    construction inputs. *)

val class_digest : t -> string
(** Isomorphism-class digest: equal for relabeled allocations with the
    same link structure, capacities and fault states; distinct for
    non-isomorphic or differently degraded ones. *)

val same_class : t -> t -> bool

val is_canonical : t -> bool
(** Whether this exact realization (GPU tuple, faults, root) is the class
    representative, i.e. {!id} is the bare class digest. *)

val canonical_alloc : t -> (int array * Blink_topology.Server.faults) option
(** The class representative: the lexicographically-least GPU tuple
    realizing the canonical label matrix, with the fault list mapped onto
    it. [None] only when the member search blew its budget. *)

val canonical_root : t -> int option
(** The pinned root's position in canonical order, when a root was
    given. *)
