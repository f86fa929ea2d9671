(** Multi-GPU server descriptions: NVLink wiring and PCIe hierarchy.

    The DGX-1 hybrid cube-mesh (paper Figure 1): two fully connected quads
    {0,1,2,3} and {4,5,6,7} plus the matching 0-4, 1-5, 2-6, 3-7 — 16 links.
    The DGX-1V keeps the same 16 pairs but 8 of them carry two NVLinks
    (every V100 has 6 ports instead of the P100's 4), and all links are
    gen2. The DGX-2 connects 16 V100s through NVSwitch with 6 NVLinks per
    GPU. *)

type t = private {
  name : string;
  n_gpus : int;
  nvlinks : (int * int * Link.kind) list;
      (** one entry per physical link; [u < v]; empty when NVSwitch-based *)
  nvswitch : Link.kind option;
      (** [Some kind]: all GPUs attach to an NVSwitch with 6 links of that
          kind each *)
  pcie_switches : int list list;
      (** GPU groups per PCIe switch, in switch order *)
  switches_per_cpu : int;  (** leading switches attach to CPU0, rest CPU1 *)
  digest : string;  (** see {!digest} *)
}

type link_state = Degraded of float | Down
    (** Effective state of one NVLink {e pair} (all physical links between
        the two GPUs together): [Degraded f] scales the pair's bandwidth
        to [f] of nominal ([0 < f <= 1], relative to healthy — repeated
        declarations replace, they do not compound); [Down] removes the
        pair entirely. *)

type faults = ((int * int) * link_state) list
(** Link faults keyed by GPU pair (order-insensitive; the last entry for
    a pair wins). *)

val normalize_faults : faults -> faults
(** Canonicalize keys to [(min, max)], drop superseded duplicates and
    validate factors. Raises [Invalid_argument] on a self pair or a
    degradation factor outside [(0, 1]]. *)

val fault_state : faults -> int -> int -> link_state option
(** Lookup on a normalized fault list, order-insensitive. *)

val dgx1p : t
val dgx1v : t
val dgx2 : t

val custom :
  name:string ->
  n_gpus:int ->
  ?nvlinks:(int * int * Link.kind) list ->
  ?nvswitch:Link.kind ->
  ?pcie_switches:int list list ->
  ?switches_per_cpu:int ->
  unit ->
  t
(** Describe any machine — Blink's planners are topology-generic, so this
    is all it takes to target new hardware. [nvlinks] lists physical links
    (repeat a pair for multi-link connections); alternatively [nvswitch]
    declares an NVSwitch-style non-blocking fabric (mutually exclusive
    with [nvlinks]). [pcie_switches] defaults to pairing consecutive GPUs;
    [switches_per_cpu] defaults to half the switches. Raises
    [Invalid_argument] on out-of-range GPU ids, self-links, or PCIe groups
    that do not partition the GPUs. *)

val digest : t -> string
(** Hex MD5 of the whole description: name, GPU count, every physical
    NVLink with its class, the NVSwitch kind, the PCIe groups and
    [switches_per_cpu]. Computed once when the server is built ({!custom}
    and the presets are the only construction sites), so reading it costs
    nothing. Two differently wired servers sharing a name never share a
    digest. Every fingerprint key of the plan store starts from it, so its
    bytes are part of every store id and must never change. *)

val pair_links : t -> int -> int -> (Link.kind * int) option
(** NVLink class and multiplicity between a GPU pair, if directly wired
    (always [None] on NVSwitch machines). *)

val pair_capacity : t -> int -> int -> int
(** Number of direct NVLinks between a pair ([0] if none). *)

val nvlink_bandwidth : t -> float
(** Per-direction bandwidth of one of this server's NVLinks. *)

val pair_weight : t -> int -> int -> float
(** Total NVLink GB/s between a pair; the edge weight used for
    automorphism computations. *)

val nvlink_digraph : ?faults:faults -> t -> gpus:int array -> Blink_graph.Digraph.t
(** Directed capacitated graph over the allocated GPUs only: vertex [i]
    stands for [gpus.(i)]; every physical NVLink contributes one edge in
    each direction with its per-direction bandwidth, tagged with its
    {!Link.kind}. On an NVSwitch server each ordered pair gets a single
    edge of capacity [6 * link / (k - 1)] — the per-peer share of the
    GPU's switch attach bandwidth. [faults] (default none) degrades or
    removes whole NVLink pairs, both directions symmetrically, so the
    graph stays valid for the undirected packing. Raises
    [Invalid_argument] on bad GPU ids, duplicates, bad fault factors, or
    faults on an NVSwitch server. *)

val switch_of_gpu : t -> int -> int
(** Index of the PCIe switch a GPU hangs off. *)

val cpu_of_switch : t -> int -> int

val pp : Format.formatter -> t -> unit
