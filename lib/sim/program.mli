(** Collective programs: the intermediate representation produced by CodeGen.

    A program is a DAG of operations. Each op belongs to a {e stream}
    (CUDA-stream analogue: ops in the same stream execute in submission
    order) and may carry extra cross-stream dependencies (CUDA-event
    analogue). Ops name the {e resource} they occupy — a directed link or a
    GPU compute engine, both just resource ids assigned by the fabric.

    Ops optionally carry a semantic {!action} describing their effect on GPU
    memory; {!Semantics} replays those actions to check that a schedule
    really computes the collective it claims to, while {!Engine} replays the
    same program for timing. *)

type mem_ref = {
  node : int;  (** fabric node owning the buffer *)
  buf : int;  (** buffer id, per node *)
  off : int;  (** element offset *)
  len : int;  (** element count *)
}

type action =
  | Copy of { src : mem_ref; dst : mem_ref }  (** dst := src *)
  | Reduce of { src : mem_ref; dst : mem_ref }  (** dst := dst + src *)

type kind =
  | Transfer of {
      bytes : float;
      link : int;  (** resource id of the directed link *)
      bw_scale : float;
          (** effective-bandwidth multiplier; < 1 models inline reduction
              slowing the incoming transfer (paper section 2.2) *)
      action : action option;
    }
  | Compute of {
      bytes : float;
      engine : int;  (** resource id of the GPU compute engine *)
      action : action option;
    }
  | Delay of { seconds : float }
      (** fixed-duration op occupying no resource; models one-off latencies
          such as [cudaDeviceDisablePeerAccess] in hybrid transfers *)

type op = private {
  id : int;
  kind : kind;
  stream : int;
  deps : int list;  (** op ids this op waits on, beyond stream order *)
}

type t

val create : unit -> t

val fresh_stream : t -> int
(** Allocate a new empty stream. *)

val add : t -> ?deps:int list -> stream:int -> kind -> int
(** Append an op to a stream; returns its id. Dependencies must refer to
    already-added ops. Raises [Invalid_argument] otherwise. *)

val declare_buffer : t -> node:int -> len:int -> int
(** Declare a buffer of [len] elements on a node; returns the buffer id
    (dense per node, starting at 0). *)

val buffer_len : t -> node:int -> buf:int -> int
(** Declared length; raises [Invalid_argument] for unknown buffers. *)

val buffers : t -> (int * int * int) list
(** All declared buffers as [(node, buf, len)], in declaration order. *)

val resource_of_op : op -> int option
(** The resource an op occupies: its link or compute engine; [None] for
    a {!Delay}, which occupies none. *)

val n_ops : t -> int
val op : t -> int -> op
val ops : t -> op list
val n_streams : t -> int

val stream_ops : t -> int -> int list
(** Op ids of a stream, in submission order. *)

val iter_ops : (op -> unit) -> t -> unit

val iter_stream_edges : (pred:int -> succ:int -> unit) -> t -> unit
(** Visit every implicit stream-order edge: [f ~pred ~succ] for each pair
    of consecutive ops in a stream, streams in ascending order, pairs
    within a stream from tail to head. Each op has at most one stream
    successor and at most one stream predecessor. Shared by the engine's
    schedule preparation and {!Critical_path}'s chain walk. *)

val topological_order : t -> int list
(** Ops ordered consistently with both dependencies and stream order.
    Programs are acyclic by construction (deps point backwards). *)

val pp : Format.formatter -> t -> unit
