(** Mixed-integer linear programs by LP-relaxation branch-and-bound.

    {v maximize c.x  subject to  A x <= b,  0 <= x <= upper,
       x_j integer for every j with integer.(j) v}

    Blink's tree minimization (paper section 3.2) is solved through this
    module: variables are candidate-tree weights, constraints are edge
    capacities, and integrality is relaxed one variable at a time until the
    achievable rate is close enough to the fractional optimum. *)

type problem = {
  c : float array;  (** objective coefficients (maximized) *)
  a : float array array;  (** constraint matrix, rows of length [|c|] *)
  b : float array;  (** right-hand sides *)
  upper : float array;  (** per-variable upper bounds (use [infinity] for none) *)
  integer : bool array;  (** which variables must be integral *)
}

type result = { objective : float; solution : float array }

val solve :
  ?max_nodes:int ->
  ?warm_start:float array ->
  ?on_node_limit:(unit -> unit) ->
  problem ->
  result option
(** Best feasible solution, or [None] when infeasible. [max_nodes] bounds
    the branch-and-bound tree (default [200_000]); if exhausted, the best
    incumbent found so far is returned (still [None] if none was found).
    [on_node_limit] is called once, just before returning, when the limit
    cut the search short (some open node was never explored): the result
    is then only a lower bound on the optimum, not the optimum. It is not
    called when branch-and-bound finished; omitting it changes nothing.
    [warm_start], when feasible under {!is_feasible}, seeds the incumbent
    so branch-and-bound starts with its objective as a lower bound and
    prunes everything that cannot beat it — an infeasible warm start is
    silently ignored, and no warm start reproduces today's search
    exactly. Raises [Invalid_argument] on dimension mismatches. *)

val is_feasible : problem -> float array -> bool
(** Whether the assignment satisfies all constraints, bounds and
    integrality requirements (tolerance 1e-6). *)
