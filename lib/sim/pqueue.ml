(* Arena heaps: float keys, int values, unboxed parallel-array storage.
   These are [Engine.run_prepared]'s event and waiting queues: the heap
   operations dominate large simulations.

   Uniform OCaml calls box float arguments and returns, so a conventional
   [add : t -> float -> ...] costs two minor words per event even with
   monomorphic storage. The staged protocol sidesteps that: the caller
   writes the key into the heap's one-slot [staged] float array (an
   unboxed primitive store) and then calls [add_staged]; [pop_staged]
   symmetrically leaves the popped key in [staged]. Comparators order by
   key — (key) for [Float_int], (key, k2, k3) for [Float_int_int] — and
   then by insertion seq: earlier insertions pop first, which keeps the
   simulator deterministic. *)

module Float_int = struct
  type t = {
    mutable keys : float array;
    mutable vals : int array;
    mutable seqs : int array;
    mutable size : int;
    mutable next_seq : int;
    staged : float array;  (* 1 slot *)
  }

  let create ?(capacity = 16) () =
    let capacity = max 1 capacity in
    {
      keys = Array.make capacity 0.;
      vals = Array.make capacity 0;
      seqs = Array.make capacity 0;
      size = 0;
      next_seq = 0;
      staged = Array.make 1 0.;
    }

  let clear t =
    t.size <- 0;
    t.next_seq <- 0

  let is_empty t = t.size = 0
  let length t = t.size
  let staged t = t.staged

  let less t i j =
    let c = Float.compare t.keys.(i) t.keys.(j) in
    if c <> 0 then c < 0 else t.seqs.(i) < t.seqs.(j)

  let swap t i j =
    let k = t.keys.(i) in
    t.keys.(i) <- t.keys.(j);
    t.keys.(j) <- k;
    let v = t.vals.(i) in
    t.vals.(i) <- t.vals.(j);
    t.vals.(j) <- v;
    let s = t.seqs.(i) in
    t.seqs.(i) <- t.seqs.(j);
    t.seqs.(j) <- s

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && less t l !smallest then smallest := l;
    if r < t.size && less t r !smallest then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let grow t =
    let cap = 2 * Array.length t.keys in
    let keys = Array.make cap 0. in
    Array.blit t.keys 0 keys 0 t.size;
    t.keys <- keys;
    let vals = Array.make cap 0 in
    Array.blit t.vals 0 vals 0 t.size;
    t.vals <- vals;
    let seqs = Array.make cap 0 in
    Array.blit t.seqs 0 seqs 0 t.size;
    t.seqs <- seqs

  let add_staged t value =
    if t.size = Array.length t.keys then grow t;
    let i = t.size in
    t.keys.(i) <- t.staged.(0);
    t.vals.(i) <- value;
    t.seqs.(i) <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    t.size <- i + 1;
    sift_up t i

  let pop_staged t =
    if t.size = 0 then min_int
    else begin
      t.staged.(0) <- t.keys.(0);
      let v = t.vals.(0) in
      let last = t.size - 1 in
      t.size <- last;
      t.keys.(0) <- t.keys.(last);
      t.vals.(0) <- t.vals.(last);
      t.seqs.(0) <- t.seqs.(last);
      if last > 0 then sift_down t 0;
      v
    end

  (* Convenience wrappers (tests, cold paths). *)
  let add t key value =
    t.staged.(0) <- key;
    add_staged t value

  let pop t =
    if t.size = 0 then None
    else
      let v = pop_staged t in
      Some (t.staged.(0), v)
end

module Float_int_int = struct
  type t = {
    mutable k1 : float array;
    mutable k2 : int array;
    mutable k3 : int array;
    mutable seqs : int array;
    mutable size : int;
    mutable next_seq : int;
    staged : float array;  (* 1 slot: the float component of the key *)
  }

  let create ?(capacity = 16) () =
    let capacity = max 1 capacity in
    {
      k1 = Array.make capacity 0.;
      k2 = Array.make capacity 0;
      k3 = Array.make capacity 0;
      seqs = Array.make capacity 0;
      size = 0;
      next_seq = 0;
      staged = Array.make 1 0.;
    }

  let clear t =
    t.size <- 0;
    t.next_seq <- 0

  let is_empty t = t.size = 0
  let length t = t.size
  let staged t = t.staged

  let less t i j =
    let c = Float.compare t.k1.(i) t.k1.(j) in
    if c <> 0 then c < 0
    else
      let c = Int.compare t.k2.(i) t.k2.(j) in
      if c <> 0 then c < 0
      else
        let c = Int.compare t.k3.(i) t.k3.(j) in
        if c <> 0 then c < 0 else t.seqs.(i) < t.seqs.(j)

  let swap t i j =
    let a = t.k1.(i) in
    t.k1.(i) <- t.k1.(j);
    t.k1.(j) <- a;
    let b = t.k2.(i) in
    t.k2.(i) <- t.k2.(j);
    t.k2.(j) <- b;
    let c = t.k3.(i) in
    t.k3.(i) <- t.k3.(j);
    t.k3.(j) <- c;
    let s = t.seqs.(i) in
    t.seqs.(i) <- t.seqs.(j);
    t.seqs.(j) <- s

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && less t l !smallest then smallest := l;
    if r < t.size && less t r !smallest then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let grow t =
    let cap = 2 * Array.length t.k1 in
    let k1 = Array.make cap 0. in
    Array.blit t.k1 0 k1 0 t.size;
    t.k1 <- k1;
    let k2 = Array.make cap 0 in
    Array.blit t.k2 0 k2 0 t.size;
    t.k2 <- k2;
    let k3 = Array.make cap 0 in
    Array.blit t.k3 0 k3 0 t.size;
    t.k3 <- k3;
    let seqs = Array.make cap 0 in
    Array.blit t.seqs 0 seqs 0 t.size;
    t.seqs <- seqs

  let add_staged t k2 k3 =
    if t.size = Array.length t.k1 then grow t;
    let i = t.size in
    t.k1.(i) <- t.staged.(0);
    t.k2.(i) <- k2;
    t.k3.(i) <- k3;
    t.seqs.(i) <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    t.size <- i + 1;
    sift_up t i

  (* The waiting-set value is the key's last component (the op id). *)
  let pop_staged t =
    if t.size = 0 then min_int
    else begin
      t.staged.(0) <- t.k1.(0);
      let v = t.k3.(0) in
      let last = t.size - 1 in
      t.size <- last;
      t.k1.(0) <- t.k1.(last);
      t.k2.(0) <- t.k2.(last);
      t.k3.(0) <- t.k3.(last);
      t.seqs.(0) <- t.seqs.(last);
      if last > 0 then sift_down t 0;
      v
    end

  let add t k1 k2 k3 =
    t.staged.(0) <- k1;
    add_staged t k2 k3

  let pop t =
    if t.size = 0 then None
    else begin
      let a = t.k1.(0) and b = t.k2.(0) in
      let v = pop_staged t in
      Some (a, b, v)
    end
end
