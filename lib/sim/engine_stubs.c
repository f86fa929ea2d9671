/* The timing engine's event loop: Engine.run_prepared's dispatch, in C.

   One loop serves every replay, fault runs included. It reads the
   prepared schedule's flat arrays and writes the arena in place: the
   start/finish/busy float arrays the result aliases, and the arena's
   work buffer (ready times, pending counts, free lanes, the waiting
   heaps and the event heap), an OCaml bytes. The flight recorder's ring
   is written in place too. Nothing is static: all state lives in the
   arena, so arenas stay domain-local.

   Replay is bit-identical to the OCaml loop this replaced (kept as the
   reference under test/):
   - the event heap orders by (time, insertion seq) and each waiting
     heap by (time, stream, op id). Both are strict total orders, so any
     correct heap pops the same sequence; times compare as Float.compare
     does, nan below every other value;
   - every time is computed with the same IEEE additions and compared
     with the same comparisons, and the library is compiled with
     -ffp-contract=off;
   - busy time is summed in op-id order, as before.

   Layouts shared with engine.ml are the S_, A_, R_ and H_ field
   positions below. The work buffer holds, in order: n ready times
   (double), n_res free-lane counts and n_res waiting-heap sizes
   (int64), the waiting heaps (entries, resource r's at wait_off.(r)),
   n pending counts (int32, padded to 8 bytes), then the event heap.
   engine.ml sizes every heap to its peak, so the loop never allocates.
   Only a fault hook that breaks its max_attempts can fill the event
   heap; the loop then stops and reports it.

   The stub calls back into OCaml only for a fault run's attempts. A
   callback may move OCaml blocks, so every OCaml pointer is re-read
   from the rooted arguments afterwards ([load]). An exception raised by
   the fault hook propagates from here; engine.ml releases the arena. */

#include <math.h>
#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/callback.h>
#include <caml/fail.h>

/* Engine.schedule */
enum {
  S_RES_OF, S_DUR, S_OCC, S_LAT, S_STREAM, S_LANES, S_PENDING0, S_DEP_OFF,
  S_DEP, S_SOURCES, S_FUSE_NEXT, S_FUSE_LEN, S_WAIT_OFF
};
/* Engine.arena */
enum { A_START, A_FINISH, A_BUSY, A_WORK, A_MK };
/* Recorder.t */
enum { R_HEAD, R_MASK, R_KIND, R_OP, R_RES, R_TIME };
/* Engine.fault_hook */
enum { H_ATTEMPT, H_IO, H_OCC };

/* Run flags, as engine.ml passes them. */
#define FLAG_FAIR 1
#define FLAG_RECORD 2
#define FLAG_FAULTS 4

/* A heap entry: a time and a 64-bit tie key. Event keys pack the
   insertion seq (high 32 bits) over the value (low 32: an op id, or
   -1 - r for a lane freed on resource r); a run would need 2^32 pushes,
   billions of ops, to wrap the seq. Waiting keys pack the stream over
   the op id. */
typedef struct {
  double t;
  uint64_t k;
} entry;

static inline int less(const entry *a, const entry *b)
{
  if (a->t < b->t) return 1;
  if (a->t > b->t) return 0;
  if (a->t == b->t) return a->k < b->k;
  /* Unordered: Float.compare puts nan below every other float. */
  int an = isnan(a->t), bn = isnan(b->t);
  return an != bn ? an : a->k < b->k;
}

/* 4-ary min-heaps with hole-based sifts. */
static inline void heap_push(entry *h, long i, entry e)
{
  while (i > 0) {
    long p = (i - 1) >> 2;
    if (!less(&e, &h[p])) break;
    h[i] = h[p];
    i = p;
  }
  h[i] = e;
}

/* Pops h[0] from a heap of [n] entries; [n - 1] remain. */
static inline entry heap_pop(entry *h, long n)
{
  entry top = h[0];
  n--;
  if (n > 0) {
    entry last = h[n];
    long i = 0;
    for (;;) {
      long c = 4 * i + 1;
      if (c >= n) break;
      long end = c + 4 < n ? c + 4 : n;
      long m = c;
      for (long j = c + 1; j < end; j++)
        if (less(&h[j], &h[m])) m = j;
      if (!less(&h[m], &last)) break;
      h[i] = h[m];
      i = m;
    }
    h[i] = last;
  }
  return top;
}

/* The stub's rooted arguments: helpers read through these after
   anything that may move a block. */
typedef struct {
  value *sched, *arena, *rec, *hook;
} roots;

/* Raw pointers into the OCaml blocks, valid until the next callback.
   The int arrays hold tagged OCaml ints. */
typedef struct {
  const value *res_of, *stream, *lanes0, *pending0, *dep_off, *dep,
      *sources, *fuse_next, *fuse_len, *wait_off;
  const double *dur, *occ, *lat;
  double *start, *finish, *busy, *mk;
  double *ready;
  int64_t *lanes, *wsize;
  entry *wait;
  int32_t *pending;
  entry *ev;
  long ev_cap;
  value *rkind, *rop, *rres;
  double *rtime;
  long rmask;
  double *io, *hocc;
} ctx;

#define Ints(v) ((const value *)(v))
#define Floats(v) ((double *)(v))

static inline void load(ctx *c, const roots *rt, long n, long n_res)
{
  value s = *rt->sched, a = *rt->arena, r = *rt->rec, h = *rt->hook;
  c->res_of = Ints(Field(s, S_RES_OF));
  c->dur = Floats(Field(s, S_DUR));
  c->occ = Floats(Field(s, S_OCC));
  c->lat = Floats(Field(s, S_LAT));
  c->stream = Ints(Field(s, S_STREAM));
  c->lanes0 = Ints(Field(s, S_LANES));
  c->pending0 = Ints(Field(s, S_PENDING0));
  c->dep_off = Ints(Field(s, S_DEP_OFF));
  c->dep = Ints(Field(s, S_DEP));
  c->sources = Ints(Field(s, S_SOURCES));
  c->fuse_next = Ints(Field(s, S_FUSE_NEXT));
  c->fuse_len = Ints(Field(s, S_FUSE_LEN));
  c->wait_off = Ints(Field(s, S_WAIT_OFF));
  c->start = Floats(Field(a, A_START));
  c->finish = Floats(Field(a, A_FINISH));
  c->busy = Floats(Field(a, A_BUSY));
  c->mk = Floats(Field(a, A_MK));
  c->ready = (double *)Bytes_val(Field(a, A_WORK));
  c->lanes = (int64_t *)(c->ready + n);
  c->wsize = c->lanes + n_res;
  c->wait = (entry *)(c->wsize + n_res);
  c->pending = (int32_t *)(c->wait + Long_val(c->wait_off[n_res]));
  c->ev = (entry *)(c->pending + n + (n & 1));
  c->ev_cap = (long)((caml_string_length(Field(a, A_WORK)) -
                      ((char *)c->ev - (char *)c->ready)) / sizeof(entry));
  c->rkind = (value *)Field(r, R_KIND);
  c->rop = (value *)Field(r, R_OP);
  c->rres = (value *)Field(r, R_RES);
  c->rtime = Floats(Field(r, R_TIME));
  c->rmask = Long_val(Field(r, R_MASK));
  c->io = Floats(Field(h, H_IO));
  c->hocc = Floats(Field(h, H_OCC));
}

/* Loop state besides the arena: the event count, whether the event
   heap overflowed, the next insertion seq, the running makespan and the
   recorder's head. */
typedef struct {
  ctx c;
  long n, n_res;
  long evn;
  int full;
  uint64_t seq;
  double mk;
  long head;
} state;

static inline void ev_push(state *st, double t, long v)
{
  if (st->evn == st->c.ev_cap) {
    st->full = 1;
    return;
  }
  entry e = { t, (st->seq << 32) | (uint32_t)v };
  st->seq++;
  heap_push(st->c.ev, st->evn, e);
  st->evn++;
}

/* The tail every dispatch shares once an op's service is fixed: the
   recorder's begin/end pair, the makespan, and the release of the
   dependents. [skip] is one packed edge to leave alone (a fused chain's
   inline successor), or -1. Packed edges are (dst << 1) | is_stream. */
static inline __attribute__((always_inline)) void
finish_op(state *st, long id, long skip, int record)
{
  ctx *c = &st->c;
  double fin = c->finish[id];
  if (record) {
    long r = Long_val(c->res_of[id]);
    long h = st->head;
    long i = h & c->rmask, j = (h + 1) & c->rmask;
    c->rkind[i] = Val_long(0);
    c->rop[i] = Val_long(id);
    c->rres[i] = Val_long(r);
    c->rtime[i] = c->start[id];
    c->rkind[j] = Val_long(1);
    c->rop[j] = Val_long(id);
    c->rres[j] = Val_long(r);
    c->rtime[j] = fin;
    st->head = h + 2;
  }
  if (fin > st->mk) st->mk = fin;
  long e1 = Long_val(c->dep_off[id + 1]);
  for (long e = Long_val(c->dep_off[id]); e < e1; e++) {
    long packed = Long_val(c->dep[e]);
    if (packed == skip) continue;
    long d = packed >> 1;
    double candidate = (packed & 1) ? fin : fin + c->lat[d];
    if (candidate > c->ready[d]) c->ready[d] = candidate;
    if (--c->pending[d] == 0) ev_push(st, c->ready[d], d);
  }
}

/* One attempt of resourced op [id] under faults: the hook reads the
   start time, nominal duration and occupancy from io and answers there
   with the lane release time, then the finish time (served) or the
   retry's ready time (failed). */
static inline __attribute__((always_inline)) void
attempt(state *st, const roots *rt, long id, long r, double t, int record)
{
  ctx *c = &st->c;
  c->io[0] = t;
  c->io[1] = c->dur[id];
  c->io[2] = c->occ[id];
  if (record) Field(*rt->rec, R_HEAD) = Val_long(st->head);
  value res =
      caml_callback2_exn(Field(*rt->hook, H_ATTEMPT), Val_long(id), Val_long(r));
  if (Is_exception_result(res)) caml_raise(Extract_exception(res));
  load(c, rt, st->n, st->n_res);
  if (record) st->head = Long_val(Field(*rt->rec, R_HEAD));
  c->lanes[r]--;
  ev_push(st, c->io[0], -1 - r);
  if (Bool_val(res)) {
    c->finish[id] = c->io[1];
    finish_op(st, id, -1, record);
  } else {
    ev_push(st, c->io[1], id);
  }
}

static inline __attribute__((always_inline)) void
start_op(state *st, const roots *rt, long id, double t, int record, int faults)
{
  ctx *c = &st->c;
  c->start[id] = t;
  long r = Long_val(c->res_of[id]);
  if (Long_val(c->fuse_len[id]) > 1) {
    /* Fused chain head: one lane serves the whole chain. Each member
       starts at its predecessor's finish; the last one releases the
       lane before its dependents fan out, where the unfused dispatch
       would push its lane-free event. */
    c->lanes[r]--;
    long m = id;
    for (;;) {
      c->finish[m] = c->start[m] + c->dur[m];
      long next = Long_val(c->fuse_next[m]);
      if (next < 0)
        ev_push(st, c->start[m] + c->occ[m], -1 - Long_val(c->res_of[m]));
      finish_op(st, m, (next << 1) | 1, record);
      if (next < 0) break;
      c->start[next] = c->finish[m];
      m = next;
    }
  } else if (faults && r >= 0) {
    attempt(st, rt, id, r, t, record);
  } else {
    c->finish[id] = t + c->dur[id];
    if (r >= 0) {
      c->lanes[r]--;
      ev_push(st, t + c->occ[id], -1 - r);
    }
    finish_op(st, id, -1, record);
  }
}

/* Reset, dispatch every event, then check and sum in op-id order.
   Returns -1, the first op that never became ready, or -2 if the event
   heap overflowed. */
static inline __attribute__((always_inline)) long
run(const roots *rt, int fair, int record, int faults)
{
  state st;
  st.n = Wosize_val(Field(*rt->sched, S_RES_OF));
  st.n_res = Wosize_val(Field(*rt->sched, S_LANES));
  long n = st.n, n_res = st.n_res;
  ctx *c = &st.c;
  load(c, rt, n, n_res);
  for (long i = 0; i < n; i++) {
    c->start[i] = NAN;
    c->finish[i] = NAN;
    c->ready[i] = c->lat[i];
    c->pending[i] = (int32_t)Long_val(c->pending0[i]);
  }
  for (long r = 0; r < n_res; r++) {
    c->busy[r] = 0.;
    c->lanes[r] = Long_val(c->lanes0[r]);
    c->wsize[r] = 0;
  }
  st.evn = 0;
  st.full = 0;
  st.seq = 0;
  st.mk = 0.;
  st.head = record ? Long_val(Field(*rt->rec, R_HEAD)) : 0;
  long n_src = Wosize_val(Field(*rt->sched, S_SOURCES));
  for (long i = 0; i < n_src; i++) {
    long id = Long_val(c->sources[i]);
    ev_push(&st, c->ready[id], id);
  }
  while (st.evn > 0 && !st.full) {
    entry e = heap_pop(c->ev, st.evn);
    st.evn--;
    long v = (int32_t)(uint32_t)e.k;
    if (v >= 0) {
      /* A ready op: start it, or queue it for a lane of its resource. */
      long r = Long_val(c->res_of[v]);
      if (r < 0 || c->lanes[r] > 0) {
        start_op(&st, rt, v, e.t, record, faults);
      } else {
        entry w = { fair ? e.t : 0.,
                    ((uint64_t)Long_val(c->stream[v]) << 32) | (uint64_t)v };
        entry *h = c->wait + Long_val(c->wait_off[r]);
        heap_push(h, c->wsize[r], w);
        c->wsize[r]++;
      }
    } else {
      /* A lane freed on resource -1 - v serves the first waiter at the
         event's time. */
      long r = -1 - v;
      c->lanes[r]++;
      if (c->wsize[r] > 0) {
        entry *h = c->wait + Long_val(c->wait_off[r]);
        entry w = heap_pop(h, c->wsize[r]);
        c->wsize[r]--;
        start_op(&st, rt, (long)(uint32_t)w.k, e.t, record, faults);
      }
    }
  }
  if (record) Field(*rt->rec, R_HEAD) = Val_long(st.head);
  if (st.full) return -2;
  c->mk[0] = st.mk;
  /* Busy totals are a constant of the schedule, summed in op-id order so
     the sum is independent of dispatch order; under faults the hook's
     per-op lane-seconds, failed attempts included, stand in for the
     nominal occupancies. */
  const double *occ = faults ? c->hocc : c->occ;
  for (long id = 0; id < n; id++) {
    if (isnan(c->finish[id])) return id;
    long r = Long_val(c->res_of[id]);
    if (r >= 0) c->busy[r] += occ[id];
  }
  return -1;
}

CAMLprim value blink_engine_run(value vsched, value varena, value vrec,
                                value vhook, value vflags)
{
  CAMLparam5(vsched, varena, vrec, vhook, vflags);
  roots rt = { &vsched, &varena, &vrec, &vhook };
  long flags = Long_val(vflags);
  int fair = (flags & FLAG_FAIR) != 0;
  long stuck;
  if (flags & FLAG_FAULTS)
    stuck = run(&rt, fair, (flags & FLAG_RECORD) != 0, 1);
  else if (flags & FLAG_RECORD)
    stuck = run(&rt, fair, 1, 0);
  else
    stuck = run(&rt, fair, 0, 0);
  CAMLreturn(Val_long(stuck));
}
