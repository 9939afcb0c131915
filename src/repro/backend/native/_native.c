/* Compiled hot-path kernels for the ``native`` backend.
 *
 * The measured hot paths of the machine — the 64-cycle batched scheduling
 * ring, the processor step with its cache-hit and miss issue, packet-pool
 * acquire/release, NIC direction dispatch, the directory controller's
 * pipeline and Table-2 cells, and wormhole route stepping — re-expressed as
 * CPython C-API code over the *same Python data structures* the Python
 * engines use.  That is what makes bit-identity tractable: the heap is
 * the same list of ``(time, seq, callback, arg)`` tuples, and the
 * counters are the same attributes and live slot lists.  What a run does
 * per event stays out of Python objects, though: the 64-cycle ring holds
 * C structs, boxed into heap tuples only when a run returns with events
 * still queued, and the kernels' counter bumps accumulate in C integers
 * that ``core_settle`` folds into those attributes on every way out of a
 * run — so between runs, where Python can look, the machine is the one
 * ``repro/sim/kernel.py``'s ``Simulator`` and the reference classes would
 * leave.
 *
 * Nothing here is imported directly by repro code; ``repro.backend.native``
 * calls ``setup()`` (classes, constants, slot offsets), installs the
 * kernels on the reference objects, and degrades to ``reference`` when the
 * extension is missing or stale.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#define RING 64
#define RING_MASK 63

/* setup.py passes the SHA-256 of this file; the Python side compares it
 * with the source it finds next to the built module. */
#ifndef REPRO_NATIVE_SOURCE_SHA256
#define REPRO_NATIVE_SOURCE_SHA256 ""
#endif

/* ------------------------------------------------------------------ */
/* Module-wide cached objects, filled in by setup().                  */
/* ------------------------------------------------------------------ */

/* Slot offsets of the slotted Python classes the kernels read and write
 * in place, resolved by name in setup(). */
typedef struct {
    Py_ssize_t state, gen, started, resume_value, ops_executed, last_op;
    Py_ssize_t outstanding_stores, pending_op, pending_needs;
    Py_ssize_t burst_ops, burst_pos, spin, mem_done;
} CtxOffsets;

typedef struct {
    Py_ssize_t src, dst, opcode, address, data, meta, sent_at, crc, free;
} PktOffsets;

/* the NetworkStats fields a send adds to */
enum { NS_PACKETS, NS_WORDS, NS_HOPS, NS_LATENCY, NS_CONTENTION, N_NS };

/* cache.controller._Waiter and Mshr */
typedef struct {
    Py_ssize_t kind, addr, payload, callback, issued_at;
} WaiterOffsets;

typedef struct {
    Py_ssize_t block, need_write, opened_at, waiters, retries, epoch;
    Py_ssize_t timeouts, wb_blocked;
} MshrOffsets;

static PyObject *g_sim_error;       /* SimulationError */
static PyObject *g_context_type;    /* proc.processor.Context */
static PyObject *g_no_arg;          /* kernel._NO_ARG sentinel */
static PyObject *g_ctx_done, *g_ctx_running, *g_ctx_blocked, *g_ctx_ready;
#define N_OP_KINDS 8
static PyObject *g_op_kinds[N_OP_KINDS]; /* repro.proc.ops kind constants,
                                            in the step kernel's K_* order */
static PyObject *g_spin_ge, *g_spin_eq; /* ops.GE, ops.EQ */
static PyObject *g_spin_satisfied;  /* ops.spin_satisfied */
static PyObject *g_op_type;         /* packet.Op (IntEnum class) */
static PyObject *g_op_names;        /* packet.OP_NAMES tuple */
static PyObject *g_protocol_packet; /* packet.protocol_packet */
static PyObject *g_op_by_name;      /* packet.OP_BY_NAME dict */
static PyObject *g_waiter_type, *g_mshr_type; /* cache.controller classes */
static PyObject *g_block_data_type; /* mem.memory.BlockData */
static PyObject *g_packet_type;     /* packet.Packet */
/* the opcodes the compiled miss transaction and directory send and receive */
enum { O_RREQ, O_WREQ, O_UPDATE, O_ACKC, O_RDATA, O_WDATA, O_INV, O_REPM,
       O_BUSY, N_MISS_OPS };
static PyObject *g_miss_ops[N_MISS_OPS]; /* Op members */
static long g_op_rdata;             /* int(Op.RDATA); WDATA, INV follow it */
/* coherence.states, as ints: DirState members in the D_* order, the
 * TRAP_ON_WRITE meta state, and controller._WRITE_CLASS as an opcode mask */
enum { D_READ_ONLY, D_READ_WRITE, D_READ_TRANSACTION, D_WRITE_TRANSACTION,
       N_DIR_STATES };
static long g_dir_states[N_DIR_STATES];
static long g_trap_on_write;
static unsigned long long g_write_class;
static PyObject *g_retire_op;       /* ("__retire__",) */
static PyObject *g_str_all;         /* "all" */
static PyObject *g_kinds[3];        /* "load", "store", "rmw": access kinds,
                                       indexed by the A_* codes below */
enum { A_LOAD, A_STORE, A_RMW };
static char g_data_bearing[64];
static long g_last_c2m = 4;
static CtxOffsets g_ctx;
static PktOffsets g_pkt;
static Py_ssize_t g_stat[N_NS];     /* NetworkStats, by NS_* */
static WaiterOffsets g_waiter;
static MshrOffsets g_mshr;
static Py_ssize_t g_block_words;    /* BlockData.words */
static int g_ready = 0;

static PyObject *g_zero;            /* int 0, for resetting burst_pos */
static PyObject *g_one;             /* int 1, burst_pos after the first op */

static PyObject *s_max_cycles, *s_busy_cycles, *s_trap_free_at, *s_contexts;
static PyObject *s_crc_enabled, *s_packets_received, *s_fault_injector;
static PyObject *s_admit, *s_words, *s_send;
static PyObject *s_running, *s_fault_tolerant, *s_request_timeout;
static PyObject *s_update_blocks, *s_wb_buffer, *s_mshrs, *s_packets_sent;
static PyObject *s_miss_latency_total, *s_miss_latency_count;
static PyObject *s_latency_hist, *s_counts, *s_txn;
static PyObject *s_step, *s_last_on_pipeline;

/* Set-up helpers are called from long explicit lists, once per import or
 * per machine: out of line, or -O3 copies them into every call. */
#define SETUP_ONLY __attribute__((noinline, cold))
/* So are the settle's helpers, called once per counter per run. */
#define PER_RUN SETUP_ONLY

/* Resolve the offset of one __slots__ member descriptor. */
static SETUP_ONLY Py_ssize_t
slot_offset(PyObject *cls, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    Py_ssize_t off;
    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        Py_DECREF(descr);
        PyErr_Format(PyExc_TypeError, "%s is not a slot member", name);
        return -1;
    }
    off = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    return off;
}

#define FIELD_AT(obj, off) ((char *)(obj) + (off))
#define SLOT_GET(obj, off) (*(PyObject **)FIELD_AT(obj, off))

/* Replace slot contents, stealing ``value``. */
static inline void
slot_set(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    PyObject **cell = (PyObject **)((char *)obj + off);
    PyObject *old = *cell;
    *cell = value;
    Py_XDECREF(old);
}

static inline void
slot_set_incref(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    Py_INCREF(value);
    slot_set(obj, off, value);
}

/* entry[i] as long long (entries are heap/ring tuples of PyLongs) */
static inline long long
tuple_ll(PyObject *tup, Py_ssize_t i)
{
    return PyLong_AsLongLong(PyTuple_GET_ITEM(tup, i));
}

/* ``cur + delta`` as a new int; a NULL ``cur`` counts as 0 */
static PER_RUN PyObject *
ll_sum(PyObject *cur, long long delta)
{
    long long v = 0;
    if (cur != NULL) {
        v = PyLong_AsLongLong(cur);
        if (v == -1 && PyErr_Occurred())
            return NULL;
    }
    return PyLong_FromLongLong(v + delta);
}

/* Where a counter held in C lands when it is settled: ``*delta`` is added
 * to the Python int and zeroed; on failure it keeps its count. */

/* dict[key] += *delta: an obj.__dict__ attribute, which must exist, or
 * with ``create`` a tally where a missing key counts as 0 */
static PER_RUN int
fold_dict(PyObject *dict, PyObject *key, long long *delta, int create)
{
    PyObject *cur, *sum;
    int rc;
    if (*delta == 0)
        return 0;
    cur = PyDict_GetItemWithError(dict, key);
    if (cur == NULL && (PyErr_Occurred() || !create)) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_AttributeError, key);
        return -1;
    }
    sum = ll_sum(cur, *delta);
    if (sum == NULL)
        return -1;
    rc = PyDict_SetItem(dict, key, sum);
    Py_DECREF(sum);
    if (rc == 0)
        *delta = 0;
    return rc;
}

/* list[i] += *delta (a counter slot view, the fabric's link_busy) */
static PER_RUN int
fold_list(PyObject *list, Py_ssize_t i, long long *delta)
{
    PyObject *cur, *sum;
    if (*delta == 0)
        return 0;
    cur = PyList_GetItem(list, i);
    sum = cur != NULL ? ll_sum(cur, *delta) : NULL;
    if (sum == NULL || PyList_SetItem(list, i, sum) < 0) /* steals */
        return -1;
    *delta = 0;
    return 0;
}

/* slot-stored int += *delta (a NetworkStats field) */
static PER_RUN int
fold_slot(PyObject *obj, Py_ssize_t off, long long *delta)
{
    PyObject *sum;
    if (*delta == 0)
        return 0;
    sum = ll_sum(SLOT_GET(obj, off), *delta);
    if (sum == NULL)
        return -1;
    slot_set(obj, off, sum);
    *delta = 0;
    return 0;
}

/* ``bag[name] += amount`` on a counter bag, deferred: the name enters the
 * bag now, where Python's bump would have put it (a bag's order is
 * visible in reports), the amount at the next settle. */
static inline int
tally_named(PyObject *bag, PyObject *name, long long *delta, long long amount)
{
    if (*delta == 0 && PyDict_SetDefault(bag, name, g_zero) == NULL)
        return -1;
    *delta += amount;
    return 0;
}

static long long
dict_get_ll(PyObject *dict, PyObject *key, int *err)
{
    PyObject *cur = PyDict_GetItemWithError(dict, key);
    long long v;
    if (cur == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_AttributeError, key);
        *err = 1;
        return 0;
    }
    v = PyLong_AsLongLong(cur);
    if (v == -1 && PyErr_Occurred()) {
        *err = 1;
        return 0;
    }
    return v;
}

/* ------------------------------------------------------------------ */
/* Heap of (time, seq, callback, arg, event) tuples on a PyList.      */
/* Pop order matches heapq because (time, seq) keys are unique.       */
/* ------------------------------------------------------------------ */

static inline int
entry_lt(PyObject *a, PyObject *b)
{
    long long ta = tuple_ll(a, 0), tb = tuple_ll(b, 0);
    if (ta != tb)
        return ta < tb;
    return tuple_ll(a, 1) < tuple_ll(b, 1);
}

/* Push ``entry`` (new strong reference is taken). */
static int
heap_push(PyObject *queue, PyObject *entry)
{
    Py_ssize_t pos, parent;
    PyObject **items;
    if (PyList_Append(queue, entry) < 0)
        return -1;
    items = ((PyListObject *)queue)->ob_item;
    pos = PyList_GET_SIZE(queue) - 1;
    while (pos > 0) {
        parent = (pos - 1) >> 1;
        if (entry_lt(items[pos], items[parent])) {
            PyObject *tmp = items[pos];
            items[pos] = items[parent];
            items[parent] = tmp;
            pos = parent;
        }
        else
            break;
    }
    return 0;
}

/* Pop the smallest entry; returns a new reference or NULL if empty. */
static PyObject *
heap_pop(PyObject *queue)
{
    Py_ssize_t n = PyList_GET_SIZE(queue);
    PyObject **items = ((PyListObject *)queue)->ob_item;
    PyObject *smallest, *last;
    Py_ssize_t pos, child;
    if (n == 0)
        return NULL;
    smallest = items[0];
    Py_INCREF(smallest);
    last = items[n - 1];
    Py_INCREF(last);
    if (PyList_SetSlice(queue, n - 1, n, NULL) < 0) {
        Py_DECREF(smallest);
        Py_DECREF(last);
        return NULL;
    }
    n -= 1;
    if (n == 0) {
        Py_DECREF(last);
        return smallest;
    }
    items = ((PyListObject *)queue)->ob_item;
    /* sift ``last`` down from the root */
    Py_DECREF(items[0]);
    items[0] = last;
    pos = 0;
    for (;;) {
        child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && entry_lt(items[child + 1], items[child]))
            child += 1;
        if (entry_lt(items[child], items[pos])) {
            PyObject *tmp = items[pos];
            items[pos] = items[child];
            items[child] = tmp;
            pos = child;
        }
        else
            break;
    }
    return smallest;
}

/* ------------------------------------------------------------------ */
/* Core: the batched-ring event kernel state                          */
/* ------------------------------------------------------------------ */

/* One queued ring event: a heap tuple without its time, which is the
 * slot's. */
typedef struct {
    long long seq;
    PyObject *cb, *arg;
} RingEntry;

/* One cycle's events, oldest first: items[head..n) are queued; a drain
 * in progress has consumed the cells before ``head``. */
typedef struct {
    RingEntry *items;
    Py_ssize_t head, n, cap;
} RingSlot;

/* A kernel's membership of its core's settle list.  The core's pointers
 * to kernels are borrowed (every kernel owns its core; owning them back
 * would be a cycle only the collector could break), so a kernel leaves
 * the list in tp_clear, and a core that is cleared first empties it. */
typedef struct Settler {
    struct Settler *next, **link;   /* ``link`` NULL: on no list */
    PyObject *owner;                /* the kernel this sits in */
} Settler;

/* a kernel's C counters -> the Python objects they stand for */
static int kernel_fold(PyObject *owner);

typedef struct {
    PyObject_HEAD
    long long now, seq, executed;
    unsigned long long ring_mask;
    int running;
    PyObject *queue;        /* list of heap tuples */
    RingSlot ring[RING];
    Settler *settlers;
    PyObject *sim;          /* owning NativeSimulator (GC-managed cycle) */
} CoreObject;

static PyTypeObject Core_Type;

static PyObject *
Core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CoreObject *self;
    if (!g_ready) {
        PyErr_SetString(PyExc_RuntimeError, "_native.setup() not called");
        return NULL;
    }
    self = (CoreObject *)type->tp_alloc(type, 0); /* zeroed */
    if (self == NULL)
        return NULL;
    self->queue = PyList_New(0);
    if (self->queue == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static void
settler_leave(Settler *s)
{
    if (s->link == NULL)
        return;
    *s->link = s->next;
    if (s->next != NULL)
        s->next->link = s->link;
    s->next = NULL;
    s->link = NULL;
}

static void
settler_join(CoreObject *core, Settler *s, PyObject *owner)
{
    settler_leave(s);
    s->owner = owner;
    s->next = core->settlers;
    s->link = &core->settlers;
    if (s->next != NULL)
        s->next->link = &s->next;
    core->settlers = s;
}

/* A kernel being torn down: it folds what it still holds (nothing,
 * unless it was replaced in the middle of a run) and leaves the list. */
static PER_RUN void
settler_retire(Settler *s)
{
    if (s->link != NULL) {
        PyObject *exc, *val, *tb;
        PyErr_Fetch(&exc, &val, &tb);
        if (kernel_fold(s->owner) < 0)
            PyErr_Clear();
        PyErr_Restore(exc, val, tb);
        settler_leave(s);
    }
}

/* Fold every kernel's C counters into the Python objects they stand for:
 * on every way out of run/run_until, and after a kernel call made outside
 * one, so Python never finds a counter short.  Additions commute, so
 * Python code bumping the same attribute in between stays exact.  An
 * exception already pending is kept (a fold failing under it is dropped);
 * otherwise the first fold failure is raised once the rest have folded.
 * Returns -1 whenever an exception is set on the way out. */
static PER_RUN int
core_settle(CoreObject *core)
{
    PyObject *exc, *val, *tb;
    Settler *s;
    PyErr_Fetch(&exc, &val, &tb);
    for (s = core->settlers; s != NULL; s = s->next)
        if (kernel_fold(s->owner) < 0) {
            if (exc == NULL)
                PyErr_Fetch(&exc, &val, &tb);
            else
                PyErr_Clear();
        }
    if (exc == NULL)
        return 0;
    PyErr_Restore(exc, val, tb);
    return -1;
}

static inline void
entry_release(RingEntry *e)
{
    Py_DECREF(e->cb);
    Py_DECREF(e->arg);
}

static int
Core_traverse(CoreObject *self, visitproc visit, void *arg)
{
    int i;
    Py_ssize_t j;
    Py_VISIT(self->queue);
    for (i = 0; i < RING; i++)
        for (j = self->ring[i].head; j < self->ring[i].n; j++) {
            Py_VISIT(self->ring[i].items[j].cb);
            Py_VISIT(self->ring[i].items[j].arg);
        }
    Py_VISIT(self->sim);
    return 0;
}

static int
Core_clear(CoreObject *self)
{
    int i;
    for (i = 0; i < RING; i++) {
        RingSlot *slot = &self->ring[i];
        while (slot->head < slot->n)
            entry_release(&slot->items[slot->head++]);
        slot->head = slot->n = 0;
    }
    self->ring_mask = 0;
    while (self->settlers != NULL)
        settler_leave(self->settlers);
    Py_CLEAR(self->queue);
    Py_CLEAR(self->sim);
    return 0;
}

static void
Core_dealloc(CoreObject *self)
{
    int i;
    PyObject_GC_UnTrack(self);
    Core_clear(self);
    for (i = 0; i < RING; i++)
        PyMem_Free(self->ring[i].items);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Core_bind(CoreObject *self, PyObject *sim)
{
    Py_INCREF(sim);
    Py_XSETREF(self->sim, sim);
    Py_RETURN_NONE;
}

/* -- scheduling ----------------------------------------------------- */

static PyObject *
sched_error(long long time, long long now)
{
    PyErr_Format(g_sim_error,
                 "cannot schedule event at %lld, now is %lld", time, now);
    return NULL;
}

/* Queue an entry in the ring (caller guarantees mid-run and
 * time - now < RING).  One struct write: the array doubles when full,
 * after reclaiming what a drain has consumed once that is half of it. */
static int
core_ring_push(CoreObject *core, long long time, long long seq, PyObject *cb,
               PyObject *arg)
{
    RingSlot *slot = &core->ring[time & RING_MASK];
    RingEntry *e;
    if (slot->n == slot->cap) {
        if (slot->head > 0 && slot->head >= slot->cap / 2) {
            slot->n -= slot->head;
            memmove(slot->items, slot->items + slot->head,
                    slot->n * sizeof(RingEntry));
            slot->head = 0;
        }
        else {
            Py_ssize_t cap = slot->cap ? 2 * slot->cap : 8;
            RingEntry *items = PyMem_Realloc(slot->items,
                                             cap * sizeof(RingEntry));
            if (items == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            slot->items = items;
            slot->cap = cap;
        }
    }
    e = &slot->items[slot->n++];
    e->seq = seq;
    Py_INCREF(cb);
    e->cb = cb;
    Py_INCREF(arg);
    e->arg = arg;
    core->ring_mask |= 1ULL << (time & RING_MASK);
    return 0;
}

/* Take the oldest entry of a non-empty slot (its references move to
 * ``*out``); an emptied slot goes back to the start of its array. */
static inline void
slot_pop(RingSlot *slot, RingEntry *out)
{
    *out = slot->items[slot->head++];
    if (slot->head == slot->n)
        slot->head = slot->n = 0;
}

/* Push ``(time, seq, cb, arg)`` on the heap; ``t_obj`` is ``time`` as
 * an int when the caller has one. */
static int
core_heap_push(CoreObject *core, long long time, PyObject *t_obj,
               long long seq, PyObject *cb, PyObject *arg)
{
    PyObject *seq_obj = PyLong_FromLongLong(seq), *entry;
    int rc;
    if (seq_obj == NULL)
        return -1;
    if (t_obj == NULL)
        t_obj = PyLong_FromLongLong(time);
    else
        Py_INCREF(t_obj);
    entry = t_obj != NULL ? PyTuple_New(4) : NULL;
    if (entry == NULL) {
        Py_DECREF(seq_obj);
        Py_XDECREF(t_obj);
        return -1;
    }
    PyTuple_SET_ITEM(entry, 0, t_obj);
    PyTuple_SET_ITEM(entry, 1, seq_obj);
    Py_INCREF(cb);
    PyTuple_SET_ITEM(entry, 2, cb);
    Py_INCREF(arg);
    PyTuple_SET_ITEM(entry, 3, arg);
    rc = heap_push(core->queue, entry);
    Py_DECREF(entry);
    return rc;
}

/* Simulator.post with the ring for its lane: ring when mid-run and near,
 * else heap. */
static int
core_post_impl(CoreObject *core, long long time, PyObject *time_obj,
               PyObject *cb, PyObject *arg)
{
    if (time < core->now) {
        sched_error(time, core->now);
        return -1;
    }
    if (core->running && time - core->now < RING)
        return core_ring_push(core, time, core->seq++, cb, arg);
    return core_heap_push(core, time, time_obj, core->seq++, cb, arg);
}

/* A time (or delay, or run limit) must be exactly an int (the ring cannot
 * hold anything else, and the Python kernel refuses the rest the same
 * way) that fits the cycle counter: 0, or -1 with the error set. */
static int
parse_cycle(PyObject *obj, const char *name, long long *out)
{
    if (!PyLong_CheckExact(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not %.80s", name,
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    *out = PyLong_AsLongLong(obj);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        PyErr_Format(g_sim_error, "%s %R is outside the cycle counter", name,
                     obj);
        return -1;
    }
    return 0;
}

/* ``(time, callback, arg=...)`` or ``(delay, callback, arg=...)``,
 * positionally or by the names the Python kernel gives them. */
static int
parse_time_cb_arg(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
                  const char *first, long long *time, PyObject **time_obj,
                  PyObject **cb, PyObject **arg)
{
    const char *const names[3] = {first, "callback", "arg"};
    PyObject *got[3] = {NULL, NULL, NULL};
    Py_ssize_t i, j, nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    for (i = 0; i < nargs && i < 3; i++)
        got[i] = args[i];
    for (i = 0; i < nkw; i++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, i);
        for (j = 0; j < 3; j++)
            if (PyUnicode_CompareWithASCIIString(name, names[j]) == 0)
                break;
        if (j == 3 || got[j] != NULL) {
            PyErr_Format(PyExc_TypeError, "unexpected or repeated keyword %R",
                         name);
            return -1;
        }
        got[j] = args[nargs + i];
    }
    if (nargs > 3 || got[0] == NULL || got[1] == NULL) {
        PyErr_Format(PyExc_TypeError, "expected (%s, callback, arg=...)",
                     first);
        return -1;
    }
    if (parse_cycle(got[0], first, time) < 0)
        return -1;
    *time_obj = got[0];
    *cb = got[1];
    *arg = got[2] != NULL ? got[2] : g_no_arg;
    return 0;
}

/* ``now + delay`` for post_after, refusing a negative delay
 * and a sum past the cycle counter: -1 with the error set. */
static long long
time_after(CoreObject *core, long long delay)
{
    long long time;
    if (delay < 0)
        PyErr_Format(g_sim_error, "negative delay %lld", delay);
    else if (__builtin_add_overflow(core->now, delay, &time))
        PyErr_Format(g_sim_error, "delay %lld is outside the cycle counter",
                     delay);
    else
        return time;
    return -1;
}

static PyObject *
Core_post(CoreObject *self, PyObject *const *args, Py_ssize_t nargs,
          PyObject *kwnames)
{
    PyObject *time_obj, *cb, *arg;
    long long time;
    if (parse_time_cb_arg(args, nargs, kwnames, "time", &time, &time_obj,
                          &cb, &arg) < 0 ||
        core_post_impl(self, time, time_obj, cb, arg) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_post_after(CoreObject *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    PyObject *time_obj, *cb, *arg;
    long long delay, time;
    if (parse_time_cb_arg(args, nargs, kwnames, "delay", &delay, &time_obj,
                          &cb, &arg) < 0 ||
        (time = time_after(self, delay)) < 0 ||
        core_post_impl(self, time, NULL, cb, arg) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* -- execution ------------------------------------------------------ */

/* Spill ring entries back into the heap with their original seqs: the
 * only place a ring entry is boxed.  An entry leaves its slot as it is
 * pushed, so a failure part-way loses nothing. */
static PER_RUN int
core_flush_ring(CoreObject *core)
{
    unsigned long long mask = core->ring_mask;
    long long now = core->now;
    while (mask) {
        int slot_idx = __builtin_ctzll(mask);
        RingSlot *slot = &core->ring[slot_idx];
        long long time = now + (((long long)slot_idx - now) & RING_MASK);
        PyObject *t_obj = PyLong_FromLongLong(time);
        if (t_obj == NULL)
            return -1;
        while (slot->head < slot->n) {
            RingEntry *e = &slot->items[slot->head];
            if (core_heap_push(core, time, t_obj, e->seq, e->cb, e->arg) < 0) {
                Py_DECREF(t_obj);
                return -1;
            }
            slot->head += 1;
            entry_release(e);
        }
        Py_DECREF(t_obj);
        slot->head = slot->n = 0;
        mask &= mask - 1;
        core->ring_mask = mask;
    }
    return 0;
}

/* Earliest ring time strictly after now: 1 with *out set, 0 when the
 * ring is empty.  Called with now's slot empty, and a set bit is a
 * non-empty slot, so the first set bit after now's is the answer. */
static int
core_next_ring_time(CoreObject *core, long long *out)
{
    unsigned long long mask = core->ring_mask, rot;
    int start;
    if (!mask)
        return 0;
    start = (int)((core->now + 1) & RING_MASK);
    rot = start ? ((mask >> start) | (mask << (RING - start))) : mask;
    *out = core->now + 1 + __builtin_ctzll(rot);
    return 1;
}

/* Run one entry taken off the ring or the heap, consuming its
 * references: 0, or -1 when the callback raised.  It counts before it is
 * called, as the reference kernel counts it. */
static inline int
core_dispatch(CoreObject *core, RingEntry *e)
{
    PyObject *res;
    core->executed += 1;
    res = (e->arg == g_no_arg) ? PyObject_CallNoArgs(e->cb)
                               : PyObject_CallOneArg(e->cb, e->arg);
    entry_release(e);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Pop the heap's head into ``*e`` (new references) and its time into
 * ``*time``: 0, or -1 on error. */
static int
core_heap_pop(CoreObject *core, RingEntry *e, long long *time)
{
    PyObject *entry = heap_pop(core->queue);
    if (entry == NULL)
        return -1;
    *time = tuple_ll(entry, 0);
    e->cb = Py_NewRef(PyTuple_GET_ITEM(entry, 2));
    e->arg = Py_NewRef(PyTuple_GET_ITEM(entry, 3));
    Py_DECREF(entry);
    return 0;
}

/* Simulator._run_loop with a 64-slot ring in place of its same-cycle
 * lane: until_mode is its ``strict`` (run_until: events AT the limit stay
 * queued); otherwise they run and now stops at the limit only if
 * something later is pending (LLONG_MAX: no limit).  The ring takes any
 * event scheduled mid-run for the next RING cycles, and the order stays
 * Simulator's exact (time, seq) order:
 *  - seqs come from the one unconditional counter, so every event has
 *    the key it would have under Simulator;
 *  - at any time t, every heap entry has a smaller seq than every ring
 *    entry: one is in the ring only if it was pushed mid-run with
 *    t < now + RING, and every later schedule for t meets that bound too
 *    (now is monotone), so it lands behind it.  "Heap first iff its head
 *    is at now with the smaller seq", the lane's rule, is thus exact;
 *  - while a slot drains, the heap gains nothing at now (same-cycle
 *    schedules land in the ring), so the drain skips the heap check; it
 *    re-reads the slot after every callback, and a raising callback
 *    leaves the tail where it was;
 *  - every way out settles the kernels' counters and spills the ring into
 *    the heap with the original seqs, so between runs — where checkpoints
 *    digest the queue and windowed drivers peek — the queue is the one
 *    Simulator would hold.
 * tests/backend/test_cosim_property.py runs both against a heap oracle. */
static int
core_run_loop(CoreObject *core, int until_mode, long long limit)
{
    PyObject *queue = core->queue;
    int rc = 0;
    core->running = 1;
    while (rc == 0) {
        RingSlot *slot = &core->ring[core->now & RING_MASK];
        RingEntry e;
        long long t_ring = 0, next;
        int has_ring, from_heap;
        if (slot->head < slot->n) {
            if (PyList_GET_SIZE(queue) &&
                tuple_ll(PyList_GET_ITEM(queue, 0), 0) == core->now) {
                /* Rare: pre-run events share this cycle. */
                if (tuple_ll(PyList_GET_ITEM(queue, 0), 1) <
                    slot->items[slot->head].seq)
                    rc = core_heap_pop(core, &e, &next);
                else {
                    slot_pop(slot, &e);
                    if (slot->n == 0)
                        core->ring_mask &= ~(1ULL << (core->now & RING_MASK));
                }
                if (rc == 0)
                    rc = core_dispatch(core, &e);
                continue;
            }
            /* Batch drain: the heap provably holds nothing at now, and
             * the walk re-reads the slot after every callback. */
            while (rc == 0 && slot->head < slot->n) {
                slot_pop(slot, &e);
                rc = core_dispatch(core, &e);
            }
            if (rc == 0)
                core->ring_mask &= ~(1ULL << (core->now & RING_MASK));
            continue;
        }
        has_ring = core_next_ring_time(core, &t_ring);
        from_heap = PyList_GET_SIZE(queue) &&
                    (!has_ring ||
                     tuple_ll(PyList_GET_ITEM(queue, 0), 0) <= t_ring);
        if (from_heap)
            next = tuple_ll(PyList_GET_ITEM(queue, 0), 0);
        else if (has_ring)
            next = t_ring;
        else
            break;
        if (until_mode ? next >= limit : next > limit) {
            core->now = limit;
            break;
        }
        if (!from_heap) {
            core->now = next;
            continue;
        }
        rc = core_heap_pop(core, &e, &next);
        if (rc == 0) {
            core->now = next;
            rc = core_dispatch(core, &e);
        }
    }
    core->running = 0;
    if (core_settle(core) < 0)
        rc = -1;
    if (core->ring_mask) {
        PyObject *exc, *val, *tb;
        PyErr_Fetch(&exc, &val, &tb);
        if (core_flush_ring(core) < 0 && exc == NULL)
            return -1;
        PyErr_Clear();
        PyErr_Restore(exc, val, tb);
    }
    return rc;
}

/* A run limit is a cycle count like any scheduled time, and no earlier
 * than now: 0, or -1 with the error set. */
static int
core_limit(CoreObject *core, PyObject *obj, long long *limit)
{
    if (parse_cycle(obj, "time", limit) < 0)
        return -1;
    if (*limit < core->now) {
        PyErr_Format(g_sim_error, "cannot run to %lld, now is %lld", *limit,
                     core->now);
        return -1;
    }
    return 0;
}

static PyObject *
Core_run(CoreObject *self, PyObject *const *args, Py_ssize_t nargs,
         PyObject *kwnames)
{
    PyObject *until = Py_None, *max_cycles = NULL;
    long long limit = LLONG_MAX;
    int rc;
    if (nargs > 1 || (kwnames && PyTuple_GET_SIZE(kwnames) > 1)) {
        PyErr_SetString(PyExc_TypeError, "run() takes at most 1 argument");
        return NULL;
    }
    if (nargs == 1)
        until = args[0];
    if (kwnames && PyTuple_GET_SIZE(kwnames) == 1) {
        if (nargs == 1 ||
            PyUnicode_CompareWithASCIIString(
                PyTuple_GET_ITEM(kwnames, 0), "until") != 0) {
            PyErr_SetString(PyExc_TypeError, "unexpected keyword");
            return NULL;
        }
        until = args[0];
    }
    if (until == Py_None && self->sim != NULL) {
        max_cycles = PyObject_GetAttr(self->sim, s_max_cycles);
        if (max_cycles == NULL)
            return NULL;
        until = max_cycles;
    }
    rc = until == Py_None ? 0 : core_limit(self, until, &limit);
    Py_XDECREF(max_cycles);
    if (rc < 0 || core_run_loop(self, 0, limit) < 0)
        return NULL;
    return PyLong_FromLongLong(self->now);
}

static PyObject *
Core_run_until(CoreObject *self, PyObject *limit_obj)
{
    long long limit;
    if (core_limit(self, limit_obj, &limit) < 0)
        return NULL;
    /* the ring is empty between runs: an empty window skips the run */
    if (PyList_GET_SIZE(self->queue) &&
        tuple_ll(PyList_GET_ITEM(self->queue, 0), 0) < limit &&
        core_run_loop(self, 1, limit) < 0)
        return NULL;
    self->now = limit;
    return PyLong_FromLongLong(limit);
}

static PyObject *
Core_flush_ring_py(CoreObject *self, PyObject *noarg)
{
    if (core_flush_ring(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef Core_methods[] = {
    {"bind", (PyCFunction)Core_bind, METH_O, NULL},
    {"post", (PyCFunction)(void (*)(void))Core_post,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"post_after", (PyCFunction)(void (*)(void))Core_post_after,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"run", (PyCFunction)(void (*)(void))Core_run,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"run_until", (PyCFunction)Core_run_until, METH_O, NULL},
    {"flush_ring", (PyCFunction)Core_flush_ring_py, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

/* Getsets over a C field, the closure its offset: a long long, and an int
 * read and set as a bool.  Core and Pool's scalars are all settable, so
 * the Python wrappers stay drop-in. */
static PyObject *
ll_get(PyObject *self, void *off)
{
    return PyLong_FromLongLong(*(long long *)FIELD_AT(self, (size_t)off));
}

static int
ll_set(PyObject *self, PyObject *v, void *off)
{
    long long x = PyLong_AsLongLong(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *(long long *)FIELD_AT(self, (size_t)off) = x;
    return 0;
}

static PyObject *
flag_get(PyObject *self, void *off)
{
    return PyBool_FromLong(*(int *)FIELD_AT(self, (size_t)off));
}

static int
flag_set(PyObject *self, PyObject *v, void *off)
{
    int x = PyObject_IsTrue(v);
    if (x < 0)
        return -1;
    *(int *)FIELD_AT(self, (size_t)off) = x;
    return 0;
}

#define FIELD_GETSET(kind, T, f)                                         \
    {#f, kind##_get, kind##_set, NULL, (void *)offsetof(T, f)}

static PyObject *
Core_get_queue(CoreObject *s, void *c)
{
    Py_INCREF(s->queue);
    return s->queue;
}

static PyGetSetDef Core_getsets[] = {
    FIELD_GETSET(ll, CoreObject, now), FIELD_GETSET(ll, CoreObject, seq),
    FIELD_GETSET(ll, CoreObject, executed),
    FIELD_GETSET(flag, CoreObject, running),
    {"queue", (getter)Core_get_queue, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject Core_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro._native.Core",
    .tp_basicsize = sizeof(CoreObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = Core_new,
    .tp_dealloc = (destructor)Core_dealloc,
    .tp_traverse = (traverseproc)Core_traverse,
    .tp_clear = (inquiry)Core_clear,
    .tp_methods = Core_methods,
    .tp_getset = Core_getsets,
};

/* ------------------------------------------------------------------ */
/* StepKernel: the processor step over the SoA columns, compiled.     */
/* Mirrors Processor._step + _issue + CacheController.hit + _mem_done */
/* exactly, but a hit completes by posting _step itself, its result   */
/* pre-staged in resume_value, not the mem_done partial: unobservable */
/* because a blocked context's only wake-up is that event.            */
/* ------------------------------------------------------------------ */

/* Counter cells the kernel bumps, by position in the ``cache_slot_ids``
 * and ``proc_slot_ids`` tuples of the spec. */
enum { CS_HIT, CS_MISS = CS_HIT + 3, CS_UPGRADES = CS_MISS + 3, CS_FILLS,
       CS_INV_RECEIVED, CS_LOCAL_REQ, CS_REMOTE_REQ, N_CS };
enum { PS_THINK, PS_REMOTE_STALL, PS_LOCAL_STALL, N_PS };

/* Why a step of the miss transaction — the cache side's issue, fill and
 * invalidate, the directory's receive and process — went back to its
 * Python method. */
enum { HB_FAULT_TOLERANT, HB_REQUEST_TIMEOUT, HB_CRC, HB_UPDATE_BLOCK,
       HB_WB_BUFFER, HB_MSHR_MERGE, HB_VICTIM, HB_REPLAY, HB_FABRIC, HB_POOL,
       HB_MALFORMED, HB_DIR_META, HB_DIR_OVERFLOW, HB_DIR_OVERRIDE,
       HB_DIR_ERROR, N_HANDBACKS };
static const char *const handback_names[N_HANDBACKS] = {
    "fault_tolerant", "request_timeout", "crc", "update_block", "wb_buffer",
    "mshr_merge", "victim", "replay", "fabric", "pool", "malformed",
    "dir_meta", "dir_overflow", "dir_override", "dir_error"};

/* What every kernel object starts with: called like a function, it owns
 * its core and sits on the core's settle list. */
#define KERNEL_HEAD                                                      \
    PyObject_HEAD                                                        \
    vectorcallfunc vectorcall;                                           \
    CoreObject *core;       /* strong */                                 \
    Settler settler;
typedef struct {
    KERNEL_HEAD
} KernelHead;

/* What a kernel's entry point returns: when the call came from outside a
 * run, where no run exit will settle for it (a pre-run send,
 * Simulator.step(), a test poking the kernel), it settles first. */
static inline PyObject *
settled(CoreObject *core, PyObject *result)
{
    if (!core->running && core_settle(core) < 0)
        Py_CLEAR(result);
    return result;
}

#define KERNEL_ENTRY(name, impl)                                         \
    static PyObject *name(PyObject *self, PyObject *const *args,         \
                          size_t nargsf, PyObject *kwnames)              \
    {                                                                    \
        return settled(((KernelHead *)self)->core,                       \
                       impl(self, args, nargsf, kwnames));               \
    }

/* ------------------------------------------------------------------ */
/* A kernel's fields, declared once                                    */
/* ------------------------------------------------------------------ */

/* Each kernel lists its fields in one X-macro, a line a field.  The list
 * makes the struct members and the table that the shared init, traverse,
 * clear and settle fold below walk, so a field cannot be added to one of
 * them and forgotten in another.  A line is one of
 *   X(REF, f, key, type)   f = spec[key], owned; ``type`` NULL, or the
 *                          type (or a subtype) spec[key] must have
 *   X(DICT, f, of)         f = the __dict__ of the owned field ``of``
 *   X(HELD, f, dim)        owned, set (or not) by the kernel's own init
 *   X(LL, f, key)          f = spec[key], an int
 *   X(IDS, f, key, dim)    f = spec[key], a tuple of ints
 * or a counter held in C until the settle (docs/BACKENDS.md, "The settle
 * contract"):
 *   X(ATTR, f, dict, name)         dict[name] += f; the entry must exist
 *   X(TALLY, f, dim, bag, names)   bag[names[i]] += f[i], from 0
 *   X(CELLS, f, dim, list, ids)    list[ids[i]] += f[i]
 *   X(SLOTS, f, dim, obj, offs)    the slot at offs[i] of obj += f[i]
 * ``dim`` is ``[n]`` for an array, empty for one value.  Counters fold in
 * the order they are declared. */
enum { F_END, F_REF, F_DICT, F_HELD, /* the owned objects: F_HELD and below */
       F_LL, F_IDS,
       F_ATTR, F_TALLY, F_CELLS, F_SLOTS /* the counters: F_ATTR and up */ };

typedef struct {
    int kind;
    Py_ssize_t n;               /* values at ``off``: 1, or an array's */
    size_t off;                 /* the field */
    size_t of;                  /* DICT: its owner; a counter: its target */
    size_t ids;                 /* CELLS: the field holding the indices */
    const char *key;            /* REF, LL, IDS: the spec key */
    PyTypeObject *type;         /* REF: what spec[key] must be, or NULL */
    PyObject **names;           /* ATTR, TALLY: interned names */
    const Py_ssize_t *slots;    /* SLOTS: slot offsets */
} KernelField;

#define MEMBER(K, ...) MEMBER_##K(__VA_ARGS__)
#define MEMBER_REF(f, key, type) PyObject *f;
#define MEMBER_DICT(f, of) PyObject *f;
#define MEMBER_HELD(f, dim) PyObject *f dim;
#define MEMBER_LL(f, key) long long f;
#define MEMBER_IDS(f, key, dim) long long f dim;
#define MEMBER_ATTR(f, dict, name) long long f;
#define MEMBER_TALLY(f, dim, bag, names) long long f dim;
#define MEMBER_CELLS(f, dim, list, ids) long long f dim;
#define MEMBER_SLOTS(f, dim, obj, offs) long long f dim;

/* A table row, for the struct ``KT`` names where it expands. */
#define KOFF(f) offsetof(KT, f)
#define KLEN(f, elem) ((Py_ssize_t)(sizeof(((KT *)0)->f) / sizeof(elem)))
#define ROW(K, ...) {.kind = F_##K, ROW_##K(__VA_ARGS__)},
#define ROW_REF(f, k, t) .n = 1, .off = KOFF(f), .key = k, .type = t
#define ROW_DICT(f, o) .n = 1, .off = KOFF(f), .of = KOFF(o)
#define ROW_HELD(f, dim) .n = KLEN(f, PyObject *), .off = KOFF(f)
#define ROW_LL(f, k) .n = 1, .off = KOFF(f), .key = k
#define ROW_IDS(f, k, dim) .n = KLEN(f, long long), .off = KOFF(f), .key = k
#define ROW_ATTR(f, d, name)                                             \
    .n = 1, .off = KOFF(f), .of = KOFF(d), .names = &name
#define ROW_TALLY(f, dim, b, nm)                                         \
    .n = KLEN(f, long long), .off = KOFF(f), .of = KOFF(b), .names = nm
#define ROW_CELLS(f, dim, l, i)                                          \
    .n = KLEN(f, long long), .off = KOFF(f), .of = KOFF(l), .ids = KOFF(i)
#define ROW_SLOTS(f, dim, o, s)                                          \
    .n = KLEN(f, long long), .off = KOFF(f), .of = KOFF(o), .slots = s
/* A kernel's table: its core (KERNEL_HEAD holds it), then its own list. */
#define FIELD_TABLE(name, FIELDS)                                        \
    static const KernelField name[] = {                                  \
        ROW(REF, core, "core", &Core_Type) FIELDS(ROW) {F_END}}

/* A kernel type: the table its fields are walked by, and what is its own. */
typedef struct {
    PyTypeObject type;
    const KernelField *fields;
    vectorcallfunc vectorcall;      /* installed by a successful __init__ */
    int (*init)(PyObject *self, PyObject *spec); /* after the fields */
    int (*fold)(PyObject *self);    /* counters that are not a field's */
    void (*release)(PyObject *self); /* what it holds outside the table */
} KernelType;

#define KERNEL_TYPE(self) ((const KernelType *)Py_TYPE(self))

static SETUP_ONLY PyObject *
spec_get(PyObject *spec, const char *key)
{
    PyObject *v = PyDict_GetItemString(spec, key);
    if (v == NULL)
        PyErr_Format(PyExc_KeyError, "spec missing %s", key);
    return v;  /* borrowed */
}

/* ``v``, spec[key] or an item of it, as a long long */
static SETUP_ONLY int
spec_ll(PyObject *v, const char *key, long long *out)
{
    if (!PyLong_Check(v)) {
        PyErr_Format(PyExc_TypeError, "spec[%s] must be int, not %.80s", key,
                     Py_TYPE(v)->tp_name);
        return -1;
    }
    *out = PyLong_AsLongLong(v);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* One declared field from ``spec``: 0, or -1 with an error that names
 * the key. */
static SETUP_ONLY int
field_load(PyObject *self, const KernelField *f, PyObject *spec)
{
    PyObject **obj = (PyObject **)FIELD_AT(self, f->off), *v;
    long long *ll = (long long *)FIELD_AT(self, f->off);
    Py_ssize_t i;
    if (f->kind == F_DICT) {
        v = PyObject_GenericGetDict(*(PyObject **)FIELD_AT(self, f->of), NULL);
        if (v == NULL)
            return -1;
        Py_XSETREF(*obj, v);
        return 0;
    }
    if (f->kind == F_HELD || f->kind > F_IDS)
        return 0;
    if ((v = spec_get(spec, f->key)) == NULL)
        return -1;
    switch (f->kind) {
    case F_REF:
        if (f->type != NULL && !PyObject_TypeCheck(v, f->type)) {
            PyErr_Format(PyExc_TypeError, "spec[%s] must be %s, not %.80s",
                         f->key, f->type->tp_name, Py_TYPE(v)->tp_name);
            return -1;
        }
        Py_XSETREF(*obj, Py_NewRef(v));
        return 0;
    case F_LL:
        return spec_ll(v, f->key, ll);
    default: /* F_IDS */
        if (!PyTuple_Check(v) || PyTuple_GET_SIZE(v) != f->n) {
            PyErr_Format(PyExc_TypeError, "spec[%s] must be a %zd-tuple",
                         f->key, f->n);
            return -1;
        }
        for (i = 0; i < f->n; i++)
            if (spec_ll(PyTuple_GET_ITEM(v, i), f->key, &ll[i]) < 0)
                return -1;
        return 0;
    }
}

/* The settle fold: every declared counter, then the kernel's own. */
static PER_RUN int
kernel_fold(PyObject *self)
{
    const KernelType *kt = KERNEL_TYPE(self);
    const KernelField *f;
    for (f = kt->fields; f->kind != F_END; f++) {
        long long *n = (long long *)FIELD_AT(self, f->off);
        PyObject *to;
        Py_ssize_t i;
        int rc = 0;
        if (f->kind < F_ATTR)
            continue;
        to = *(PyObject **)FIELD_AT(self, f->of);
        for (i = 0; rc == 0 && i < f->n; i++)
            if (f->kind == F_CELLS)
                rc = fold_list(to, ((long long *)FIELD_AT(self, f->ids))[i],
                               &n[i]);
            else if (f->kind == F_SLOTS)
                rc = fold_slot(to, f->slots[i], &n[i]);
            else
                rc = fold_dict(to, f->names[i], &n[i], f->kind == F_TALLY);
        if (rc < 0)
            return -1;
    }
    return kt->fold != NULL ? kt->fold(self) : 0;
}

/* __init__(spec): the declared fields, the kernel's own part, then a seat
 * on the core's settle list and, last, its vectorcall.  Until that, the
 * kernel refuses to be called: its vectorcall is NULL (and its methods
 * check it), so a kernel never built or half built cannot run. */
static int
kernel_init(PyObject *self, PyObject *args, PyObject *kwds)
{
    const KernelType *kt = KERNEL_TYPE(self);
    KernelHead *k = (KernelHead *)self;
    const KernelField *f;
    PyObject *spec;
    k->vectorcall = NULL;
    settler_retire(&k->settler); /* a second __init__: settle the first */
    if (!g_ready) {
        PyErr_SetString(PyExc_RuntimeError, "_native.setup() not called");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &spec))
        return -1;
    for (f = kt->fields; f->kind != F_END; f++)
        if (field_load(self, f, spec) < 0)
            return -1;
    if (kt->init != NULL && kt->init(self, spec) < 0)
        return -1;
    settler_join(k->core, &k->settler, self);
    k->vectorcall = kt->vectorcall;
    return 0;
}

static int
kernel_traverse(PyObject *self, visitproc visit, void *arg)
{
    const KernelField *f;
    Py_ssize_t i;
    for (f = KERNEL_TYPE(self)->fields; f->kind != F_END; f++)
        for (i = 0; f->kind <= F_HELD && i < f->n; i++)
            Py_VISIT(((PyObject **)FIELD_AT(self, f->off))[i]);
    return 0;
}

static int
kernel_clear(PyObject *self)
{
    const KernelType *kt = KERNEL_TYPE(self);
    const KernelField *f;
    Py_ssize_t i;
    settler_retire(&((KernelHead *)self)->settler);
    ((KernelHead *)self)->vectorcall = NULL;
    if (kt->release != NULL)
        kt->release(self);
    for (f = kt->fields; f->kind != F_END; f++)
        for (i = 0; f->kind <= F_HELD && i < f->n; i++)
            Py_CLEAR(((PyObject **)FIELD_AT(self, f->off))[i]);
    return 0;
}

static void
kernel_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    kernel_clear(self);
    Py_TYPE(self)->tp_free(self);
}

/* A kernel's methods refuse it as its call does: -1, with the error, when
 * no __init__ has succeeded. */
static int
kernel_unready(PyObject *self)
{
    if (((KernelHead *)self)->vectorcall != NULL)
        return 0;
    PyErr_Format(PyExc_TypeError,
                 "'%.200s' object does not support vectorcall",
                 Py_TYPE(self)->tp_name);
    return -1;
}

/* The PyTypeObject slots every kernel type has. */
#define KERNEL_TYPE_SLOTS(T)                                             \
    .tp_basicsize = sizeof(T),                                           \
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |                \
                Py_TPFLAGS_HAVE_VECTORCALL,                              \
    .tp_new = PyType_GenericNew, .tp_init = kernel_init,                 \
    .tp_dealloc = kernel_dealloc, .tp_traverse = kernel_traverse,        \
    .tp_clear = kernel_clear,                                            \
    .tp_vectorcall_offset = offsetof(KernelHead, vectorcall),            \
    .tp_call = PyVectorcall_Call

/* StepKernel's fields.  net_dict["send"] is looked up per use rather than
 * held: the fabric's NetSend holds every node's RxChain, which holds us. */
#define STEP_KERNEL(X)                                                   \
    X(REF, proc, "proc", NULL)                                           \
    X(REF, tags, "tags", &PyList_Type)                                   \
    X(REF, states, "states", &PyByteArray_Type)                          \
    X(REF, written, "written", &PyByteArray_Type)                        \
    X(REF, slab, "slab", NULL)      /* array('q'), held as slab_buf */   \
    X(REF, cache_slots, "cache_slots", &PyList_Type)                     \
    X(REF, proc_slots, "proc_slots", &PyList_Type)                       \
    X(REF, issue, "issue", NULL)    /* the processor's bound methods */  \
    X(REF, park, "park", NULL)                                           \
    X(REF, retire, "retire", NULL)                                       \
    X(REF, execute_op, "execute_op", NULL)                               \
    X(REF, find_work, "find_work", NULL)                                 \
    X(REF, cache_access, "cache_access", NULL)                           \
    X(REF, mem_done, "mem_done", NULL)                                   \
    X(REF, cache, "cache", NULL)                                         \
    X(REF, nic, "nic", NULL)                                             \
    X(REF, net, "net", NULL)                                             \
    X(REF, pool, "pool", NULL)      /* the machine's packet pool */      \
    X(REF, node_obj, "node_id", NULL)                                    \
    X(DICT, proc_dict, proc)                                             \
    X(DICT, cache_dict, cache)                                           \
    X(DICT, nic_dict, nic)                                               \
    X(DICT, net_dict, net)                                               \
    X(LL, wpb, "wpb")                                                    \
    X(LL, shift, "shift")                                                \
    X(LL, imask, "imask")                                                \
    X(LL, block_mask, "block_mask")                                      \
    X(LL, low_mask, "low_mask")                                          \
    X(LL, latency, "latency")                                            \
    X(LL, node_id, "node_id")                                            \
    X(LL, seg_shift, "seg_shift")                                        \
    X(LL, n_nodes, "n_nodes")                                            \
    X(IDS, cs, "cache_slot_ids", [N_CS])                                 \
    X(IDS, ps, "proc_slot_ids", [N_PS])                                  \
    X(ATTR, busy, proc_dict, s_busy_cycles)                              \
    X(ATTR, sent, nic_dict, s_packets_sent)                              \
    X(ATTR, latency_total, cache_dict, s_miss_latency_total)             \
    X(ATTR, latency_count, cache_dict, s_miss_latency_count)             \
    X(CELLS, cs_n, [N_CS], cache_slots, cs)                              \
    X(CELLS, ps_n, [N_PS], proc_slots, ps)

typedef struct {
    KERNEL_HEAD
    STEP_KERNEL(MEMBER)
    Py_buffer slab_buf;
    int slab_held, pool_native;
    long long fallthroughs; /* ops handed to execute_op (see fallback:) */
    long long handbacks[N_HANDBACKS];
} StepKernelObject;

#define KT StepKernelObject
FIELD_TABLE(step_kernel_fields, STEP_KERNEL);
#undef KT

static PyTypeObject Pool_Type;

static void
step_kernel_release(PyObject *self)
{
    StepKernelObject *k = (StepKernelObject *)self;
    if (k->slab_held) {
        PyBuffer_Release(&k->slab_buf);
        k->slab_held = 0;
    }
}

static int
step_kernel_init(PyObject *self, PyObject *spec)
{
    StepKernelObject *k = (StepKernelObject *)self;
    step_kernel_release(self);
    if (PyObject_GetBuffer(k->slab, &k->slab_buf,
                           PyBUF_WRITABLE | PyBUF_FORMAT) < 0)
        return -1;
    k->slab_held = 1;
    k->pool_native = PyObject_TypeCheck(k->pool, &Pool_Type);
    return 0;
}

/* call one of the cached Python fallbacks, dropping the result */
static int
call2_drop(PyObject *fn, PyObject *a, PyObject *b)
{
    PyObject *r = PyObject_CallFunctionObjArgs(fn, a, b, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Op kinds the compiled step executes itself; the order is g_op_kinds'. */
enum { K_OTHER = 0, K_THINK, K_LOAD, K_STORE, K_RMW, K_SWITCH_HINT,
       K_FENCE, K_BURST, K_SPIN };
_Static_assert(K_STORE - K_LOAD == A_STORE && K_RMW - K_LOAD == A_RMW,
               "the memory op kinds must follow the access kinds' order");

/* Classify ``op[0]``.  Ops built through repro.proc.ops carry the
 * module's own constants, so the identity pass settles every ordinary
 * op; the equality pass only runs for hand-built strings.  -1 on error. */
static int
kind_code(PyObject *kind)
{
    int i;
    for (i = 0; i < N_OP_KINDS; i++)
        if (kind == g_op_kinds[i])
            return i + 1;
    for (i = 0; i < N_OP_KINDS; i++) {
        int is = PyObject_RichCompareBool(kind, g_op_kinds[i], Py_EQ);
        if (is)
            return is < 0 ? -1 : i + 1;
    }
    return K_OTHER;
}

/* ``op`` has at least ``n`` items and an int operand at [1]; any other
 * shape is the Python step's to reject, with Python's own exception. */
static inline int
op_shape_ok(PyObject *op, Py_ssize_t n)
{
    return PyTuple_GET_SIZE(op) >= n &&
           PyLong_Check(PyTuple_GET_ITEM(op, 1));
}

/* the completion event every hit, think and idle cycle posts: this step
 * again, at ``time`` (the ring mid-run, the heap when stepped from
 * outside one) */
static inline int
sk_post(StepKernelObject *k, long long time, PyObject *ctx)
{
    return core_post_impl(k->core, time, NULL, (PyObject *)k, ctx);
}

/* ctx.ops_executed += 1 */
static int
ctx_count_op(PyObject *ctx)
{
    long long n = PyLong_AsLongLong(SLOT_GET(ctx, g_ctx.ops_executed));
    PyObject *n_obj;
    if (n == -1 && PyErr_Occurred())
        return -1;
    n_obj = PyLong_FromLongLong(n + 1);
    if (n_obj == NULL)
        return -1;
    slot_set(ctx, g_ctx.ops_executed, n_obj);
    return 0;
}

/* Tag-check ``addr`` against the direct-mapped columns: the slot's state
 * byte when it holds the block, 0 (a miss) otherwise, -1 on error. */
static inline int
sk_probe(StepKernelObject *k, long long addr, long long *block,
         long long *index)
{
    long long tag;
    *block = addr & k->block_mask;
    *index = (*block >> k->shift) & k->imask;
    tag = PyLong_AsLongLong(PyList_GET_ITEM(k->tags, (Py_ssize_t)*index));
    if (tag == -1 && PyErr_Occurred())
        return -1;
    if (tag != *block)
        return 0;
    return (unsigned char)PyByteArray_AS_STRING(k->states)[*index];
}

/* CacheController._apply on the resident line at ``index``: perform the
 * access and return its result (a new reference; NULL on error, with
 * the word untouched). */
static PyObject *
sk_apply(StepKernelObject *k, int kind, long long index, long long addr,
         PyObject *payload)
{
    long long *word = (long long *)k->slab_buf.buf + index * k->wpb +
                      ((addr & k->low_mask) >> 2);
    PyObject *result;
    long long value;
    if (kind == A_LOAD)
        return PyLong_FromLongLong(*word);
    if (kind == A_STORE) {
        result = Py_None;
        Py_INCREF(result);
        value = PyLong_AsLongLong(payload);
    }
    else {
        PyObject *new_obj;
        result = PyLong_FromLongLong(*word);
        if (result == NULL)
            return NULL;
        new_obj = PyObject_CallOneArg(payload, result);
        value = new_obj != NULL ? PyLong_AsLongLong(new_obj) : -1;
        Py_XDECREF(new_obj);
    }
    if (value == -1 && PyErr_Occurred()) {
        Py_DECREF(result);
        return NULL;
    }
    *word = value;
    PyByteArray_AS_STRING(k->written)[index] = 1;
    return result;
}

/* A cache hit, whole: account it, perform it, stage its result in
 * ``resume_value`` and put the completion in the ring. */
static int
sk_hit(StepKernelObject *k, PyObject *ctx, int kind, long long index,
       long long addr, PyObject *payload)
{
    PyObject *result;
    slot_set_incref(ctx, g_ctx.state, g_ctx_blocked);
    k->busy += k->latency;
    k->cs_n[CS_HIT + kind] += 1;
    result = sk_apply(k, kind, index, addr, payload);
    if (result == NULL)
        return -1;
    slot_set(ctx, g_ctx.resume_value, result);
    return sk_post(k, k->core->now + k->latency, ctx);
}

static int ck_issue(StepKernelObject *, PyObject *, int, PyObject *,
                    PyObject *, long long, int);

/* Processor._issue(ctx, kind, addr, payload, block) for an access the
 * tag check found missing (``state`` 0) or shared and wanted exclusive
 * (``state`` 1): compiled in its common case (ck_issue, below), else the
 * Python method. */
static int
sk_issue(StepKernelObject *k, PyObject *ctx, int kind, PyObject *addr,
         PyObject *payload, long long block, int state)
{
    PyObject *block_obj, *r;
    int handed_back = ck_issue(k, ctx, kind, addr, payload, block, state);
    if (handed_back <= 0)
        return handed_back;
    block_obj = PyLong_FromLongLong(block);
    if (block_obj == NULL)
        return -1;
    r = PyObject_CallFunctionObjArgs(k->issue, ctx, g_kinds[kind], addr,
                                     payload, block_obj, NULL);
    Py_DECREF(block_obj);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ``busy_cycles += 1`` and resume one cycle on: a switch hint nobody can
 * take and a fence with nothing buffered cost exactly this. */
static int
sk_one_cycle(StepKernelObject *k, PyObject *ctx)
{
    k->busy += 1;
    return sk_post(k, k->core->now + 1, ctx);
}

/* A spin's steps are kept out of line: the per-op path of a program that
 * never spins pays one compare. */

/* ops.spin_satisfied(ctx.spin, ctx.resume_value): 1, 0, or -1 on error.
 * The two predicates of a spin the kernel issued itself are compared
 * here; any other spin is the Python helper's, its exceptions included. */
static __attribute__((noinline)) int
sk_spin_held(PyObject *ctx)
{
    PyObject *spin = SLOT_GET(ctx, g_ctx.spin);
    PyObject *value = SLOT_GET(ctx, g_ctx.resume_value), *r;
    int held;
    if (PyTuple_CheckExact(spin) && PyTuple_GET_SIZE(spin) == 4) {
        PyObject *pred = PyTuple_GET_ITEM(spin, 1);
        if (pred == g_spin_ge || pred == g_spin_eq)
            return PyObject_RichCompareBool(value, PyTuple_GET_ITEM(spin, 2),
                                            pred == g_spin_ge ? Py_GE : Py_EQ);
    }
    r = PyObject_CallFunctionObjArgs(g_spin_satisfied, spin, value, NULL);
    if (r == NULL)
        return -1;
    held = PyObject_IsTrue(r);
    Py_DECREF(r);
    return held;
}

/* A spin_until op the kernel runs — (SPIN, GE or EQ, arg, a non-empty
 * tuple) — noted in ctx.spin, with last_op its retry run's last op, the
 * load: that load, a new reference.  NULL, having changed nothing, for
 * any other shape, which is _execute_op's. */
static __attribute__((noinline)) PyObject *
sk_spin_load(PyObject *ctx, PyObject *op)
{
    PyObject *pred, *retry, *load;
    if (PyTuple_GET_SIZE(op) != 4)
        return NULL;
    pred = PyTuple_GET_ITEM(op, 1);
    retry = PyTuple_GET_ITEM(op, 3);
    if ((pred != g_spin_ge && pred != g_spin_eq) ||
        !PyTuple_CheckExact(retry) || PyTuple_GET_SIZE(retry) == 0)
        return NULL;
    load = PyTuple_GET_ITEM(retry, PyTuple_GET_SIZE(retry) - 1);
    slot_set_incref(ctx, g_ctx.spin, op);
    slot_set_incref(ctx, g_ctx.last_op, load);
    return Py_NewRef(load);
}

/* A failed poll: back off and poll again (the spin's retry run ends with
 * its load) without resuming the program.  Installs the run as
 * Processor._step does and returns its first op, a new reference; NULL
 * on error. */
static __attribute__((noinline)) PyObject *
sk_poll_again(PyObject *ctx)
{
    PyObject *retry, *op;
    Py_ssize_t n;
    slot_set_incref(ctx, g_ctx.resume_value, Py_None);
    retry = PySequence_GetItem(SLOT_GET(ctx, g_ctx.spin), 3);
    op = retry != NULL ? PySequence_GetItem(retry, 0) : NULL;
    n = op != NULL ? PyObject_Size(retry) : -1;
    if (n > 1) {
        slot_set_incref(ctx, g_ctx.burst_ops, retry);
        slot_set_incref(ctx, g_ctx.burst_pos, g_one);
    }
    Py_XDECREF(retry);
    if (n < 0 || ctx_count_op(ctx) < 0)
        Py_CLEAR(op);
    return op;
}

static PyObject *
step_kernel_call(PyObject *kself, PyObject *const *args, size_t nargsf,
                 PyObject *kwnames)
{
    StepKernelObject *k = (StepKernelObject *)kself;
    CoreObject *core = k->core;
    PyObject *ctx, *op = NULL;
    long long now, tfa, addr, block, index;
    int err = 0, state, code, held;
    if (PyVectorcall_NARGS(nargsf) != 1 ||
        (kwnames && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "step kernel takes exactly (ctx)");
        return NULL;
    }
    ctx = args[0];
    if (SLOT_GET(ctx, g_ctx.state) == g_ctx_done)
        Py_RETURN_NONE;
    now = core->now;
    tfa = dict_get_ll(k->proc_dict, s_trap_free_at, &err);
    if (err)
        return NULL;
    if (now < tfa) {
        if (sk_post(k, tfa, ctx) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    slot_set_incref(ctx, g_ctx.state, g_ctx_running);
    if (SLOT_GET(ctx, g_ctx.pending_op) != Py_None) {
        op = SLOT_GET(ctx, g_ctx.pending_op);
        Py_INCREF(op);
        slot_set_incref(ctx, g_ctx.pending_op, Py_None);
        slot_set_incref(ctx, g_ctx.pending_needs, Py_None);
    }
    else if (SLOT_GET(ctx, g_ctx.burst_ops) != Py_None) {
        PyObject *burst = SLOT_GET(ctx, g_ctx.burst_ops);
        PyObject *pos_obj = SLOT_GET(ctx, g_ctx.burst_pos);
        Py_ssize_t pos, n;
        slot_set_incref(ctx, g_ctx.resume_value, Py_None);
        pos = PyLong_AsSsize_t(pos_obj);
        if (pos == -1 && PyErr_Occurred())
            return NULL;
        if (PyTuple_Check(burst) && pos >= 0 &&
            pos < PyTuple_GET_SIZE(burst)) {
            n = PyTuple_GET_SIZE(burst);
            op = PyTuple_GET_ITEM(burst, pos);
            Py_INCREF(op);
        }
        else {
            /* A stale burst_pos (restore, test poke) or a run that is
             * not a tuple: index it the way ``burst[pos]`` does, so the
             * IndexError — or the negative wrap-around — is Python's. */
            Py_INCREF(burst);
            op = PyObject_GetItem(burst, pos_obj);
            n = op != NULL ? PyObject_Size(burst) : -1;
            Py_DECREF(burst);
            if (n < 0)
                goto fail_op;
        }
        pos += 1;
        if (pos == n) {
            slot_set_incref(ctx, g_ctx.burst_ops, Py_None);
            slot_set_incref(ctx, g_ctx.burst_pos, g_zero);
        }
        else {
            pos_obj = PyLong_FromSsize_t(pos);
            if (pos_obj == NULL)
                goto fail_op;
            slot_set(ctx, g_ctx.burst_pos, pos_obj);
        }
        if (ctx_count_op(ctx) < 0)
            goto fail_op;
    }
    else if (SLOT_GET(ctx, g_ctx.spin) != Py_None &&
             (held = sk_spin_held(ctx)) != 1) {
        if (held < 0 || (op = sk_poll_again(ctx)) == NULL)
            return NULL;
    }
    else {
        PyObject *value = SLOT_GET(ctx, g_ctx.resume_value);
        PyObject *gen;
        PySendResult sr;
        Py_INCREF(value);
        slot_set_incref(ctx, g_ctx.resume_value, Py_None);
        if (SLOT_GET(ctx, g_ctx.spin) != Py_None)
            slot_set_incref(ctx, g_ctx.spin, Py_None);
        gen = SLOT_GET(ctx, g_ctx.gen);
        if (SLOT_GET(ctx, g_ctx.started) != Py_True) {
            slot_set_incref(ctx, g_ctx.started, Py_True);
            sr = PyIter_Send(gen, Py_None, &op);
        }
        else
            sr = PyIter_Send(gen, value, &op);
        Py_DECREF(value);
        if (sr == PYGEN_ERROR)
            return NULL;
        if (sr == PYGEN_RETURN) {
            long long outstanding;
            PyObject *r;
            Py_XDECREF(op);
            outstanding = PyLong_AsLongLong(
                SLOT_GET(ctx, g_ctx.outstanding_stores));
            if (outstanding == -1 && PyErr_Occurred())
                return NULL;
            if (outstanding)
                r = PyObject_CallFunctionObjArgs(
                    k->park, ctx, g_retire_op, g_str_all, NULL);
            else
                r = PyObject_CallOneArg(k->retire, ctx);
            if (r == NULL)
                return NULL;
            Py_DECREF(r);
            Py_RETURN_NONE;
        }
        if (ctx_count_op(ctx) < 0)
            goto fail_op;
    }
    slot_set_incref(ctx, g_ctx.last_op, op);
redispatch:
    /* Anything the branches below do not recognize — an unknown kind, a
     * tuple too short for its kind, a condition only the Python step
     * models — goes to Processor._execute_op untouched. */
    if (!PyTuple_Check(op) || PyTuple_GET_SIZE(op) == 0)
        goto fallback;
    code = kind_code(PyTuple_GET_ITEM(op, 0));
    switch (code) {
    case -1:
        goto fail_op;
    case K_THINK: {
        long long cycles;
        if (!op_shape_ok(op, 2))
            goto fallback;
        cycles = PyLong_AsLongLong(PyTuple_GET_ITEM(op, 1));
        if (cycles == -1 && PyErr_Occurred())
            goto fail_op;
        k->busy += cycles;
        k->ps_n[PS_THINK] += cycles;
        /* the checked post: a negative think raises there */
        if (sk_post(k, now + cycles, ctx) < 0)
            goto fail_op;
        break;
    }
    case K_LOAD:
    case K_STORE:
    case K_RMW: {
        /* K_LOAD..K_RMW are A_LOAD..A_RMW, offset; a load's operands stop
         * at the address and it hits on any valid copy, the other two
         * carry a payload and hit only on an exclusive one */
        int kind = code - K_LOAD;
        PyObject *payload = Py_None;
        if (kind == A_RMW) {
            long long outstanding =
                PyLong_AsLongLong(SLOT_GET(ctx, g_ctx.outstanding_stores));
            if (outstanding == -1 && PyErr_Occurred())
                goto fail_op;
            if (outstanding) {
                /* atomics fence implicitly */
                PyObject *r = PyObject_CallFunctionObjArgs(
                    k->park, ctx, op, g_str_all, NULL);
                if (r == NULL)
                    goto fail_op;
                Py_DECREF(r);
                break;
            }
        }
        if (!op_shape_ok(op, kind == A_LOAD ? 2 : 3))
            goto fallback;
        if (kind != A_LOAD)
            payload = PyTuple_GET_ITEM(op, 2);
        addr = PyLong_AsLongLong(PyTuple_GET_ITEM(op, 1));
        if (addr == -1 && PyErr_Occurred())
            goto fail_op;
        state = sk_probe(k, addr, &block, &index);
        if (state < 0)
            goto fail_op;
        if (kind == A_LOAD ? state : state == 2) {
            if (sk_hit(k, ctx, kind, index, addr, payload) < 0)
                goto fail_op;
        }
        else if (sk_issue(k, ctx, kind, PyTuple_GET_ITEM(op, 1), payload,
                          block, state) < 0)
            goto fail_op;
        break;
    }
    case K_SWITCH_HINT: {
        /* With one hardware context there is nobody to yield to; the
         * round-robin over several stays in Processor._switch_hint. */
        PyObject *contexts =
            PyDict_GetItemWithError(k->proc_dict, s_contexts);
        if (contexts == NULL && PyErr_Occurred())
            goto fail_op;
        if (contexts == NULL || !PyList_Check(contexts) ||
            PyList_GET_SIZE(contexts) > 1)
            goto fallback;
        if (sk_one_cycle(k, ctx) < 0)
            goto fail_op;
        break;
    }
    case K_FENCE: {
        /* Buffered wo stores to drain: the park is Python's. */
        long long outstanding =
            PyLong_AsLongLong(SLOT_GET(ctx, g_ctx.outstanding_stores));
        if (outstanding == -1 && PyErr_Occurred())
            goto fail_op;
        if (outstanding)
            goto fallback;
        if (sk_one_cycle(k, ctx) < 0)
            goto fail_op;
        break;
    }
    case K_BURST: {
        /* Install the precompiled run and execute its first op through
         * the branches above; later steps pull the rest mid-burst. */
        PyObject *sub, *first;
        if (PyTuple_GET_SIZE(op) < 2)
            goto fallback;
        sub = PyTuple_GET_ITEM(op, 1);
        if (!PyTuple_Check(sub) || PyTuple_GET_SIZE(sub) == 0)
            goto fallback;
        if (PyTuple_GET_SIZE(sub) > 1) {
            slot_set_incref(ctx, g_ctx.burst_ops, sub);
            slot_set_incref(ctx, g_ctx.burst_pos, g_one);
        }
        first = PyTuple_GET_ITEM(sub, 0);
        Py_INCREF(first);
        slot_set_incref(ctx, g_ctx.last_op, first);
        Py_SETREF(op, first);
        goto redispatch;
    }
    case K_SPIN: {
        /* The first poll: its load, through the rows above; while the
         * predicate fails the step comes back with the retry run. */
        PyObject *load = sk_spin_load(ctx, op);
        if (load == NULL)
            goto fallback;
        Py_SETREF(op, load);
        goto redispatch;
    }
    default:
        goto fallback;
    }
    Py_DECREF(op);
    Py_RETURN_NONE;
fallback:
    k->fallthroughs += 1;
    err = call2_drop(k->execute_op, ctx, op);
    Py_DECREF(op);
    if (err < 0)
        return NULL;
    Py_RETURN_NONE;
fail_op:
    Py_XDECREF(op);
    return NULL;
}

KERNEL_ENTRY(step_kernel_vectorcall, step_kernel_call)

/* Processor._mem_done(ctx, value), installed on the processor as its
 * ``_mem_done`` so that every context's completion callback (the
 * ``partial`` add_thread binds) is this: the completed access resumes its
 * context in place when the pipeline was held for it, else marks it ready
 * and, when the pipeline is idle and was last its own, dispatches it at
 * once.  A dispatch that pays a context switch (whose counter is a named
 * bump) and a processor whose ``_step`` is not this kernel go to the
 * Python method. */
static PyObject *dict_peek(PyObject *, PyObject *);

static PyObject *
step_kernel_mem_done_impl(PyObject *kself, PyObject *const *args,
                          Py_ssize_t nargs)
{
    StepKernelObject *k = (StepKernelObject *)kself;
    PyObject *ctx, *running;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "mem_done takes exactly (ctx, value)");
        return NULL;
    }
    ctx = args[0];
    running = dict_peek(k->proc_dict, s_running);
    if (!Py_IS_TYPE(ctx, (PyTypeObject *)g_context_type) || running == NULL ||
        dict_peek(k->proc_dict, s_step) != kself ||
        (running == Py_None &&
         dict_peek(k->proc_dict, s_last_on_pipeline) != ctx))
        return PyObject_Vectorcall(k->mem_done, args, 2, NULL);
    slot_set_incref(ctx, g_ctx.resume_value, args[1]);
    if (running == ctx) /* the pipeline was held: continue in place */
        return k->vectorcall(kself, args, 1, NULL); /* not inlined here */
    if (running != Py_None) {
        slot_set_incref(ctx, g_ctx.state, g_ctx_ready);
        Py_RETURN_NONE;
    }
    /* _dispatch(ctx, 0) */
    if (PyDict_SetItem(k->proc_dict, s_running, ctx) < 0)
        return NULL;
    slot_set_incref(ctx, g_ctx.state, g_ctx_running);
    if (sk_post(k, k->core->now, ctx) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
step_kernel_mem_done(PyObject *kself, PyObject *const *args, Py_ssize_t nargs)
{
    if (kernel_unready(kself) < 0)
        return NULL;
    return settled(((KernelHead *)kself)->core,
                   step_kernel_mem_done_impl(kself, args, nargs));
}

static PyMethodDef StepKernel_methods[] = {
    {"mem_done", (PyCFunction)(void (*)(void))step_kernel_mem_done,
     METH_FASTCALL, "Processor._mem_done(ctx, value), compiled"},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef StepKernel_members[] = {
    {"fallthroughs", T_LONGLONG, offsetof(StepKernelObject, fallthroughs),
     READONLY,
     "ops this kernel handed to the Python Processor._execute_op"},
    {NULL},
};

/* {reason: times a step of the miss transaction went back to Python};
 * the closure is the offset of the kernel's ``handbacks`` array */
static PyObject *
handbacks_get(PyObject *self, void *offset)
{
    const long long *counts = (long long *)FIELD_AT(self, (size_t)offset);
    PyObject *out = PyDict_New();
    int i;
    for (i = 0; out != NULL && i < N_HANDBACKS; i++) {
        PyObject *n = PyLong_FromLongLong(counts[i]);
        if (n == NULL || PyDict_SetItemString(out, handback_names[i], n) < 0)
            Py_CLEAR(out);
        Py_XDECREF(n);
    }
    return out;
}

static PyGetSetDef StepKernel_getsets[] = {
    {"handbacks", handbacks_get, NULL, NULL,
     (void *)offsetof(StepKernelObject, handbacks)},
    {NULL, NULL, NULL, NULL, NULL},
};

static KernelType StepKernel_Type = {
    {PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro._native.StepKernel",
     KERNEL_TYPE_SLOTS(StepKernelObject),
     .tp_members = StepKernel_members,
     .tp_methods = StepKernel_methods,
     .tp_getset = StepKernel_getsets},
    step_kernel_fields, step_kernel_vectorcall, step_kernel_init, NULL,
    step_kernel_release,
};

/* ------------------------------------------------------------------ */
/* Pool: compiled PacketPool acquire/release (packet.PacketPool).     */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *free_list;
    long long allocated, recycled;
    int enabled;
} PoolObject;

static PyTypeObject Pool_Type;

static PyObject *
Pool_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PoolObject *self = (PoolObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->free_list = PyList_New(0);
    if (self->free_list == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    self->enabled = 1;
    return (PyObject *)self;
}

static int
Pool_init(PoolObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"enabled", NULL};
    int enabled = 1;
    if (!g_ready) {
        PyErr_SetString(PyExc_RuntimeError, "_native.setup() not called");
        return -1;
    }
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|p:Pool", kwlist,
                                     &enabled))
        return -1;
    self->enabled = enabled;
    return 0;
}

static int
Pool_traverse(PoolObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->free_list);
    return 0;
}

static int
Pool_clear_gc(PoolObject *self)
{
    Py_CLEAR(self->free_list);
    return 0;
}

static void
Pool_dealloc(PoolObject *self)
{
    PyObject_GC_UnTrack(self);
    Pool_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Py_ssize_t
Pool_length(PoolObject *self)
{
    return PyList_GET_SIZE(self->free_list);
}

static PyObject *
pool_protocol_impl(PoolObject *self, PyObject *src, PyObject *dst,
                   PyObject *opcode, PyObject *address, PyObject *data,
                   PyObject *meta)
{
    Py_ssize_t n = PyList_GET_SIZE(self->free_list);
    PyObject *packet;
    if (n == 0) {
        PyObject *cargs, *kwargs, *r;
        cargs = PyTuple_Pack(4, src, dst, opcode, address);
        if (cargs == NULL)
            return NULL;
        kwargs = meta ? PyDict_Copy(meta) : PyDict_New();
        if (kwargs == NULL) {
            Py_DECREF(cargs);
            return NULL;
        }
        if (PyDict_SetItemString(kwargs, "data",
                                 data ? data : Py_None) < 0) {
            Py_DECREF(cargs);
            Py_DECREF(kwargs);
            return NULL;
        }
        self->allocated++;
        r = PyObject_Call(g_protocol_packet, cargs, kwargs);
        Py_DECREF(cargs);
        Py_DECREF(kwargs);
        return r;
    }
    self->recycled++;
    packet = PyList_GET_ITEM(self->free_list, n - 1);
    Py_INCREF(packet);
    if (PyList_SetSlice(self->free_list, n - 1, n, NULL) < 0) {
        Py_DECREF(packet);
        return NULL;
    }
    slot_set_incref(packet, g_pkt.free, Py_False);
    if (Py_TYPE(opcode) != (PyTypeObject *)g_op_type) {
        opcode = PyObject_GetItem(g_op_by_name, opcode);
        if (opcode == NULL) {
            Py_DECREF(packet);
            return NULL;
        }
    }
    else
        Py_INCREF(opcode);
    if (data == NULL || data == Py_None) {
        long v = PyLong_AsLong(opcode);
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(opcode);
            Py_DECREF(packet);
            return NULL;
        }
        if (v >= 0 && v < 64 && g_data_bearing[v]) {
            PyErr_Format(PyExc_ValueError, "%S packet requires data",
                         opcode);
            Py_DECREF(opcode);
            Py_DECREF(packet);
            return NULL;
        }
    }
    slot_set_incref(packet, g_pkt.src, src);
    slot_set_incref(packet, g_pkt.dst, dst);
    slot_set(packet, g_pkt.opcode, opcode);
    slot_set_incref(packet, g_pkt.address, address);
    slot_set_incref(packet, g_pkt.data, data ? data : Py_None);
    if (meta && PyDict_GET_SIZE(meta)) {
        PyObject *pm = SLOT_GET(packet, g_pkt.meta);
        if (pm == NULL || PyDict_Update(pm, meta) < 0) {
            Py_DECREF(packet);
            return NULL;
        }
    }
    return packet;
}

static PyObject *
Pool_protocol(PoolObject *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    PyObject *data = NULL, *meta = NULL, *res;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "protocol() takes (src, dst, opcode, address)");
        return NULL;
    }
    if (kwnames != NULL) {
        Py_ssize_t i, nk = PyTuple_GET_SIZE(kwnames);
        for (i = 0; i < nk; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *val = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(name, "data") == 0)
                data = val;
            else {
                if (meta == NULL) {
                    meta = PyDict_New();
                    if (meta == NULL)
                        return NULL;
                }
                if (PyDict_SetItem(meta, name, val) < 0) {
                    Py_DECREF(meta);
                    return NULL;
                }
            }
        }
    }
    res = pool_protocol_impl(self, args[0], args[1], args[2], args[3],
                             data, meta);
    Py_XDECREF(meta);
    return res;
}

static int
pool_release_impl(PoolObject *self, PyObject *packet)
{
    PyObject *op, *pm, *minus_one;
    int freed;
    if (!self->enabled)
        return 0;
    op = SLOT_GET(packet, g_pkt.opcode);
    if (op == NULL || Py_TYPE(op) != (PyTypeObject *)g_op_type)
        return 0;
    freed = PyObject_IsTrue(SLOT_GET(packet, g_pkt.free));
    if (freed < 0)
        return -1;
    if (freed) {
        PyErr_Format(PyExc_RuntimeError, "double release of %R", packet);
        return -1;
    }
    slot_set_incref(packet, g_pkt.free, Py_True);
    slot_set_incref(packet, g_pkt.data, Py_None);
    slot_set_incref(packet, g_pkt.crc, Py_None);
    minus_one = PyLong_FromLong(-1);
    if (minus_one == NULL)
        return -1;
    slot_set(packet, g_pkt.sent_at, minus_one);
    pm = SLOT_GET(packet, g_pkt.meta);
    if (pm != NULL && PyDict_Check(pm) && PyDict_GET_SIZE(pm))
        PyDict_Clear(pm);
    return PyList_Append(self->free_list, packet);
}

static PyObject *
Pool_release(PoolObject *self, PyObject *packet)
{
    if (pool_release_impl(self, packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Pool_get_free_list(PoolObject *self, void *c)
{
    Py_INCREF(self->free_list);
    return self->free_list;
}

static PyMethodDef Pool_methods[] = {
    {"protocol", (PyCFunction)(void (*)(void))Pool_protocol,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"release", (PyCFunction)Pool_release, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Pool_getsets[] = {
    FIELD_GETSET(flag, PoolObject, enabled),
    FIELD_GETSET(ll, PoolObject, allocated),
    FIELD_GETSET(ll, PoolObject, recycled),
    {"_free_list", (getter)Pool_get_free_list, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PySequenceMethods Pool_as_sequence = {
    .sq_length = (lenfunc)Pool_length,
};

static PyTypeObject Pool_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro._native.Pool",
    .tp_basicsize = sizeof(PoolObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_BASETYPE,
    .tp_new = Pool_new,
    .tp_init = (initproc)Pool_init,
    .tp_dealloc = (destructor)Pool_dealloc,
    .tp_traverse = (traverseproc)Pool_traverse,
    .tp_clear = (inquiry)Pool_clear_gc,
    .tp_methods = Pool_methods,
    .tp_getset = Pool_getsets,
    .tp_as_sequence = &Pool_as_sequence,
};

/* ------------------------------------------------------------------ */
/* RxChain: per-node receive path (NIC classify + cache dispatch +    */
/* pool release), compiled.  Mirrors NetworkInterface._receive plus   */
/* CacheController.receive for the memory→cache direction.            */
/* ------------------------------------------------------------------ */

/* RxChain's fields.  ``kernel`` is the node's StepKernel (or NULL), which
 * carries the compiled fill and invalidate, and ``compiled`` the three
 * cache_rx handlers they stand in for: a slot somebody rebinds afterwards
 * is called, not compiled.  ``pool_release`` is a Python pool's. */
#define RX_CHAIN(X)                                                      \
    X(REF, nic, "nic", NULL)                                             \
    X(REF, nic_receive, "receive", NULL)                                 \
    X(REF, memory_handler, "memory_handler", NULL)                       \
    X(REF, cache_rx, "cache_rx", &PyList_Type)                           \
    X(REF, pool, "pool", NULL)                                           \
    X(REF, divert, "divert", NULL)                                       \
    X(DICT, nic_dict, nic)                                               \
    X(HELD, kernel, )                                                    \
    X(HELD, compiled, [3])                                               \
    X(HELD, pool_release, )                                              \
    X(ATTR, received, nic_dict, s_packets_received)

typedef struct {
    KERNEL_HEAD
    RX_CHAIN(MEMBER)
    int pool_native;
} RxChainObject;

#define KT RxChainObject
FIELD_TABLE(rx_chain_fields, RX_CHAIN);
#undef KT

static int ck_fill(StepKernelObject *, PyObject *, int);
static int ck_invalidate(StepKernelObject *, PyObject *);

static int
rx_chain_init(PyObject *self, PyObject *spec)
{
    RxChainObject *c = (RxChainObject *)self;
    PyObject *kernel = spec_get(spec, "kernel");
    int i;
    if (kernel == NULL)
        return -1;
    Py_CLEAR(c->kernel);
    if (PyObject_TypeCheck(kernel, &StepKernel_Type.type) &&
        ((KernelHead *)kernel)->vectorcall != NULL &&
        PyList_GET_SIZE(c->cache_rx) > g_op_rdata + 2) {
        c->kernel = Py_NewRef(kernel);
        for (i = 0; i < 3; i++) {
            PyObject *h = PyList_GET_ITEM(c->cache_rx, g_op_rdata + i);
            Py_XSETREF(c->compiled[i], Py_NewRef(h));
        }
    }
    c->pool_native = PyObject_TypeCheck(c->pool, &Pool_Type);
    if (!c->pool_native) {
        PyObject *rel = PyObject_GetAttrString(c->pool, "release");
        if (rel == NULL)
            return -1;
        Py_XSETREF(c->pool_release, rel);
    }
    return 0;
}

static PyObject *
rx_chain_call(PyObject *cself, PyObject *const *args, size_t nargsf,
              PyObject *kwnames)
{
    RxChainObject *c = (RxChainObject *)cself;
    StepKernelObject *kernel = (StepKernelObject *)c->kernel;
    PyObject *packet, *crc, *op, *r;
    long v = -1, which = -1; /* Op value; its offset from Op.RDATA */
    if (PyVectorcall_NARGS(nargsf) != 1 ||
        (kwnames && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "rx chain takes exactly (packet)");
        return NULL;
    }
    packet = args[0];
    op = SLOT_GET(packet, g_pkt.opcode);
    if (op != NULL && Py_TYPE(op) == (PyTypeObject *)g_op_type) {
        v = PyLong_AsLong(op);
        if (v == -1 && PyErr_Occurred())
            return NULL;
        which = kernel != NULL ? v - g_op_rdata : -1;
    }
    crc = PyDict_GetItemWithError(c->nic_dict, s_crc_enabled);
    if (crc == NULL && PyErr_Occurred())
        return NULL;
    if (crc != NULL && crc != Py_False) {
        int t = PyObject_IsTrue(crc);
        if (t < 0)
            return NULL;
        if (t) {
            /* CRC checking is cold: let the Python NIC do the whole
               receive (it bumps packets_received itself). */
            if (which >= 0 && which < 3)
                kernel->handbacks[HB_CRC] += 1;
            return PyObject_CallOneArg(c->nic_receive, packet);
        }
    }
    c->received += 1;
    if (v >= 0) {
        PyObject *handler;
        if (v <= g_last_c2m)
            /* cache→memory: ownership passes to the directory pipeline,
               which releases after dispatch. */
            return PyObject_CallOneArg(c->memory_handler, packet);
        handler = PyList_GetItem(c->cache_rx, (Py_ssize_t)v);
        if (handler == NULL)
            return NULL;
        if (which >= 0 && which < 3 && handler == c->compiled[which]) {
            /* RDATA, WDATA, INV: the compiled miss transaction, unless
               it hands the packet back (1) to the handler below */
            int back = which == 2 ? ck_invalidate(kernel, packet)
                                  : ck_fill(kernel, packet, which + 1);
            if (back < 0)
                return NULL;
            if (!back)
                handler = NULL;
        }
        if (handler != NULL) {
            Py_INCREF(handler);
            r = PyObject_CallOneArg(handler, packet);
            Py_DECREF(handler);
            if (r == NULL)
                return NULL;
            Py_DECREF(r);
        }
        if (c->pool_native) {
            if (pool_release_impl((PoolObject *)c->pool, packet) < 0)
                return NULL;
        }
        else {
            r = PyObject_CallOneArg(c->pool_release, packet);
            if (r == NULL)
                return NULL;
            Py_DECREF(r);
        }
        Py_RETURN_NONE;
    }
    return PyObject_CallOneArg(c->divert, packet);
}

KERNEL_ENTRY(rx_chain_vectorcall, rx_chain_call)

static KernelType RxChain_Type = {
    {PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro._native.RxChain",
     KERNEL_TYPE_SLOTS(RxChainObject)},
    rx_chain_fields, rx_chain_vectorcall, rx_chain_init, NULL, NULL,
};

/* ------------------------------------------------------------------ */
/* NetSend: wormhole route stepping + delivery scheduling, compiled.  */
/* Mirrors WormholeNetwork.send exactly, but posts the destination    */
/* handler as the delivery event, skipping the _deliver trampoline:   */
/* network.in_flight is never counted (it stays 0, which the audit of */
/* a drained machine accepts; a mid-run verify.diagnose sees none).   */
/* ------------------------------------------------------------------ */

#define NET_SEND(X)                                                      \
    X(REF, net, "net", NULL)                                             \
    X(REF, stats, "stats", NULL)                                         \
    X(REF, per_opcode, "per_opcode", &PyDict_Type)                       \
    X(REF, handlers, "handlers", &PyList_Type)                           \
    X(REF, route_cache, "route_cache", &PyDict_Type)                     \
    X(REF, intern_route, "intern_route", NULL)                           \
    X(REF, link_free_at, "link_free_at", &PyList_Type)                   \
    X(REF, link_busy, "link_busy", &PyList_Type)                         \
    X(DICT, net_dict, net)                                               \
    X(LL, hop_latency, "hop_latency")                                    \
    X(LL, cycles_per_word, "cycles_per_word")                            \
    X(LL, injection_latency, "injection_latency")                        \
    X(SLOTS, stat_n, [N_NS], stats, g_stat)

typedef struct {
    KERNEL_HEAD
    NET_SEND(MEMBER)
    /* until the settle, too: per_opcode by Op value, and link_busy by
     * link index (grown as links are interned) */
    long long op_n[64], *link_n;
    Py_ssize_t n_links;
} NetSendObject;

#define KT NetSendObject
FIELD_TABLE(net_send_fields, NET_SEND);
#undef KT

static PER_RUN int
net_send_fold(PyObject *self)
{
    NetSendObject *ns = (NetSendObject *)self;
    Py_ssize_t i;
    for (i = 0; i < 64 && i < PyTuple_GET_SIZE(g_op_names); i++)
        if (fold_dict(ns->per_opcode, PyTuple_GET_ITEM(g_op_names, i),
                      &ns->op_n[i], 1) < 0)
            return -1;
    for (i = 0; i < ns->n_links; i++)
        if (fold_list(ns->link_busy, i, &ns->link_n[i]) < 0)
            return -1;
    return 0;
}

static void
net_send_release(PyObject *self)
{
    NetSendObject *ns = (NetSendObject *)self;
    PyMem_Free(ns->link_n);
    ns->link_n = NULL;
    ns->n_links = 0;
}

/* per_opcode[key] = per_opcode.get(key, 0) + 1, key as in WormholeNetwork:
 * an Op counts under its name, at the settle; anything else at once */
static int
per_opcode_bump(NetSendObject *ns, PyObject *op)
{
    long long one = 1;
    if (Py_TYPE(op) == (PyTypeObject *)g_op_type) {
        long v = PyLong_AsLong(op);
        if (v >= 0 && v < 64 && v < PyTuple_GET_SIZE(g_op_names))
            return tally_named(ns->per_opcode, PyTuple_GET_ITEM(g_op_names, v),
                               &ns->op_n[v], 1);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_IndexError, "tuple index out of range");
        return -1;
    }
    return fold_dict(ns->per_opcode, op, &one, 1);
}

/* link_busy[link] += cycles, at the settle; the C column follows the
 * Python one as routes intern new links */
static int
link_busy_add(NetSendObject *ns, Py_ssize_t link, long long cycles)
{
    if (link >= ns->n_links) {
        Py_ssize_t n = PyList_GET_SIZE(ns->link_busy);
        long long *grown;
        if (link >= n) {
            PyErr_SetString(PyExc_IndexError, "link_busy index out of range");
            return -1;
        }
        grown = PyMem_Realloc(ns->link_n, n * sizeof(long long));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        memset(grown + ns->n_links, 0, (n - ns->n_links) * sizeof(long long));
        ns->link_n = grown;
        ns->n_links = n;
    }
    ns->link_n[link] += cycles;
    return 0;
}

static int
injector_admit(PyObject *injector, long long when, PyObject *packet)
{
    PyObject *m, *t, *r;
    m = PyObject_GetAttr(injector, s_admit);
    if (m == NULL)
        return -1;
    t = PyLong_FromLongLong(when);
    if (t == NULL) {
        Py_DECREF(m);
        return -1;
    }
    r = PyObject_CallFunctionObjArgs(m, t, packet, NULL);
    Py_DECREF(m);
    Py_DECREF(t);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static PyObject *
net_send_call(PyObject *nself, PyObject *const *args, size_t nargsf,
              PyObject *kwnames)
{
    NetSendObject *ns = (NetSendObject *)nself;
    CoreObject *core = ns->core;
    PyObject *packet, *src_obj, *dst_obj, *data, *meta, *op, *injector;
    PyObject *now_obj, *path = NULL, *handler;
    long long now, src, dst, words;
    int path_owned = 0;
    if (PyVectorcall_NARGS(nargsf) != 1 ||
        (kwnames && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "send takes exactly (packet)");
        return NULL;
    }
    packet = args[0];
    now = core->now;
    now_obj = PyLong_FromLongLong(now);
    if (now_obj == NULL)
        return NULL;
    slot_set(packet, g_pkt.sent_at, now_obj);
    src_obj = SLOT_GET(packet, g_pkt.src);
    dst_obj = SLOT_GET(packet, g_pkt.dst);
    src = PyLong_AsLongLong(src_obj);
    if (src == -1 && PyErr_Occurred())
        return NULL;
    dst = PyLong_AsLongLong(dst_obj);
    if (dst == -1 && PyErr_Occurred())
        return NULL;
    data = SLOT_GET(packet, g_pkt.data);
    meta = SLOT_GET(packet, g_pkt.meta);
    words = 2 + (PyDict_Check(meta) ? PyDict_GET_SIZE(meta)
                                    : PyObject_Size(meta));
    if (data != Py_None && data != NULL) {
        PyObject *w = PyObject_GetAttr(data, s_words);
        Py_ssize_t wn;
        if (w == NULL)
            return NULL;
        wn = PyObject_Size(w);
        Py_DECREF(w);
        if (wn < 0)
            return NULL;
        words += wn;
    }
    op = SLOT_GET(packet, g_pkt.opcode);
    injector = PyDict_GetItemWithError(ns->net_dict, s_fault_injector);
    if (injector == NULL && PyErr_Occurred())
        return NULL;
    if (injector == Py_None)
        injector = NULL;
    if (src == dst) {
        ns->stat_n[NS_PACKETS] += 1;
        ns->stat_n[NS_WORDS] += words;
        ns->stat_n[NS_LATENCY] += 2;
        if (per_opcode_bump(ns, op) < 0)
            return NULL;
        if (injector != NULL) {
            if (injector_admit(injector, now + 2, packet) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
        handler = PyList_GetItem(ns->handlers, (Py_ssize_t)dst);
        if (handler == NULL)
            return NULL;
        if (core_post_impl(core, now + 2, NULL, handler, packet) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    {
        PyObject *key = PyTuple_Pack(2, src_obj, dst_obj);
        if (key == NULL)
            return NULL;
        path = PyDict_GetItemWithError(ns->route_cache, key);
        Py_DECREF(key);
        if (path == NULL) {
            if (PyErr_Occurred())
                return NULL;
            path = PyObject_CallFunctionObjArgs(ns->intern_route, src_obj,
                                                dst_obj, NULL);
            if (path == NULL)
                return NULL;
            path_owned = 1;
        }
    }
    {
        long long serialization = words * ns->cycles_per_word;
        long long head = now + ns->injection_latency;
        long long waited = 0, arrival;
        PyObject *fast = PySequence_Fast(path, "route must be a sequence");
        Py_ssize_t i, npath;
        if (fast == NULL)
            goto fail_path;
        npath = PySequence_Fast_GET_SIZE(fast);
        for (i = 0; i < npath; i++) {
            long long link =
                PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
            long long start;
            PyObject *item, *nf;
            if (link == -1 && PyErr_Occurred()) {
                Py_DECREF(fast);
                goto fail_path;
            }
            item = PyList_GetItem(ns->link_free_at, (Py_ssize_t)link);
            if (item == NULL) {
                Py_DECREF(fast);
                goto fail_path;
            }
            start = PyLong_AsLongLong(item);
            if (start == -1 && PyErr_Occurred()) {
                Py_DECREF(fast);
                goto fail_path;
            }
            if (start < head)
                start = head;
            else
                waited += start - head;
            nf = PyLong_FromLongLong(start + serialization);
            if (nf == NULL) {
                Py_DECREF(fast);
                goto fail_path;
            }
            if (PyList_SetItem(ns->link_free_at, (Py_ssize_t)link, nf)
                < 0) {
                Py_DECREF(fast);
                goto fail_path;
            }
            if (link_busy_add(ns, (Py_ssize_t)link, serialization) < 0) {
                Py_DECREF(fast);
                goto fail_path;
            }
            head = start + ns->hop_latency;
        }
        Py_DECREF(fast);
        arrival = head + serialization;
        ns->stat_n[NS_PACKETS] += 1;
        ns->stat_n[NS_WORDS] += words;
        ns->stat_n[NS_HOPS] += npath;
        ns->stat_n[NS_LATENCY] += arrival - now;
        ns->stat_n[NS_CONTENTION] += waited;
        if (per_opcode_bump(ns, op) < 0)
            goto fail_path;
        if (path_owned)
            Py_DECREF(path);
        path_owned = 0;
        if (injector != NULL) {
            if (injector_admit(injector, arrival, packet) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
        handler = PyList_GetItem(ns->handlers, (Py_ssize_t)dst);
        if (handler == NULL)
            return NULL;
        if (core_post_impl(core, arrival, NULL, handler, packet) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
fail_path:
    if (path_owned)
        Py_XDECREF(path);
    return NULL;
}

KERNEL_ENTRY(net_send_vectorcall, net_send_call)

static KernelType NetSend_Type = {
    {PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro._native.NetSend",
     KERNEL_TYPE_SLOTS(NetSendObject)},
    net_send_fields, net_send_vectorcall, NULL, net_send_fold,
    net_send_release,
};

/* ------------------------------------------------------------------ */
/* The cache side of a miss transaction, compiled: issue (the step     */
/* kernel's miss branch), fill and invalidate (RxChain's RDATA/WDATA   */
/* and INV slots).  Processor._issue and CacheController._access/      */
/* _enqueue_miss/_send_request, _fill and _invalidate stay the         */
/* definition.  Each ck_* step below either performs exactly their     */
/* common case and returns 0, or returns 1 having changed nothing, and */
/* its caller runs the Python method instead; -1 is an exception.      */
/* The state lives in the node's StepKernel (columns, counter cells,   */
/* the cache's and NIC's __dict__), so a machine without one (``wo``)  */
/* keeps the whole cache side in Python.                               */
/* ------------------------------------------------------------------ */

/* Once-per-miss code is kept out of line: inlined into the per-event
 * kernels it only makes them (and the build) bigger. */
#define PER_MISS __attribute__((noinline))

static int
ck_handback(StepKernelObject *k, int reason)
{
    k->handbacks[reason] += 1;
    return 1;
}

/* Borrowed dict[key]; NULL when absent (a dismantled part's __dict__ is
 * empty, and what Python raises about that is the right error). */
static PyObject *
dict_peek(PyObject *dict, PyObject *key)
{
    PyObject *v = PyDict_GetItemWithError(dict, key);
    if (v == NULL)
        PyErr_Clear();
    return v;
}

/* network.send, from the network's __dict__, when it is a built NetSend
 * (borrowed), else NULL: a non-wormhole topology, a capture fabric, a
 * dismantled network */
static PyObject *
net_send_of(PyObject *net_dict)
{
    PyObject *send = dict_peek(net_dict, s_send);
    return send != NULL && Py_TYPE(send) == &NetSend_Type.type &&
                   ((KernelHead *)send)->vectorcall != NULL
               ? send
               : NULL;
}

/* ``dict[name]`` as a flag: 0 or 1 for a bool or a plain int, as Python's
 * ``if`` reads it; -1 when it is absent or anything else. */
static PER_MISS int
ck_flag(PyObject *dict, PyObject *name)
{
    PyObject *v = dict_peek(dict, name);
    if (v == NULL || !(PyBool_Check(v) || PyLong_CheckExact(v)))
        return -1;
    return PyObject_IsTrue(v);
}

/* The conditions all three steps share: -1 when the compiled step
 * applies, else the reason it does not.  ``sends``: it launches a
 * packet, which a CRC-stamping NIC must see. */
static PER_MISS int
ck_gate(StepKernelObject *k, int sends)
{
    PyObject *v;
    int flag;
    if (!k->pool_native)
        return HB_POOL;
    if (net_send_of(k->net_dict) == NULL) /* an emptied __dict__: dismantled */
        return PyDict_GET_SIZE(k->net_dict) ? HB_FABRIC : HB_MALFORMED;
    if ((flag = ck_flag(k->cache_dict, s_fault_tolerant)) != 0)
        return flag < 0 ? HB_MALFORMED : HB_FAULT_TOLERANT;
    if ((flag = ck_flag(k->cache_dict, s_request_timeout)) != 0)
        return flag < 0 ? HB_MALFORMED : HB_REQUEST_TIMEOUT;
    if (sends && (flag = ck_flag(k->nic_dict, s_crc_enabled)) != 0)
        return flag < 0 ? HB_MALFORMED : HB_CRC;
    v = dict_peek(k->cache_dict, s_update_blocks);
    if (v == NULL || !PyAnySet_Check(v))
        return HB_MALFORMED;
    if (PySet_GET_SIZE(v))
        return HB_UPDATE_BLOCK;
    v = dict_peek(k->cache_dict, s_wb_buffer);
    if (v == NULL || !PyDict_Check(v))
        return HB_MALFORMED;
    if (PyDict_GET_SIZE(v))
        return HB_WB_BUFFER;
    return -1;
}

/* A bare instance of a slotted class; the caller fills the slots the
 * dataclass __init__ would, with slot_init (nothing to release yet). */
static PER_MISS PyObject *
new_record(PyObject *type)
{
    PyTypeObject *tp = (PyTypeObject *)type;
    return tp->tp_alloc(tp, 0);
}

static inline void
slot_init(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    Py_INCREF(value);
    SLOT_GET(obj, off) = value;
}

/* nic.send(pool.protocol(node_id, dst, op, address, data=data, **meta)) */
static PER_MISS int
ck_send(StepKernelObject *k, PyObject *dst, PyObject *op, PyObject *address,
        PyObject *data, PyObject *meta)
{
    PyObject *packet = pool_protocol_impl((PoolObject *)k->pool, k->node_obj,
                                          dst, op, address, data, meta);
    PyObject *send = net_send_of(k->net_dict), *r = NULL;
    if (packet == NULL)
        return -1;
    if (send == NULL)
        PyErr_SetString(PyExc_RuntimeError, "network.send replaced mid-step");
    else {
        k->sent += 1;
        r = net_send_call(send, &packet, 1, NULL);
    }
    Py_DECREF(packet);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Processor._find_work: choosing whom to switch to is Python's; with no
 * context ready (always, with one) the pipeline just idles. */
static PER_MISS int
ck_find_work(StepKernelObject *k)
{
    PyObject *contexts = dict_peek(k->proc_dict, s_contexts), *r;
    if (contexts != NULL && PyList_Check(contexts)) {
        Py_ssize_t i, n = PyList_GET_SIZE(contexts);
        for (i = 0; i < n; i++)
            if (SLOT_GET(PyList_GET_ITEM(contexts, i), g_ctx.state) ==
                g_ctx_ready)
                break;
        if (i == n)
            return 0;
    }
    r = PyObject_CallNoArgs(k->find_work);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Issue.  ``state`` is the tag check's: 0 no copy, 1 a shared copy the
 * store/rmw must upgrade. */
static PER_MISS int
ck_issue(StepKernelObject *k, PyObject *ctx, int kind, PyObject *addr,
         PyObject *payload, long long block, int state)
{
    long long home = block >> k->seg_shift;
    int remote = home != k->node_id, reason = ck_gate(k, 1), rc = -1;
    PyObject *callback = SLOT_GET(ctx, g_ctx.mem_done);
    PyObject *mshrs = dict_peek(k->cache_dict, s_mshrs);
    PyObject *block_obj, *now_obj = NULL, *home_obj = NULL, *waiter = NULL;
    PyObject *waiters = NULL, *mshr = NULL;
    if (reason >= 0)
        return ck_handback(k, reason);
    if (home < 0 || home >= k->n_nodes || callback == NULL ||
        callback == Py_None || mshrs == NULL || !PyDict_Check(mshrs))
        return ck_handback(k, HB_MALFORMED);
    block_obj = PyLong_FromLongLong(block);
    if (block_obj == NULL)
        return -1;
    switch (PyDict_Contains(mshrs, block_obj)) {
    case 0:
        break;
    case 1:
        Py_DECREF(block_obj);
        return ck_handback(k, HB_MSHR_MERGE);
    default:
        Py_DECREF(block_obj);
        return -1;
    }
    /* Processor._issue: a remote request releases the pipeline */
    slot_set_incref(ctx, g_ctx.state, g_ctx_blocked);
    k->ps_n[remote ? PS_REMOTE_STALL : PS_LOCAL_STALL] += 1;
    if (remote && PyDict_SetItem(k->proc_dict, s_running, Py_None) < 0)
        goto done;
    /* CacheController._access */
    k->cs_n[CS_MISS + kind] += 1;
    if (state)
        k->cs_n[CS_UPGRADES] += 1;
    /* _enqueue_miss: Mshr(block, need_write, now, [_Waiter(...)]) */
    now_obj = PyLong_FromLongLong(k->core->now);
    home_obj = PyLong_FromLongLong(home);
    waiters = PyList_New(1);
    if (now_obj == NULL || home_obj == NULL || waiters == NULL)
        goto done;
    waiter = new_record(g_waiter_type);
    if (waiter == NULL)
        goto done;
    PyList_SET_ITEM(waiters, 0, waiter); /* steals */
    slot_init(waiter, g_waiter.kind, g_kinds[kind]);
    slot_init(waiter, g_waiter.addr, addr);
    slot_init(waiter, g_waiter.payload, payload);
    slot_init(waiter, g_waiter.callback, callback);
    slot_init(waiter, g_waiter.issued_at, now_obj);
    mshr = new_record(g_mshr_type);
    if (mshr == NULL)
        goto done;
    slot_init(mshr, g_mshr.block, block_obj);
    slot_init(mshr, g_mshr.need_write,
                    kind == A_LOAD ? Py_False : Py_True);
    slot_init(mshr, g_mshr.opened_at, now_obj);
    slot_init(mshr, g_mshr.waiters, waiters);
    slot_init(mshr, g_mshr.retries, g_zero);
    slot_init(mshr, g_mshr.epoch, g_zero);
    slot_init(mshr, g_mshr.timeouts, g_zero);
    slot_init(mshr, g_mshr.wb_blocked, Py_False);
    if (PyDict_SetItem(mshrs, block_obj, mshr) < 0)
        goto done;
    /* _send_request */
    k->cs_n[remote ? CS_REMOTE_REQ : CS_LOCAL_REQ] += 1;
    if (ck_send(k, home_obj, g_miss_ops[kind == A_LOAD ? O_RREQ : O_WREQ],
                block_obj, NULL, NULL) < 0)
        goto done;
    /* back in _issue */
    rc = dict_peek(k->proc_dict, s_running) == Py_None ? ck_find_work(k) : 0;
done:
    Py_DECREF(block_obj);
    Py_XDECREF(now_obj);
    Py_XDECREF(home_obj);
    Py_XDECREF(waiters);
    Py_XDECREF(mshr);
    return rc;
}

/* One parked access replayed after its fill: CacheController.access.
 * A hit is applied here and its completion posted; anything else (the
 * read fill of a write miss re-opens an upgrade) is the Python method's. */
static PER_MISS int
ck_replay(StepKernelObject *k, PyObject *waiter)
{
    PyObject *kind_obj = SLOT_GET(waiter, g_waiter.kind);
    PyObject *addr_obj = SLOT_GET(waiter, g_waiter.addr);
    PyObject *payload = SLOT_GET(waiter, g_waiter.payload);
    PyObject *callback = SLOT_GET(waiter, g_waiter.callback);
    PyObject *result;
    long long addr = 0, block, index;
    int kind = 0, state, rc;
    if (kind_obj == NULL || addr_obj == NULL || payload == NULL ||
        callback == NULL) {
        PyErr_SetString(PyExc_AttributeError, "incomplete MSHR waiter");
        return -1;
    }
    while (kind < 3 && kind_obj != g_kinds[kind])
        kind++;
    if (kind < 3 && PyLong_CheckExact(addr_obj)) {
        addr = PyLong_AsLongLong(addr_obj);
        if (addr == -1 && PyErr_Occurred())
            kind = 3;
    }
    else
        kind = 3;
    if (kind == A_STORE &&
        (!PyLong_CheckExact(payload) ||
         (PyLong_AsLongLong(payload) == -1 && PyErr_Occurred())))
        kind = 3; /* the slab's own complaint about the value is Python's */
    PyErr_Clear();
    if (kind < 3) {
        state = sk_probe(k, addr, &block, &index);
        if (state < 0)
            return -1;
        if (kind == A_LOAD ? !state : state != 2)
            kind = 3;
    }
    if (kind == 3) {
        k->handbacks[HB_REPLAY] += 1;
        result = PyObject_CallFunctionObjArgs(k->cache_access, kind_obj,
                                              addr_obj, payload, callback,
                                              NULL);
        Py_XDECREF(result);
        return result == NULL ? -1 : 0;
    }
    k->cs_n[CS_HIT + kind] += 1;
    result = sk_apply(k, kind, index, addr, payload);
    if (result == NULL)
        return -1;
    rc = core_post_impl(k->core, k->core->now + k->latency, NULL, callback,
                        result);
    Py_DECREF(result);
    return rc;
}

/* ``owner.<name>.add(value)`` for a stats.counters.Histogram kept in the
 * owner's __dict__: its ``counts`` is a Counter, bumped in place */
static PER_MISS int
hist_add(PyObject *owner_dict, PyObject *name, long long value)
{
    PyObject *hist = PyDict_GetItemWithError(owner_dict, name);
    PyObject *counts, *key;
    int rc = -1;
    if (hist == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_AttributeError, name);
        return -1;
    }
    counts = PyObject_GetAttr(hist, s_counts);
    key = PyLong_FromLongLong(value);
    if (counts != NULL && key != NULL) {
        long long one = 1;
        if (PyDict_Check(counts))
            rc = fold_dict(counts, key, &one, 1);
        else
            PyErr_Format(PyExc_TypeError, "%U.counts: no dict", name);
    }
    Py_XDECREF(counts);
    Py_XDECREF(key);
    return rc;
}

/* miss_latency_total/count and latency_hist.add((latency // 8) * 8) */
static PER_MISS int
ck_record_latency(StepKernelObject *k, long long latency)
{
    k->latency_total += latency;
    k->latency_count += 1;
    return hist_add(k->cache_dict, s_latency_hist, (latency >> 3) << 3);
}

/* Fill: an RDATA (``state`` 1) or WDATA (2) reply. */
static PER_MISS int
ck_fill(StepKernelObject *k, PyObject *packet, int state)
{
    PyObject *address = SLOT_GET(packet, g_pkt.address);
    PyObject *data = SLOT_GET(packet, g_pkt.data);
    PyObject *mshrs = dict_peek(k->cache_dict, s_mshrs);
    PyObject *mshr, *waiters, *words, *opened;
    long long block, index, tag, latency, *line;
    Py_ssize_t i;
    int reason = ck_gate(k, 0), rc = -1;
    if (reason >= 0)
        return ck_handback(k, reason);
    /* Anything but a whole reply to a whole open MSHR is the Python
     * method's to reject (a fill without one raises there). */
    if (mshrs == NULL || !PyDict_Check(mshrs) || address == NULL ||
        !PyLong_CheckExact(address) || data == NULL ||
        (PyObject *)Py_TYPE(data) != g_block_data_type)
        return ck_handback(k, HB_MALFORMED);
    mshr = PyDict_GetItemWithError(mshrs, address);
    if (mshr == NULL && PyErr_Occurred())
        return -1;
    if (mshr == NULL || (PyObject *)Py_TYPE(mshr) != g_mshr_type)
        return ck_handback(k, HB_MALFORMED);
    waiters = SLOT_GET(mshr, g_mshr.waiters);
    opened = SLOT_GET(mshr, g_mshr.opened_at);
    words = SLOT_GET(data, g_block_words);
    block = PyLong_AsLongLong(address);
    if (waiters == NULL || !PyList_CheckExact(waiters) || opened == NULL ||
        !PyLong_CheckExact(opened) || words == NULL ||
        !PyList_CheckExact(words) || PyList_GET_SIZE(words) != k->wpb ||
        (block == -1 && PyErr_Occurred()) || (block & k->low_mask))
        goto malformed;
    for (i = 0; i < k->wpb; i++) {
        PyObject *word = PyList_GET_ITEM(words, i);
        /* a word outside int64 is the slab's to refuse, in Python */
        if (!PyLong_CheckExact(word) ||
            (PyLong_AsLongLong(word) == -1 && PyErr_Occurred()))
            goto malformed;
    }
    for (i = 0; i < PyList_GET_SIZE(waiters); i++)
        if ((PyObject *)Py_TYPE(PyList_GET_ITEM(waiters, i)) != g_waiter_type)
            goto malformed;
    latency = k->core->now - PyLong_AsLongLong(opened);
    if (PyErr_Occurred())
        goto malformed;
    index = (block >> k->shift) & k->imask;
    tag = PyLong_AsLongLong(PyList_GET_ITEM(k->tags, (Py_ssize_t)index));
    if (tag == -1 && PyErr_Occurred())
        return -1;
    if (PyByteArray_AS_STRING(k->states)[index] && tag != block)
        return ck_handback(k, HB_VICTIM); /* _evict may write it back */
    /* The replay below can run program code (an rmw's callable): walk a
     * snapshot of the waiters and keep the MSHR alive across it. */
    waiters = PyList_AsTuple(waiters);
    if (waiters == NULL)
        return -1;
    Py_INCREF(mshr);
    if (PyDict_DelItem(mshrs, address) < 0)
        goto done;
    /* array.install(block, state, data): no victim, so nobody sees the
     * copy the Python method makes of the payload; write it through */
    Py_INCREF(address);
    if (PyList_SetItem(k->tags, (Py_ssize_t)index, address) < 0)
        goto done;
    PyByteArray_AS_STRING(k->states)[index] = (char)state;
    PyByteArray_AS_STRING(k->written)[index] = 0;
    line = (long long *)k->slab_buf.buf + index * k->wpb;
    for (i = 0; i < k->wpb; i++)
        line[i] = PyLong_AsLongLong(PyList_GET_ITEM(words, i));
    if (ck_record_latency(k, latency) < 0)
        goto done;
    k->cs_n[CS_FILLS] += 1;
    for (i = 0; i < PyTuple_GET_SIZE(waiters); i++)
        if (ck_replay(k, PyTuple_GET_ITEM(waiters, i)) < 0)
            goto done;
    rc = 0;
done:
    Py_DECREF(mshr);
    Py_DECREF(waiters);
    return rc;
malformed:
    PyErr_Clear();
    return ck_handback(k, HB_MALFORMED);
}

/* Invalidate: drop the line, answer ACKC, or UPDATE with the data when
 * the copy was dirty-exclusive; either echoes the INV's ``txn``. */
static PER_MISS int
ck_invalidate(StepKernelObject *k, PyObject *packet)
{
    PyObject *address = SLOT_GET(packet, g_pkt.address);
    PyObject *src = SLOT_GET(packet, g_pkt.src);
    PyObject *meta = SLOT_GET(packet, g_pkt.meta);
    PyObject *txn, *reply_meta, *data = NULL;
    long long block, index;
    int reason = ck_gate(k, 1), state, rc = -1;
    if (reason >= 0)
        return ck_handback(k, reason);
    if (address == NULL || !PyLong_CheckExact(address) || src == NULL ||
        !PyLong_CheckExact(src) || meta == NULL || !PyDict_CheckExact(meta))
        return ck_handback(k, HB_MALFORMED);
    block = PyLong_AsLongLong(address);
    if ((block == -1 && PyErr_Occurred()) || (block & k->low_mask)) {
        PyErr_Clear();
        return ck_handback(k, HB_MALFORMED);
    }
    state = sk_probe(k, block, &block, &index);
    if (state < 0)
        return -1;
    txn = PyDict_GetItemWithError(meta, s_txn);
    if (txn == NULL) {
        if (PyErr_Occurred())
            return -1;
        txn = Py_None;
    }
    reply_meta = PyDict_New();
    if (reply_meta == NULL || PyDict_SetItem(reply_meta, s_txn, txn) < 0)
        goto done;
    k->cs_n[CS_INV_RECEIVED] += 1;
    if (state)
        PyByteArray_AS_STRING(k->states)[index] = 0;
    if (state == 2) {
        /* BlockData(list(line words)), as line.data.copy() builds it */
        long long *line = (long long *)k->slab_buf.buf + index * k->wpb;
        PyObject *words = PyList_New((Py_ssize_t)k->wpb);
        Py_ssize_t i;
        for (i = 0; words != NULL && i < k->wpb; i++) {
            PyObject *word = PyLong_FromLongLong(line[i]);
            if (word == NULL)
                Py_CLEAR(words);
            else
                PyList_SET_ITEM(words, i, word);
        }
        if (words == NULL)
            goto done;
        data = new_record(g_block_data_type);
        if (data != NULL)
            slot_init(data, g_block_words, words);
        Py_DECREF(words);
        if (data == NULL)
            goto done;
    }
    rc = ck_send(k, src, g_miss_ops[data != NULL ? O_UPDATE : O_ACKC],
                 address, data, reply_meta);
done:
    Py_XDECREF(reply_meta);
    Py_XDECREF(data);
    return rc;
}

/* ------------------------------------------------------------------ */
/* DirKernel: the home node's common case, compiled.  One per node,    */
/* installed on the reference MemoryController: ``kernel.receive`` is  */
/* its ``receive`` (home and alignment checks, the occupancy           */
/* reservation, the process event) and the kernel itself, called, is   */
/* its ``process`` (row lookup, dir.packets, the meta check, the       */
/* Table-2 cell, pool release) over the SoaDirectory columns.          */
/* MemoryController stays the definition: a cell runs here only while  */
/* ``_table[state][op]`` is the method this file mirrors (the base     */
/* class's, and LimitedController's fifo ``_ro_rreq``), and a step     */
/* that is off the common case is decided before anything              */
/* changes (dk_decide) and handed, whole, to the Python method —       */
/* counted by reason like the cache side's ck_* steps.                 */
/* ------------------------------------------------------------------ */

/* The cells mirrored below (MemoryController's, and the Dir_iNB read).
 * The module exports their names as DIR_CELLS, in this order, and the
 * install hands back a code per (state, opcode): position there, plus 1. */
enum { DC_NONE, DC_RO_RREQ, DC_RO_WREQ, DC_RW_RREQ, DC_RW_WREQ, DC_RW_REPM,
       DC_RW_STRAY, DC_STRAY, DC_TXN_BUSY, DC_WT_ACKC, DC_WT_UPDATE,
       DC_WT_REPM, DC_RT_UPDATE, DC_RT_REPM, DC_RT_ACKC, DC_LIMITED_RO_RREQ,
       N_DIR_CELLS };
#define DIR_CELL_NAMES                                                       \
    "_ro_rreq _ro_wreq _rw_rreq _rw_wreq _rw_repm _rw_stray _stray "         \
    "_txn_busy _wt_ackc _wt_update _wt_repm _rt_update _rt_repm _rt_ackc "   \
    "limited._ro_rreq"
#define MAX_DIR_CELLS 64  /* states x opcodes a table may have */

/* the named counters the cells bump, and their names in the bag */
enum { DN_INVALIDATIONS, DN_REGRANT, DN_BUSY_SENT, DN_STRAY_DROPPED,
       DN_WRITE_DONE, DN_READ_DONE, DN_READ_OVERFLOW, DN_POINTER_EVICTIONS,
       N_DN };
static PyObject *s_dn[N_DN];
#define MAX_DIR_OPS (MAX_DIR_CELLS / N_DIR_STATES)

static PyObject *s_retained, *s_pointer_capacity, *s_software_pass;
static PyObject *s_dir_occupancy, *s_free_at, *s_requests, *s_worker_sets;
static PyObject *s_inv_rounds, *s_entry, *s_block, *s_fifo_order;

/* DirKernel's fields: the controller, its bound pipeline methods, the
 * SoaDirectory columns and the parts the cells reach. */
#define DIR_KERNEL(X)                                                    \
    X(REF, ctrl, "ctrl", NULL)                                           \
    X(REF, process, "process", NULL)                                     \
    X(REF, receive, "receive", NULL)                                     \
    X(REF, directory, "directory", NULL)                                 \
    X(REF, rows, "rows", &PyDict_Type)                                   \
    X(REF, state, "state", &PyByteArray_Type)                            \
    X(REF, meta, "meta", &PyByteArray_Type)                              \
    X(REF, local, "local", &PyByteArray_Type)                            \
    X(REF, requester, "requester", &PyList_Type)                         \
    X(REF, txn, "txn", &PyList_Type)                                     \
    X(REF, peak, "peak", &PyList_Type)                                   \
    X(REF, sharers, "sharers", &PyList_Type)                             \
    X(REF, acks, "acks", &PyList_Type)                                   \
    X(REF, table, "table", &PyList_Type)                                 \
    X(REF, cells, "cells", &PyTuple_Type)                                \
    X(REF, slots, "slots", &PyList_Type)                                 \
    X(REF, values, "values", &PyDict_Type)                               \
    X(REF, memory, "memory", NULL)                                       \
    X(REF, blocks, "blocks", &PyDict_Type)                               \
    X(REF, occupancy, "occupancy", NULL)                                 \
    X(REF, nic, "nic", NULL)                                             \
    X(REF, net, "net", NULL)                                             \
    X(REF, pool, "pool", NULL)                                           \
    X(REF, node_obj, "node_id", NULL)                                    \
    X(REF, stray_names, "stray_names", &PyTuple_Type)                    \
    X(DICT, ctrl_dict, ctrl)                                             \
    X(DICT, occ_dict, occupancy)                                         \
    X(DICT, nic_dict, nic)                                               \
    X(DICT, net_dict, net)                                               \
    X(LL, n_ops, "n_ops")                                                \
    X(LL, packets_slot, "packets_slot")                                  \
    X(LL, node_id, "node_id")                                            \
    X(LL, seg_shift, "seg_shift")                                        \
    X(LL, n_nodes, "n_nodes")                                            \
    X(LL, low_mask, "low_mask")                                          \
    X(CELLS, packets_n, , slots, packets_slot)                           \
    X(ATTR, occ_busy, occ_dict, s_busy_cycles)                           \
    X(ATTR, occ_requests, occ_dict, s_requests)                          \
    X(ATTR, sent, nic_dict, s_packets_sent)                              \
    X(TALLY, named_n, [N_DN], values, s_dn)

typedef struct {
    KERNEL_HEAD                 /* kernel(packet) is ``process`` */
    DIR_KERNEL(MEMBER)
    unsigned char codes[MAX_DIR_CELLS]; /* DC_* by state * n_ops + op */
    int pool_native;
    long long stray_n[MAX_DIR_OPS]; /* dir.stray.<op>, until the settle */
    long long handbacks[N_HANDBACKS];
} DirKernelObject;

#define KT DirKernelObject
FIELD_TABLE(dir_kernel_fields, DIR_KERNEL);
#undef KT

static PER_RUN int
dir_kernel_fold(PyObject *self)
{
    DirKernelObject *k = (DirKernelObject *)self;
    Py_ssize_t i;
    for (i = 0; i < k->n_ops; i++)
        if (fold_dict(k->values, PyTuple_GET_ITEM(k->stray_names, i),
                      &k->stray_n[i], 1) < 0)
            return -1;
    return 0;
}

/* The cell codes, and the ranges the compiled cells index by. */
static int
dir_kernel_init(PyObject *self, PyObject *spec)
{
    DirKernelObject *k = (DirKernelObject *)self;
    PyObject *codes = spec_get(spec, "codes");
    const char *bad = NULL;
    Py_ssize_t i;
    if (codes == NULL)
        return -1;
    if (!PyTuple_Check(codes)) {
        PyErr_Format(PyExc_TypeError, "spec[codes] must be tuple, not %.80s",
                     Py_TYPE(codes)->tp_name);
        return -1;
    }
    if (k->n_ops < 1 || k->n_ops > MAX_DIR_OPS)
        bad = "n_ops";
    else if (PyTuple_GET_SIZE(k->cells) != N_DIR_STATES * k->n_ops)
        bad = "cells";
    else if (PyTuple_GET_SIZE(codes) != N_DIR_STATES * k->n_ops)
        bad = "codes";
    else if (PyTuple_GET_SIZE(k->stray_names) != k->n_ops)
        bad = "stray_names";
    else if (k->packets_slot < 0 ||
             k->packets_slot >= PyList_GET_SIZE(k->slots))
        bad = "packets_slot";
    else if (k->n_nodes < 1 || k->n_nodes > 64)
        bad = "n_nodes";
    else if (k->node_id < 0 || k->node_id >= k->n_nodes)
        bad = "node_id";
    if (bad != NULL) {
        PyErr_Format(PyExc_ValueError,
                     "spec[%s] is the wrong size or out of range", bad);
        return -1;
    }
    for (i = 0; i < PyTuple_GET_SIZE(codes); i++) {
        long long code;
        if (spec_ll(PyTuple_GET_ITEM(codes, i), "codes", &code) < 0)
            return -1;
        if (code < 0 || code >= N_DIR_CELLS) {
            PyErr_SetString(PyExc_ValueError, "unknown directory cell");
            return -1;
        }
        k->codes[i] = (unsigned char)code;
    }
    k->pool_native = PyObject_TypeCheck(k->pool, &Pool_Type);
    return 0;
}

/* One packet's step through ``process``: the packet's fields, the
 * entry's row as read (then as the cell leaves it), the cell. */
typedef struct {
    PyObject *address, *opcode, *data, *src_obj; /* the packet's, borrowed */
    long op;
    long long src;
    Py_ssize_t row;             /* -1: first touch, no row yet */
    int cell, acked;            /* DC_*; the awaited answer came */
    int victim;                 /* Dir_iNB: the pointer to evict, or -1 */
    int state, local;
    unsigned long long sharers, acks;
    long long requester, txn, peak;
} DirStep;

#define BIT(node) (1ULL << (node))

/* ``packet.data`` is something write_block can land without raising */
static inline int
dk_data_ok(PyObject *data)
{
    PyObject *words;
    if (data == NULL || (PyObject *)Py_TYPE(data) != g_block_data_type)
        return 0;
    words = SLOT_GET(data, g_block_words);
    return words != NULL && PyList_Check(words);
}

/* The packet's fields and the occupancy-free half of the gate, shared by
 * receive and process: -1 to go on, else the hand-back reason. */
static int
dk_packet(DirKernelObject *k, PyObject *packet, DirStep *s, long long *addr)
{
    int flag;
    if (!k->pool_native)
        return HB_POOL;
    if ((flag = ck_flag(k->ctrl_dict, s_fault_tolerant)) != 0)
        return flag < 0 ? HB_MALFORMED : HB_FAULT_TOLERANT;
    if ((PyObject *)Py_TYPE(packet) != g_packet_type)
        return HB_MALFORMED;
    s->address = SLOT_GET(packet, g_pkt.address);
    s->opcode = SLOT_GET(packet, g_pkt.opcode);
    s->data = SLOT_GET(packet, g_pkt.data);
    s->src_obj = SLOT_GET(packet, g_pkt.src);
    if (s->address == NULL || !PyLong_CheckExact(s->address) ||
        s->opcode == NULL || Py_TYPE(s->opcode) != (PyTypeObject *)g_op_type
        || s->src_obj == NULL || !PyLong_CheckExact(s->src_obj))
        return HB_MALFORMED;
    *addr = PyLong_AsLongLong(s->address);
    s->src = PyLong_AsLongLong(s->src_obj);
    s->op = PyLong_AsLong(s->opcode);
    if (PyErr_Occurred()) {
        PyErr_Clear();
        return HB_MALFORMED;
    }
    if (*addr < 0 || s->src < 0 || s->src >= k->n_nodes || s->op < 0 ||
        s->op >= k->n_ops)
        return HB_MALFORMED;
    return -1;
}

/* LimitedController._fifo_order[block], checked: 0, or -1 when it is not
 * a list of node ids.  ``victim`` (optional) becomes the first of them
 * that holds a pointer other than the requester's, when there is one. */
static PER_MISS int
dk_fifo_order(DirKernelObject *k, const DirStep *s, int *victim)
{
    PyObject *orders = dict_peek(k->ctrl_dict, s_fifo_order), *order;
    Py_ssize_t i;
    if (orders == NULL || !PyDict_Check(orders))
        return -1;
    order = dict_peek(orders, s->address);
    if (order == NULL)
        return 0;
    if (!PyList_CheckExact(order))
        return -1;
    for (i = 0; i < PyList_GET_SIZE(order); i++) {
        PyObject *item = PyList_GET_ITEM(order, i);
        long long node = PyLong_CheckExact(item) ? PyLong_AsLongLong(item) : -1;
        if (node < 0 || node >= k->n_nodes) {
            PyErr_Clear();
            return -1;
        }
        if (victim != NULL && (s->sharers & ~BIT(s->src) & BIT(node))) {
            *victim = (int)node;
            victim = NULL;
        }
    }
    return 0;
}

/* Everything ``process`` would branch or raise on, read without changing
 * anything: -1 when the compiled step applies (``s`` filled in), -2 on
 * an exception, else the reason it does not. */
static PER_MISS int
dk_decide(DirKernelObject *k, PyObject *packet, DirStep *s)
{
    PyObject *row_obj, *meta_obj, *trow;
    unsigned long long home_bit = BIT(k->node_id), src_bit, holders;
    long long addr;
    Py_ssize_t idx;
    int meta = 0, reason = dk_packet(k, packet, s, &addr);
    if (reason >= 0)
        return reason;
    meta_obj = SLOT_GET(packet, g_pkt.meta);
    if (meta_obj == NULL || !PyDict_CheckExact(meta_obj) ||
        (addr >> k->seg_shift) != k->node_id || (addr & k->low_mask))
        return HB_MALFORMED;
    row_obj = PyDict_GetItemWithError(k->rows, s->address);
    if (row_obj == NULL) {
        if (PyErr_Occurred())
            return -2;
        /* first touch: the row SoaDirectory.entry() will append */
        s->row = -1;
        s->state = (int)g_dir_states[D_READ_ONLY];
        s->local = 0;
        s->sharers = s->acks = 0;
        s->requester = -1;
        s->txn = s->peak = 0;
    }
    else {
        Py_ssize_t row = PyLong_AsSsize_t(row_obj);
        if (row < 0 || row >= PyByteArray_GET_SIZE(k->state) ||
            row >= PyByteArray_GET_SIZE(k->meta) ||
            row >= PyByteArray_GET_SIZE(k->local) ||
            row >= PyList_GET_SIZE(k->requester) ||
            row >= PyList_GET_SIZE(k->txn) ||
            row >= PyList_GET_SIZE(k->peak) ||
            row >= PyList_GET_SIZE(k->sharers) ||
            row >= PyList_GET_SIZE(k->acks)) {
            PyErr_Clear();
            return HB_MALFORMED;
        }
        s->row = row;
        s->state = (unsigned char)PyByteArray_AS_STRING(k->state)[row];
        meta = (unsigned char)PyByteArray_AS_STRING(k->meta)[row];
        s->local = PyByteArray_AS_STRING(k->local)[row] != 0;
        s->sharers = PyLong_AsUnsignedLongLong(
            PyList_GET_ITEM(k->sharers, row));
        s->acks = PyLong_AsUnsignedLongLong(PyList_GET_ITEM(k->acks, row));
        s->requester = PyLong_AsLongLong(PyList_GET_ITEM(k->requester, row));
        s->txn = PyLong_AsLongLong(PyList_GET_ITEM(k->txn, row));
        s->peak = PyLong_AsLongLong(PyList_GET_ITEM(k->peak, row));
        if (PyErr_Occurred()) { /* a mask with a node past 63, a non-int */
            PyErr_Clear();
            return HB_MALFORMED;
        }
        if (s->requester >= k->n_nodes)
            return HB_MALFORMED;
    }
    /* _meta_intercept: NORMAL, and TRAP_ON_WRITE for anything outside
     * the write class, go on to the table; the rest is software's */
    if (meta && !(meta == g_trap_on_write && !(g_write_class >> s->op & 1)))
        return HB_DIR_META;
    /* dispatch: the cell must still be the one mirrored at install */
    if (s->state >= N_DIR_STATES || s->state >= PyList_GET_SIZE(k->table))
        return HB_MALFORMED;
    trow = PyList_GET_ITEM(k->table, s->state);
    if (!PyList_Check(trow) || s->op >= PyList_GET_SIZE(trow))
        return HB_MALFORMED;
    idx = s->state * (Py_ssize_t)k->n_ops + s->op;
    s->cell = k->codes[idx];
    if (s->cell == DC_NONE ||
        PyList_GET_ITEM(trow, s->op) != PyTuple_GET_ITEM(k->cells, idx))
        return HB_DIR_OVERRIDE;
    src_bit = BIT(s->src);
    holders = s->sharers | (s->local ? home_bit : 0);
    s->acked = 0;
    s->victim = -1;
    switch (s->cell) {
    case DC_RO_RREQ:
    case DC_LIMITED_RO_RREQ: {
        /* holds(src) or _pointer_available(entry, src) */
        PyObject *cap;
        long long limit;
        int pass;
        if (s->cell == DC_LIMITED_RO_RREQ && dk_fifo_order(k, s, NULL) < 0)
            return HB_MALFORMED;
        if (s->src == k->node_id || (s->sharers & src_bit))
            break;
        cap = dict_peek(k->ctrl_dict, s_pointer_capacity);
        pass = ck_flag(k->ctrl_dict, s_software_pass);
        if (cap == NULL || pass < 0)
            return HB_MALFORMED;
        if (cap == Py_None || pass)
            break;
        if (!PyLong_CheckExact(cap))
            return HB_MALFORMED;
        limit = PyLong_AsLongLong(cap);
        if (limit == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            return HB_MALFORMED;
        }
        if (__builtin_popcountll(s->sharers & ~home_bit) < limit)
            break;
        if (s->cell == DC_RO_RREQ)
            return HB_DIR_OVERFLOW; /* _read_overflow: the variant's policy */
        /* Dir_iNB's: _choose_victim, fifo — the oldest recorded reader
         * still holding a pointer, else the lowest-numbered one */
        if (!(s->sharers & ~src_bit))
            return HB_DIR_ERROR; /* overflow with no evictable pointer */
        s->victim = __builtin_ctzll(s->sharers & ~src_bit);
        dk_fifo_order(k, s, &s->victim);
        break;
    }
    case DC_RW_RREQ:
    case DC_RW_WREQ:
    case DC_RW_REPM:
    case DC_RW_STRAY:
        if (__builtin_popcountll(holders) != 1)
            return HB_DIR_ERROR; /* _rw_owner raises */
        if (s->cell == DC_RW_REPM && holders == src_bit &&
            !dk_data_ok(s->data))
            return HB_MALFORMED;
        break;
    case DC_WT_ACKC:
    case DC_WT_UPDATE:
    case DC_WT_REPM:
    case DC_RT_UPDATE:
    case DC_RT_REPM:
    case DC_RT_ACKC: {
        /* entry.ack_from(src, txn): a REPM matches any round, an UPDATE
         * the round it echoes (or any, echoing none), an ACKC only the
         * round it echoes */
        int is_ackc = s->cell == DC_WT_ACKC || s->cell == DC_RT_ACKC;
        int is_repm = s->cell == DC_WT_REPM || s->cell == DC_RT_REPM;
        PyObject *txn = Py_None;
        if (!(s->acks & src_bit))
            break;
        if (!is_repm) {
            txn = PyDict_GetItemWithError(meta_obj, s_txn);
            if (txn == NULL) {
                if (PyErr_Occurred())
                    return -2;
                txn = Py_None;
            }
        }
        if (txn == Py_None)
            s->acked = !is_ackc;
        else {
            long long echoed;
            if (!PyLong_CheckExact(txn))
                return HB_MALFORMED;
            echoed = PyLong_AsLongLong(txn);
            if (echoed == -1 && PyErr_Occurred())
                PyErr_Clear(); /* no round has an id that large */
            else
                s->acked = echoed == s->txn;
        }
        if (!s->acked)
            break;
        if (s->cell == DC_RT_ACKC)
            return HB_DIR_ERROR; /* dataless ACKC from the awaited owner */
        if (!is_ackc && !dk_data_ok(s->data))
            return HB_MALFORMED;
        if (s->requester < 0 && (s->state == g_dir_states[D_READ_TRANSACTION]
                                 || !(s->acks & ~src_bit)))
            return HB_DIR_ERROR; /* the transaction lost its requester */
        break;
    }
    default:
        break;
    }
    return -1;
}

/* counters.bump(<the DN_* name>, amount) */
static inline int
dk_bump(DirKernelObject *k, int which, long long amount)
{
    return tally_named(k->values, s_dn[which], &k->named_n[which],
                       amount);
}

/* memory.block(address): the live BlockData, a new reference.  First
 * touch (and the home check that goes with it) is MainMemory's. */
static PER_MISS PyObject *
dk_block(DirKernelObject *k, PyObject *address)
{
    PyObject *stored = PyDict_GetItemWithError(k->blocks, address);
    if (stored != NULL) {
        Py_INCREF(stored);
        return stored;
    }
    if (PyErr_Occurred())
        return NULL;
    return PyObject_CallMethodOneArg(k->memory, s_block, address);
}

/* a fresh list of ``holder.words`` */
static PyObject *
dk_words_of(PyObject *holder)
{
    PyObject *words, *copy;
    if ((PyObject *)Py_TYPE(holder) == g_block_data_type &&
        SLOT_GET(holder, g_block_words) != NULL)
        return PySequence_List(SLOT_GET(holder, g_block_words));
    words = PyObject_GetAttr(holder, s_words);
    if (words == NULL)
        return NULL;
    copy = PySequence_List(words);
    Py_DECREF(words);
    return copy;
}

/* memory.read_block(address): a BlockData snapshot, a new reference */
static PER_MISS PyObject *
dk_read_block(DirKernelObject *k, PyObject *address)
{
    PyObject *stored = dk_block(k, address), *words, *copy = NULL;
    if (stored == NULL)
        return NULL;
    words = dk_words_of(stored);
    Py_DECREF(stored);
    if (words == NULL)
        return NULL;
    copy = new_record(g_block_data_type);
    if (copy != NULL)
        slot_init(copy, g_block_words, words);
    Py_DECREF(words);
    return copy;
}

/* memory.write_block(address, data): ``data`` passed dk_data_ok */
static PER_MISS int
dk_write_block(DirKernelObject *k, PyObject *address, PyObject *data)
{
    PyObject *stored = dk_block(k, address), *words;
    int rc;
    if (stored == NULL)
        return -1;
    words = dk_words_of(data);
    if (words == NULL) {
        Py_DECREF(stored);
        return -1;
    }
    if ((PyObject *)Py_TYPE(stored) == g_block_data_type) {
        slot_set(stored, g_block_words, words);
        rc = 0;
    }
    else {
        rc = PyObject_SetAttr(stored, s_words, words);
        Py_DECREF(words);
    }
    Py_DECREF(stored);
    return rc;
}

/* nic.send(pool.protocol(node_id, dst, op, address, data=data, **meta)).
 * The send primitive, not the cell, depends on the fabric: the compiled
 * NetSend directly when that is what nic.send would reach, else the
 * Python nic.send (a non-wormhole or capture fabric, CRC stamping, a
 * send somebody rebound on the instance). */
static PER_MISS int
dk_send(DirKernelObject *k, long long dst, int op, PyObject *address,
        PyObject *data, PyObject *meta)
{
    PyObject *dst_obj = PyLong_FromLongLong(dst);
    PyObject *packet, *send, *result = NULL;
    if (dst_obj == NULL)
        return -1;
    packet = pool_protocol_impl((PoolObject *)k->pool, k->node_obj,
                                dst_obj, g_miss_ops[op], address, data, meta);
    Py_DECREF(dst_obj);
    if (packet == NULL)
        return -1;
    send = net_send_of(k->net_dict);
    if (send != NULL && ck_flag(k->nic_dict, s_crc_enabled) == 0 &&
        dict_peek(k->nic_dict, s_send) == NULL) {
        k->sent += 1;
        result = net_send_call(send, &packet, 1, NULL);
    }
    else
        result = PyObject_CallMethodOneArg(k->nic, s_send, packet);
    Py_DECREF(packet);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* _send_rdata / _send_wdata */
static PER_MISS int
dk_send_data(DirKernelObject *k, long long dst, int op, PyObject *address)
{
    PyObject *data = dk_read_block(k, address);
    int rc;
    if (data == NULL)
        return -1;
    rc = dk_send(k, dst, op, address, data, NULL);
    Py_DECREF(data);
    return rc;
}

/* _send_inv to every node of ``targets``, in node order, echoing ``txn``
 * (an eviction INV, ``txn`` 0, carries None) */
static PER_MISS int
dk_send_invs(DirKernelObject *k, unsigned long long targets, long long txn,
             PyObject *address)
{
    PyObject *meta = PyDict_New();
    PyObject *txn_obj = txn ? PyLong_FromLongLong(txn) : Py_NewRef(Py_None);
    int rc = meta != NULL && txn_obj != NULL
                 ? PyDict_SetItem(meta, s_txn, txn_obj) : -1;
    while (rc == 0 && targets) {
        rc = dk_send(k, __builtin_ctzll(targets), O_INV, address, NULL, meta);
        targets &= targets - 1;
    }
    Py_XDECREF(meta);
    Py_XDECREF(txn_obj);
    return rc;
}

/* _stray */
static PER_MISS int
dk_stray(DirKernelObject *k, long op)
{
    if (dk_bump(k, DN_STRAY_DROPPED, 1) < 0)
        return -1;
    return tally_named(k->values,
                       PyTuple_GET_ITEM(k->stray_names, op),
                       &k->stray_n[op], 1);
}

/* entry.add_sharer(node) */
static void
dk_add_sharer(DirKernelObject *k, DirStep *s, long long node)
{
    int count;
    if (node == k->node_id)
        s->local = 1;
    else
        s->sharers |= BIT(node);
    count = __builtin_popcountll(s->sharers |
                                 (s->local ? BIT(k->node_id) : 0));
    if (count > s->peak)
        s->peak = count;
}

/* entry.begin_transaction(requester, targets) then clear_sharers() */
static void
dk_begin(DirStep *s, unsigned long long targets, int state)
{
    s->txn += 1;
    s->requester = s->src;
    s->acks = targets;
    s->sharers = 0;
    s->local = 0;
    s->state = (int)g_dir_states[state];
}

/* ``if node in order: order.remove(node)`` on a checked fifo order */
static int
dk_order_remove(PyObject *order, long long node)
{
    Py_ssize_t i;
    for (i = 0; i < PyList_GET_SIZE(order); i++)
        if (PyLong_AsLongLong(PyList_GET_ITEM(order, i)) == node)
            return PySequence_DelItem(order, i);
    return 0;
}

static int
dk_store(PyObject *column, Py_ssize_t row, PyObject *value)
{
    if (value == NULL)
        return -1;
    return PyList_SetItem(column, row, value); /* steals */
}

/* Write the fields the cell changed back to the entry's row. */
static PER_MISS int
dk_commit(DirKernelObject *k, const DirStep *was, const DirStep *s)
{
    Py_ssize_t row = s->row;
    PyByteArray_AS_STRING(k->state)[row] = (char)s->state;
    PyByteArray_AS_STRING(k->local)[row] = (char)s->local;
    if ((s->sharers != was->sharers &&
         dk_store(k->sharers, row,
                  PyLong_FromUnsignedLongLong(s->sharers)) < 0) ||
        (s->acks != was->acks &&
         dk_store(k->acks, row,
                  PyLong_FromUnsignedLongLong(s->acks)) < 0) ||
        (s->requester != was->requester &&
         dk_store(k->requester, row,
                  PyLong_FromLongLong(s->requester)) < 0) ||
        (s->txn != was->txn &&
         dk_store(k->txn, row, PyLong_FromLongLong(s->txn)) < 0) ||
        (s->peak != was->peak &&
         dk_store(k->peak, row, PyLong_FromLongLong(s->peak)) < 0))
        return -1;
    return 0;
}

/* The cell dk_decide chose, statement for statement as MemoryController
 * has it: entry writes, then counters and sends in its order. */
static PER_MISS int
dk_cell(DirKernelObject *k, DirStep *s)
{
    const DirStep was = *s;
    const unsigned long long src_bit = BIT(s->src);
    const unsigned long long holders =
        s->sharers | (s->local ? BIT(k->node_id) : 0);
    PyObject *address = s->address;
    switch (s->cell) {
    case DC_RO_RREQ: /* transition 1 */
        dk_add_sharer(k, s, s->src);
        if (dk_commit(k, &was, s) < 0)
            return -1;
        return dk_send_data(k, s->src, O_RDATA, address);
    case DC_LIMITED_RO_RREQ: {
        /* LimitedController._ro_rreq: the base cell, with the reader
         * moved to the young end of the block's fifo order; on overflow
         * its _read_overflow evicts s->victim (an INV outside any round)
         * and serves the read from the pointer that frees */
        PyObject *orders = dict_peek(k->ctrl_dict, s_fifo_order);
        PyObject *order = dict_peek(orders, address);
        int evict = s->victim >= 0, recorded;
        if (order == NULL) { /* setdefault(entry.block, []) */
            order = PyList_New(0);
            if (order == NULL || PyDict_SetItem(orders, address, order) < 0) {
                Py_XDECREF(order);
                return -1;
            }
            Py_DECREF(order);
        }
        if (dk_order_remove(order, s->src) < 0)
            return -1;
        if (evict) {
            if (dk_bump(k, DN_READ_OVERFLOW, 1) < 0 ||
                dk_bump(k, DN_POINTER_EVICTIONS, 1) < 0 ||
                dk_send_invs(k, BIT(s->victim), 0, address) < 0 ||
                dk_order_remove(order, s->victim) < 0)
                return -1;
            if (s->victim == k->node_id)
                s->local = 0;
            else
                s->sharers &= ~BIT(s->victim);
        }
        dk_add_sharer(k, s, s->src);
        if (dk_commit(k, &was, s) < 0 ||
            (!evict && dk_send_data(k, s->src, O_RDATA, address) < 0))
            return -1;
        recorded = s->src == k->node_id ? 1
                                        : PySequence_Contains(order, s->src_obj);
        if (recorded < 0 ||
            (!recorded && PyList_Append(order, s->src_obj) < 0))
            return -1;
        return evict ? dk_send_data(k, s->src, O_RDATA, address) : 0;
    }
    case DC_RO_WREQ: {
        unsigned long long others = holders & ~src_bit;
        if (!others) { /* transition 2 */
            s->sharers = 0;
            s->local = 0;
            dk_add_sharer(k, s, s->src);
            s->state = (int)g_dir_states[D_READ_WRITE];
            if (dk_commit(k, &was, s) < 0)
                return -1;
            return dk_send_data(k, s->src, O_WDATA, address);
        }
        /* transition 3: _begin_write_transaction */
        dk_begin(s, others, D_WRITE_TRANSACTION);
        if (dk_commit(k, &was, s) < 0 ||
            hist_add(k->ctrl_dict, s_worker_sets,
                     __builtin_popcountll(others) + 1) < 0 ||
            dk_send_invs(k, others, s->txn, address) < 0)
            return -1;
        return dk_bump(k, DN_INVALIDATIONS, __builtin_popcountll(others));
    }
    case DC_RW_RREQ: /* transition 5 */
        dk_begin(s, holders, D_READ_TRANSACTION);
        if (dk_commit(k, &was, s) < 0)
            return -1;
        return dk_send_invs(k, holders, s->txn, address);
    case DC_RW_WREQ:
        if (holders == src_bit) { /* the owner asks again: re-grant */
            if (dk_send_data(k, s->src, O_WDATA, address) < 0)
                return -1;
            return dk_bump(k, DN_REGRANT, 1);
        }
        dk_begin(s, holders, D_WRITE_TRANSACTION); /* transition 4 */
        if (dk_commit(k, &was, s) < 0)
            return -1;
        return dk_send_invs(k, holders, s->txn, address);
    case DC_RW_REPM:
        if (holders != src_bit)
            return dk_stray(k, s->op);
        if (dk_write_block(k, address, s->data) < 0) /* transition 6 */
            return -1;
        s->sharers = 0;
        s->local = 0;
        s->state = (int)g_dir_states[D_READ_ONLY];
        return dk_commit(k, &was, s);
    case DC_RW_STRAY:
    case DC_STRAY:
        return dk_stray(k, s->op);
    case DC_TXN_BUSY: /* transitions 7/9 */
        if (dk_bump(k, DN_BUSY_SENT, 1) < 0)
            return -1;
        return dk_send(k, s->src, O_BUSY, address, NULL, NULL);
    default: { /* the ack-collecting cells of the two transactions */
        int reading = s->state == g_dir_states[D_READ_TRANSACTION];
        long long requester = s->requester;
        PyObject *rounds;
        if (!s->acked)
            return dk_stray(k, s->op);
        s->acks &= ~src_bit;
        if (s->cell != DC_WT_ACKC &&
            dk_write_block(k, address, s->data) < 0)
            return -1;
        if (!reading && s->acks) /* _maybe_complete_write: not yet */
            return dk_commit(k, &was, s);
        /* _complete_read (transition 10) / the last ack (transition 8) */
        s->sharers = 0;
        s->local = 0;
        dk_add_sharer(k, s, requester);
        s->state = (int)g_dir_states[reading ? D_READ_ONLY : D_READ_WRITE];
        s->requester = -1;
        if (dk_commit(k, &was, s) < 0)
            return -1;
        rounds = dict_peek(k->ctrl_dict, s_inv_rounds);
        if (rounds != NULL && PyDict_Check(rounds) && PyDict_GET_SIZE(rounds)
            && PyDict_DelItem(rounds, address) < 0)
            PyErr_Clear(); /* pop(block, None) */
        if (dk_send_data(k, requester, reading ? O_RDATA : O_WDATA,
                         address) < 0)
            return -1;
        return dk_bump(k, reading ? DN_READ_DONE : DN_WRITE_DONE, 1);
    }
    }
}

static PyObject *
dir_kernel_call(PyObject *kself, PyObject *const *args, size_t nargsf,
                PyObject *kwnames)
{
    DirKernelObject *k = (DirKernelObject *)kself;
    PyObject *packet;
    DirStep s;
    int reason;
    if (PyVectorcall_NARGS(nargsf) != 1 ||
        (kwnames && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "process takes exactly (packet)");
        return NULL;
    }
    packet = args[0];
    reason = dk_decide(k, packet, &s);
    if (reason == -2)
        return NULL;
    if (reason >= 0) {
        k->handbacks[reason] += 1;
        return PyObject_CallOneArg(k->process, packet);
    }
    if (s.row < 0) {
        /* first touch: SoaDirectory.entry() appends the row read above */
        PyObject *view = PyObject_CallMethodOneArg(k->directory,
                                                   s_entry, s.address);
        PyObject *row_obj;
        if (view == NULL)
            return NULL;
        Py_DECREF(view);
        row_obj = PyDict_GetItemWithError(k->rows, s.address);
        s.row = row_obj != NULL ? PyLong_AsSsize_t(row_obj) : -1;
        if (s.row < 0 || s.row >= PyList_GET_SIZE(k->acks) ||
            s.row >= PyByteArray_GET_SIZE(k->state)) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_RuntimeError,
                                "directory.entry() allocated no row");
            return NULL;
        }
    }
    k->packets_n += 1;
    if (PyDict_SetItem(k->ctrl_dict, s_retained, Py_False) < 0 ||
        dk_cell(k, &s) < 0 ||
        /* no compiled cell retains its packet */
        pool_release_impl((PoolObject *)k->pool, packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

KERNEL_ENTRY(dir_kernel_vectorcall, dir_kernel_call)

/* MemoryController.receive */
static PyObject *
dir_kernel_receive(DirKernelObject *k, PyObject *packet)
{
    PyObject *occ = k->occ_dict;
    PyObject *cycles_obj, *free_obj, *busy_obj, *req_obj, *done_obj;
    long long addr, cycles = 0, free_at = 0, start;
    DirStep s;
    int reason = dk_packet(k, packet, &s, &addr);
    if (reason < 0 &&
        ((addr >> k->seg_shift) != k->node_id || (addr & k->low_mask)))
        reason = HB_DIR_ERROR; /* not homed here, not block aligned */
    if (reason < 0) {
        cycles_obj = dict_peek(k->ctrl_dict, s_dir_occupancy);
        free_obj = dict_peek(occ, s_free_at);
        busy_obj = dict_peek(occ, s_busy_cycles);
        req_obj = dict_peek(occ, s_requests);
        if (cycles_obj == NULL || !PyLong_CheckExact(cycles_obj) ||
            free_obj == NULL || !PyLong_CheckExact(free_obj) ||
            busy_obj == NULL || !PyLong_CheckExact(busy_obj) ||
            req_obj == NULL || !PyLong_CheckExact(req_obj))
            reason = HB_MALFORMED;
        else {
            cycles = PyLong_AsLongLong(cycles_obj);
            free_at = PyLong_AsLongLong(free_obj);
            if (PyErr_Occurred()) {
                PyErr_Clear();
                reason = HB_MALFORMED;
            }
        }
    }
    if (reason >= 0) {
        k->handbacks[reason] += 1;
        return PyObject_CallOneArg(k->receive, packet);
    }
    /* occupancy.acquire(dir_occupancy) */
    start = k->core->now > free_at ? k->core->now : free_at;
    done_obj = PyLong_FromLongLong(start + cycles);
    if (done_obj == NULL)
        return NULL;
    if (PyDict_SetItem(occ, s_free_at, done_obj) < 0) {
        Py_DECREF(done_obj);
        return NULL;
    }
    k->occ_busy += cycles;
    k->occ_requests += 1;
    /* sim.post(done_at, self.process, packet) */
    reason = core_post_impl(k->core, start + cycles, done_obj, (PyObject *)k,
                            packet);
    Py_DECREF(done_obj);
    if (reason < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
DirKernel_receive(DirKernelObject *k, PyObject *packet)
{
    if (kernel_unready((PyObject *)k) < 0)
        return NULL;
    return settled(k->core, dir_kernel_receive(k, packet));
}

static PyMethodDef DirKernel_methods[] = {
    {"receive", (PyCFunction)DirKernel_receive, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef DirKernel_getsets[] = {
    {"handbacks", handbacks_get, NULL, NULL,
     (void *)offsetof(DirKernelObject, handbacks)},
    {NULL, NULL, NULL, NULL, NULL},
};

static KernelType DirKernel_Type = {
    {PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro._native.DirKernel",
     KERNEL_TYPE_SLOTS(DirKernelObject),
     .tp_methods = DirKernel_methods,
     .tp_getset = DirKernel_getsets},
    dir_kernel_fields, dir_kernel_vectorcall, dir_kernel_init,
    dir_kernel_fold, NULL,
};

/* ------------------------------------------------------------------ */
/* Module setup: the Python side injects every class/constant the     */
/* kernels need; the extension never imports repro modules itself.    */
/* ------------------------------------------------------------------ */

/* what setup() keeps from its spec, by key */
static const struct {
    PyObject **slot;
    const char *key;
} setup_refs[] = {
    {&g_sim_error, "SimulationError"}, {&g_no_arg, "NO_ARG"},
    {&g_context_type, "Context"},
    {&g_ctx_done, "DONE"}, {&g_ctx_running, "RUNNING"},
    {&g_ctx_blocked, "BLOCKED"}, {&g_ctx_ready, "READY"},
    {&g_waiter_type, "Waiter"}, {&g_mshr_type, "Mshr"},
    {&g_block_data_type, "BlockData"}, {&g_op_kinds[0], "THINK"},
    {&g_op_kinds[1], "LOAD"}, {&g_op_kinds[2], "STORE"},
    {&g_op_kinds[3], "RMW"}, {&g_op_kinds[4], "SWITCH_HINT"},
    {&g_op_kinds[5], "FENCE"}, {&g_op_kinds[6], "BURST"},
    {&g_op_kinds[7], "SPIN"}, {&g_spin_ge, "GE"}, {&g_spin_eq, "EQ"},
    {&g_spin_satisfied, "spin_satisfied"}, {&g_op_type, "Op"},
    {&g_op_names, "OP_NAMES"}, {&g_op_by_name, "OP_BY_NAME"},
    {&g_protocol_packet, "protocol_packet"}, {&g_packet_type, "Packet"},
};

/* every slot offset the kernels use: the class (by spec key), the member */
static const struct {
    Py_ssize_t *offset;
    const char *cls, *name;
} setup_slots[] = {
    {&g_ctx.state, "Context", "state"}, {&g_ctx.gen, "Context", "gen"},
    {&g_ctx.started, "Context", "started"},
    {&g_ctx.resume_value, "Context", "resume_value"},
    {&g_ctx.ops_executed, "Context", "ops_executed"},
    {&g_ctx.last_op, "Context", "last_op"},
    {&g_ctx.outstanding_stores, "Context", "outstanding_stores"},
    {&g_ctx.pending_op, "Context", "pending_op"},
    {&g_ctx.pending_needs, "Context", "pending_needs"},
    {&g_ctx.burst_ops, "Context", "burst_ops"},
    {&g_ctx.burst_pos, "Context", "burst_pos"},
    {&g_ctx.spin, "Context", "spin"}, {&g_ctx.mem_done, "Context", "mem_done"},
    {&g_pkt.src, "Packet", "src"}, {&g_pkt.dst, "Packet", "dst"},
    {&g_pkt.opcode, "Packet", "opcode"}, {&g_pkt.address, "Packet", "address"},
    {&g_pkt.data, "Packet", "data"}, {&g_pkt.meta, "Packet", "meta"},
    {&g_pkt.sent_at, "Packet", "sent_at"}, {&g_pkt.crc, "Packet", "crc"},
    {&g_pkt.free, "Packet", "_free"},
    {&g_stat[NS_PACKETS], "NetworkStats", "packets"},
    {&g_stat[NS_WORDS], "NetworkStats", "words"},
    {&g_stat[NS_HOPS], "NetworkStats", "hops"},
    {&g_stat[NS_LATENCY], "NetworkStats", "total_latency"},
    {&g_stat[NS_CONTENTION], "NetworkStats", "contention_cycles"},
    {&g_waiter.kind, "Waiter", "kind"}, {&g_waiter.addr, "Waiter", "addr"},
    {&g_waiter.payload, "Waiter", "payload"},
    {&g_waiter.callback, "Waiter", "callback"},
    {&g_waiter.issued_at, "Waiter", "issued_at"},
    {&g_mshr.block, "Mshr", "block"},
    {&g_mshr.need_write, "Mshr", "need_write"},
    {&g_mshr.opened_at, "Mshr", "opened_at"},
    {&g_mshr.waiters, "Mshr", "waiters"}, {&g_mshr.retries, "Mshr", "retries"},
    {&g_mshr.epoch, "Mshr", "epoch"}, {&g_mshr.timeouts, "Mshr", "timeouts"},
    {&g_mshr.wb_blocked, "Mshr", "wb_blocked"},
    {&g_block_words, "BlockData", "words"},
};

static PyObject *
mod_setup(PyObject *mod, PyObject *spec)
{
    size_t row;
    if (!PyDict_Check(spec)) {
        PyErr_SetString(PyExc_TypeError, "setup() takes a dict");
        return NULL;
    }
    for (row = 0; row < sizeof(setup_refs) / sizeof(setup_refs[0]); row++) {
        PyObject *v = spec_get(spec, setup_refs[row].key);
        if (v == NULL)
            return NULL;
        Py_XSETREF(*setup_refs[row].slot, Py_NewRef(v));
    }
    if (!PyTuple_Check(g_op_names)) {
        PyErr_SetString(PyExc_TypeError, "OP_NAMES must be a tuple");
        return NULL;
    }
    {
        PyObject *db = spec_get(spec, "DATA_BEARING");
        Py_ssize_t i, n;
        if (db == NULL)
            return NULL;
        n = PySequence_Size(db);
        if (n < 0)
            return NULL;
        memset(g_data_bearing, 0, sizeof(g_data_bearing));
        for (i = 0; i < n && i < 64; i++) {
            PyObject *item = PySequence_GetItem(db, i);
            int t;
            if (item == NULL)
                return NULL;
            t = PyObject_IsTrue(item);
            Py_DECREF(item);
            if (t < 0)
                return NULL;
            g_data_bearing[i] = (char)t;
        }
    }
    {
        PyObject *v = spec_get(spec, "LAST_CACHE_TO_MEMORY");
        long x;
        if (v == NULL)
            return NULL;
        x = PyLong_AsLong(v);
        if (x == -1 && PyErr_Occurred())
            return NULL;
        g_last_c2m = x;
    }
    for (row = 0; row < sizeof(setup_slots) / sizeof(setup_slots[0]); row++) {
        PyObject *cls = spec_get(spec, setup_slots[row].cls);
        if (cls == NULL || (*setup_slots[row].offset =
                                slot_offset(cls, setup_slots[row].name)) < 0)
            return NULL;
    }
    {
        static const char *const names[N_MISS_OPS] = {
            "RREQ", "WREQ", "UPDATE", "ACKC", "RDATA", "WDATA", "INV", "REPM",
            "BUSY"};
        int i;
        for (i = 0; i < N_MISS_OPS; i++) {
            PyObject *op = PyDict_GetItemString(g_op_by_name, names[i]);
            if (op == NULL) {
                PyErr_Format(PyExc_KeyError, "OP_BY_NAME lacks %s", names[i]);
                return NULL;
            }
            Py_INCREF(op);
            Py_XSETREF(g_miss_ops[i], op);
        }
        /* RxChain tells the three compiled receives apart by offset */
        g_op_rdata = PyLong_AsLong(g_miss_ops[O_RDATA]);
        if (PyLong_AsLong(g_miss_ops[O_WDATA]) != g_op_rdata + 1 ||
            PyLong_AsLong(g_miss_ops[O_INV]) != g_op_rdata + 2) {
            PyErr_SetString(PyExc_ValueError,
                            "Op.RDATA, WDATA, INV must be consecutive");
            return NULL;
        }
    }
    {
        /* coherence.states and the controller's write class, as ints */
        PyObject *states = spec_get(spec, "DIR_STATES");
        PyObject *mode = spec_get(spec, "TRAP_ON_WRITE");
        PyObject *wc = spec_get(spec, "WRITE_CLASS");
        Py_ssize_t i;
        if (states == NULL || mode == NULL || wc == NULL)
            return NULL;
        if (!PyTuple_Check(states) || !PyTuple_Check(wc) ||
            PyTuple_GET_SIZE(states) != N_DIR_STATES) {
            PyErr_SetString(PyExc_TypeError,
                            "DIR_STATES and WRITE_CLASS must be tuples");
            return NULL;
        }
        g_write_class = 0;
        g_trap_on_write = PyLong_AsLong(mode);
        for (i = 0; i < N_DIR_STATES; i++)
            g_dir_states[i] = PyLong_AsLong(PyTuple_GET_ITEM(states, i));
        for (i = 0; i < PyTuple_GET_SIZE(wc); i++) {
            long op = PyLong_AsLong(PyTuple_GET_ITEM(wc, i));
            if (op >= 0 && op < 64)
                g_write_class |= 1ULL << op;
        }
        if (PyErr_Occurred())
            return NULL;
    }
    g_ready = 1;
    Py_RETURN_NONE;
}

static PyObject *
mod_is_ready(PyObject *mod, PyObject *noarg)
{
    return PyBool_FromLong(g_ready);
}

static PyMethodDef module_methods[] = {
    {"setup", mod_setup, METH_O, "Inject the Python-side classes."},
    {"is_ready", mod_is_ready, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.backend.native._native",
    "Compiled hot-path kernels for the native backend.",
    -1,
    module_methods,
};

/* every attribute, key and counter name the kernels look up, interned */
static const struct {
    PyObject **slot;
    const char *text;
} interned[] = {
    {&s_max_cycles, "max_cycles"}, {&s_busy_cycles, "busy_cycles"},
    {&s_trap_free_at, "trap_free_at"}, {&s_contexts, "contexts"},
    {&s_crc_enabled, "crc_enabled"},
    {&s_packets_received, "packets_received"},
    {&s_fault_injector, "fault_injector"}, {&s_admit, "admit"},
    {&s_words, "words"}, {&s_send, "send"}, {&g_str_all, "all"},
    {&g_kinds[A_LOAD], "load"}, {&g_kinds[A_STORE], "store"},
    {&g_kinds[A_RMW], "rmw"}, {&s_running, "_running"},
    {&s_step, "_step"}, {&s_last_on_pipeline, "_last_on_pipeline"},
    {&s_fault_tolerant, "fault_tolerant"},
    {&s_request_timeout, "request_timeout"},
    {&s_update_blocks, "update_blocks"}, {&s_wb_buffer, "_wb_buffer"},
    {&s_mshrs, "_mshrs"}, {&s_packets_sent, "packets_sent"},
    {&s_miss_latency_total, "miss_latency_total"},
    {&s_miss_latency_count, "miss_latency_count"},
    {&s_latency_hist, "latency_hist"}, {&s_counts, "counts"}, {&s_txn, "txn"},
    {&s_retained, "_retained"}, {&s_pointer_capacity, "pointer_capacity"},
    {&s_software_pass, "_software_pass"}, {&s_dir_occupancy, "dir_occupancy"},
    {&s_free_at, "free_at"}, {&s_requests, "requests"},
    {&s_worker_sets, "worker_sets"}, {&s_inv_rounds, "_inv_rounds"},
    {&s_entry, "entry"}, {&s_block, "block"}, {&s_fifo_order, "_fifo_order"},
    {&s_dn[DN_INVALIDATIONS], "dir.invalidations"},
    {&s_dn[DN_REGRANT], "dir.regrant"}, {&s_dn[DN_BUSY_SENT], "dir.busy_sent"},
    {&s_dn[DN_STRAY_DROPPED], "dir.stray_dropped"},
    {&s_dn[DN_WRITE_DONE], "dir.write_transactions_done"},
    {&s_dn[DN_READ_DONE], "dir.read_transactions_done"},
    {&s_dn[DN_READ_OVERFLOW], "dir.read_overflow"},
    {&s_dn[DN_POINTER_EVICTIONS], "dir.pointer_evictions"},
};

PyMODINIT_FUNC
PyInit__native(void)
{
    static PyTypeObject *const types[] = {
        &Core_Type, &StepKernel_Type.type, &Pool_Type, &RxChain_Type.type,
        &NetSend_Type.type, &DirKernel_Type.type};
    PyObject *mod;
    size_t i;
    for (i = 0; i < sizeof(interned) / sizeof(interned[0]); i++) {
        *interned[i].slot = PyUnicode_InternFromString(interned[i].text);
        if (*interned[i].slot == NULL)
            return NULL;
    }
    g_zero = PyLong_FromLong(0);
    g_one = PyLong_FromLong(1);
    if (g_zero == NULL || g_one == NULL)
        return NULL;
    {
        PyObject *retire = PyUnicode_InternFromString("__retire__");
        if (retire == NULL)
            return NULL;
        g_retire_op = PyTuple_Pack(1, retire);
        Py_DECREF(retire);
        if (g_retire_op == NULL)
            return NULL;
    }
    mod = PyModule_Create(&native_module);
    if (mod == NULL)
        return NULL;
    for (i = 0; i < sizeof(types) / sizeof(types[0]); i++)
        if (PyModule_AddType(mod, types[i]) < 0) { /* readies it, too */
            Py_DECREF(mod);
            return NULL;
        }
    if (/* the SHA-256 of this file, as setup.py read it at build time */
        PyModule_AddStringConstant(mod, "SOURCE_SHA256",
                                   REPRO_NATIVE_SOURCE_SHA256) < 0 ||
        PyModule_AddStringConstant(mod, "DIR_CELLS", DIR_CELL_NAMES) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
