/* Batched replication core: C port of the serial machine's processors,
 * coherence controllers, cut-through fabric and event-calendar loop.
 *
 * The serial repro.sim.processor.Processor,
 * repro.sim.coherence.CoherenceController and
 * repro.sim.cut_through.CutThroughFabric (driven by
 * repro.sim.engine.MachineEngine) are the behavioral spec; this file
 * ports them so every replication's MeasurementSummary stays
 * bit-identical to the serial run, which the parity suites pin.  The
 * workload stream and run-length jitter are model rules
 * (repro.workload.base), so the processors draw the same values here.
 * Python (repro.sim.batch) describes the programs as records, seeds the
 * streams, and runs each measurement window with one bc_advance() call
 * per replication.
 *
 * Compiled on demand by repro.sim.batchcore with the system C
 * compiler; no Python.h dependency (pure ABI, loaded via cffi).
 */

#include <stdlib.h>
#include <string.h>
#include <stdint.h>
#include <stdio.h>

typedef long long i64;
typedef unsigned long long u64;

/* ------------------------------------------------------------------ */
/* Directory sharer lists.                                             */
/*                                                                     */
/* Model rule: a home sends INVALIDATEs to its remote sharers in       */
/* ascending node id.  Each directory entry keeps its sharers as a     */
/* sorted array of node ids, so the fan-out emits in array order.      */
/* ------------------------------------------------------------------ */

typedef struct {
    int *ids;
    int used, cap;
} Set;

/* Rebind to an empty set (Python: entry.sharers = set() / {...}). */
static void set_reset(Set *s) { s->used = 0; }

/* Sorted insert; a node already present is left alone. */
static void set_add(Set *s, int node) {
    int i = s->used;
    while (i > 0 && s->ids[i - 1] > node) i--;
    if (i > 0 && s->ids[i - 1] == node) return;
    if (s->used == s->cap) {
        s->cap = s->cap ? s->cap * 2 : 4;
        s->ids = (int *)realloc(s->ids, (size_t)s->cap * sizeof(int));
    }
    memmove(&s->ids[i + 1], &s->ids[i], (size_t)(s->used - i) * sizeof(int));
    s->ids[i] = node;
    s->used++;
}

/* ------------------------------------------------------------------ */
/* Protocol constants (mirrors repro.sim.message / coherence enums).   */
/* ------------------------------------------------------------------ */

enum {
    K_READ = 0, K_WRITE = 1, K_DATA = 2, K_INV = 3,
    K_ACK = 4, K_FETCH = 5, K_FETCHINV = 6, K_WB = 7,
};

/* DATA_REPLY and WRITEBACK carry data (24 flits); the rest are
 * control (8).  tests/sim/test_batch.py pins
 * repro.sim.message._FLITS_BY_KIND to this table. */
static const int FLITS_OF[8] = {8, 8, 24, 8, 8, 8, 8, 24};

enum { CS_INVALID = 0, CS_SHARED = 1, CS_MODIFIED = 2 };
enum { DS_UNOWNED = 0, DS_SHARED = 1, DS_MODIFIED = 2 };

enum {
    OP_HANDLE = 0, OP_BEGIN = 1, OP_LAUNCH = 2, OP_REPLY = 3,
    OP_FINISH = 4, OP_DEFER = 5,
};

#define UID_STRIDE (1LL << 20)

/* ------------------------------------------------------------------ */
/* Pooled objects.                                                     */
/* ------------------------------------------------------------------ */

typedef struct {
    int kind, source, dest, block, flits;
    i64 txn, injected_at;
    int next_free;
} Msg;

/* A message's walk along its e-cube route (see route_next): the node
 * its head is at, the dimension being corrected, hops left in it and
 * their direction (back: 0 for +1, 1 for -1), and the link hops taken
 * so far. */
typedef struct {
    int msg, node, dim, left, back, hops;
    i64 wait;
    int next_free;
} Transit;

typedef struct {
    int is_write;
    i64 handle;
    int next;
} Waiter;

typedef struct {
    int block, is_write, messages;
    i64 issued_at, uid, handle;
    int whead, wtail;
    int next_free;
} Req;

/* Engine event (one scheduled protocol step of the controller). */
typedef struct {
    int cost, op, b0, a0, a1;
    i64 a2;
} Ev;

typedef struct {
    Ev *q;
    int head, count, cap;
    Ev cur;
    int has_cur, ticking, notified;
    i64 done_at, next_uid;
} Ctrl;

typedef struct {
    int requester, is_write;
    i64 txn;
} DefItem;

typedef struct {
    int8_t state, busy, init, txn_active, txn_is_write, txn_wb;
    int owner, txn_requester, txn_pending;
    i64 txn_uid;
    Set sharers;
    DefItem *ditems;
    int dhead, dcount, dcap;
} Dir;

/* Per-channel FIFO of waiting transit ids: a ring whose capacity is
 * a power of two. */
typedef struct {
    int *q;
    int head, count, cap;
} Queue;

typedef struct {
    u64 key;  /* (cycle << 32) | seq */
    int transit;
} DHEnt;

typedef struct {
    i64 *free_at;
    Queue *queues;
    int *pending, *pend2;
    int pcount;
    i64 *link_flits;
    DHEnt *dheap;
    int dcount, dcap;
    u64 dseq;
    i64 in_flight;
} Fab;

/* Min-heap of (time << 20) | node keys. */
typedef struct {
    u64 *a;
    int n, cap;
} Heap;

/* Thread programs as data (see bc_set_programs).  PK_READS reads a
 * fixed list of blocks, then writes its own (neighbor exchange);
 * PK_UNIFORM reads a uniformly random other thread's
 * block `reads` times, then writes its own. */
enum { PK_READS = 0, PK_UNIFORM = 1 };
#define PROG_FIELDS 9

typedef struct {
    int kind, own, reads, tab, threads, thread, base, spread, position;
} Prog;

enum { CX_READY = 0, CX_COMPUTING = 1, CX_BLOCKED = 2 };

/* One hardware context: port of processor.HardwareContext plus its
 * program's cursor. */
typedef struct {
    int state, position;
    i64 remaining;
} Cx;

/* One processor (port of processor.Processor); active and
 * switch_target are -1 for None. */
typedef struct {
    u64 rng;
    int active, switch_left, switch_target, ready, woken;
    i64 last_tick;
} Proc;

typedef struct {
    i64 cycle;
    Ctrl *ctrl;
    int *ready;
    int ready_count;
    Heap wake;  /* controller occupancy ends: (done_at << 20) | node */
    Fab fab;
    Proc *proc;
    Cx *cx;      /* [node * contexts + k], also the completion handle */
    Heap pheap;  /* processor calendar: (tick << 20) | node */
    int *woken;  /* idle processors woken since the last boundary */
    int nwoken;
    i64 issued, completed, comp_last;
    int measuring;
    i64 sent, flits_sum, flits_sq, delivered, lat_total, hops_total;
    i64 hopl_count, started, rcompleted, lcompleted, txn_lat;
    i64 hits, idle, switches;
    double hopl_total;
    int *batch;  /* ctrl- and processor-phase scratch */
    /* Caches and directory: cache_state (a CS_* value) and
     * outstanding (a Req index plus one, 0 = none) are
     * [block * N + node], 5 bytes a cell, both calloc'd so pages no
     * node touches stay unmapped; dir is [block].  Caches never evict:
     * a line leaves only through an invalidation or a fetch. */
    int8_t *cache_state;
    int *outstanding;
    Dir *dir;
    /* pools */
    Msg *msgs;
    int msgs_cap, msg_free;
    Transit *transits;
    int transits_cap, transit_free;
    Req *reqs;
    int reqs_cap, req_free;
    Waiter *waiters;
    int waiters_cap, waiter_free;
    /* Last: these cold bytes keep this replication's hot fields off
     * the cache line the next Rep starts on, which another thread may
     * be writing. */
    int errcode;
    char errmsg[256];
} Rep;

/* Replications share only the read-only tables below; everything a
 * run mutates lives in its Rep, so bc_advance calls on different
 * replications may run at the same time on different threads. */
typedef struct Batch {
    int R, N, dims, radix, channels, links;
    int req_cost, recv_cost, send_cost, mem_cost;
    int contexts, speedup, hit_cycles, switch_cycles;
    int nblocks;
    int *block_home;
    Prog *progs;          /* [node * contexts + k] */
    int *ptab;            /* block-id tables the programs index */
    /* torus geometry for route walks */
    int *coords;       /* [node*dims + dim] */
    int *link_to;      /* [link id] -> the node the link leads to; a
                          table read per hop instead of a wrap test */
    Rep *reps;
} Batch;

static void fail(Rep *rep, int code, const char *msg) {
    if (rep->errcode) return;
    rep->errcode = code;
    snprintf(rep->errmsg, sizeof(rep->errmsg), "%s", msg);
}

/* -- pool allocators ------------------------------------------------ */

static int msg_new(Rep *rep, int kind, int source, int dest, int block,
                   i64 txn) {
    int idx = rep->msg_free;
    if (idx < 0) {
        int old = rep->msgs_cap;
        rep->msgs_cap = old ? old * 2 : 256;
        rep->msgs = (Msg *)realloc(rep->msgs,
                                   (size_t)rep->msgs_cap * sizeof(Msg));
        for (int i = old; i < rep->msgs_cap; i++)
            rep->msgs[i].next_free = (i + 1 < rep->msgs_cap) ? i + 1 : -1;
        idx = old;
    }
    Msg *m = &rep->msgs[idx];
    rep->msg_free = m->next_free;
    m->kind = kind;
    m->source = source;
    m->dest = dest;
    m->block = block;
    m->flits = FLITS_OF[kind];
    m->txn = txn;
    m->injected_at = -1;
    return idx;
}

static void msg_del(Rep *rep, int idx) {
    rep->msgs[idx].next_free = rep->msg_free;
    rep->msg_free = idx;
}

static int transit_new(Rep *rep, int msg, int source) {
    int idx = rep->transit_free;
    if (idx < 0) {
        int old = rep->transits_cap;
        rep->transits_cap = old ? old * 2 : 256;
        rep->transits = (Transit *)realloc(
            rep->transits, (size_t)rep->transits_cap * sizeof(Transit));
        for (int i = old; i < rep->transits_cap; i++)
            rep->transits[i].next_free =
                (i + 1 < rep->transits_cap) ? i + 1 : -1;
        idx = old;
    }
    Transit *t = &rep->transits[idx];
    rep->transit_free = t->next_free;
    t->msg = msg;
    t->node = source;
    t->dim = 0;
    t->left = 0;
    t->back = 0;
    t->hops = 0;
    t->wait = 0;
    return idx;
}

static void transit_del(Rep *rep, int idx) {
    rep->transits[idx].next_free = rep->transit_free;
    rep->transit_free = idx;
}

static int req_new(Rep *rep, int block, int is_write, i64 issued_at,
                   i64 uid, i64 handle) {
    int idx = rep->req_free;
    if (idx < 0) {
        int old = rep->reqs_cap;
        rep->reqs_cap = old ? old * 2 : 128;
        rep->reqs = (Req *)realloc(rep->reqs,
                                 (size_t)rep->reqs_cap * sizeof(Req));
        for (int i = old; i < rep->reqs_cap; i++)
            rep->reqs[i].next_free = (i + 1 < rep->reqs_cap) ? i + 1 : -1;
        idx = old;
    }
    Req *r = &rep->reqs[idx];
    rep->req_free = r->next_free;
    r->block = block;
    r->is_write = is_write;
    r->messages = 0;
    r->issued_at = issued_at;
    r->uid = uid;
    r->handle = handle;
    r->whead = -1;
    r->wtail = -1;
    return idx;
}

static void req_del(Rep *rep, int idx) {
    int w = rep->reqs[idx].whead;
    while (w >= 0) {
        int nxt = rep->waiters[w].next;
        rep->waiters[w].next = rep->waiter_free;
        rep->waiter_free = w;
        w = nxt;
    }
    rep->reqs[idx].next_free = rep->req_free;
    rep->req_free = idx;
}

static void req_add_waiter(Rep *rep, int ridx, int is_write, i64 handle) {
    int idx = rep->waiter_free;
    if (idx < 0) {
        int old = rep->waiters_cap;
        rep->waiters_cap = old ? old * 2 : 128;
        rep->waiters = (Waiter *)realloc(
            rep->waiters, (size_t)rep->waiters_cap * sizeof(Waiter));
        for (int i = old; i < rep->waiters_cap; i++)
            rep->waiters[i].next = (i + 1 < rep->waiters_cap) ? i + 1 : -1;
        idx = old;
    }
    Waiter *w = &rep->waiters[idx];
    rep->waiter_free = w->next;
    w->is_write = is_write;
    w->handle = handle;
    w->next = -1;
    Req *r = &rep->reqs[ridx];
    if (r->wtail < 0) r->whead = idx;
    else rep->waiters[r->wtail].next = idx;
    r->wtail = idx;
}

/* ------------------------------------------------------------------ */
/* Per-(block, node) cache state and outstanding request.              */
/* ------------------------------------------------------------------ */

#define CSTATE(b, rep, blk, node) \
    ((rep)->cache_state[(size_t)(blk) * (b)->N + (node)])
#define OUTST_CELL(b, rep, blk, node) \
    ((rep)->outstanding[(size_t)(blk) * (b)->N + (node)])
/* The outstanding Req index, or -1 if none. */
#define OUTST(b, rep, blk, node) (OUTST_CELL(b, rep, blk, node) - 1)

/* ------------------------------------------------------------------ */
/* Directory entries.                                                  */
/* ------------------------------------------------------------------ */

static Dir *dir_entry(Rep *rep, int block) {
    Dir *d = &rep->dir[block];
    if (!d->init) {
        d->init = 1;
        d->state = DS_UNOWNED;
        d->busy = 0;
        d->txn_active = 0;
        d->owner = -1;
        d->sharers = (Set){NULL, 0, 0};
        d->ditems = NULL;
        d->dhead = 0;
        d->dcount = 0;
        d->dcap = 0;
    }
    return d;
}

static void dir_defer(Dir *d, int requester, int is_write, i64 txn) {
    if (d->dcount >= d->dcap) {
        int old = d->dcap;
        d->dcap = old ? old * 2 : 4;
        DefItem *ni = (DefItem *)malloc((size_t)d->dcap * sizeof(DefItem));
        for (int i = 0; i < d->dcount; i++)
            ni[i] = d->ditems[(d->dhead + i) % (old ? old : 1)];
        free(d->ditems);
        d->ditems = ni;
        d->dhead = 0;
    }
    DefItem *it = &d->ditems[(d->dhead + d->dcount) % d->dcap];
    it->requester = requester;
    it->is_write = is_write;
    it->txn = txn;
    d->dcount++;
}

/* ------------------------------------------------------------------ */
/* Engine queue / wake heap / completions.                             */
/* ------------------------------------------------------------------ */

static void ev_push(Ctrl *c, Ev ev) {
    if (c->count >= c->cap) {
        int old = c->cap;
        c->cap = old ? old * 2 : 8;
        Ev *nq = (Ev *)malloc((size_t)c->cap * sizeof(Ev));
        for (int i = 0; i < c->count; i++)
            nq[i] = c->q[(c->head + i) % (old ? old : 1)];
        free(c->q);
        c->q = nq;
        c->head = 0;
    }
    c->q[(c->head + c->count) % c->cap] = ev;
    c->count++;
}

static Ev ev_pop(Ctrl *c) {
    Ev ev = c->q[c->head];
    c->head = (c->head + 1) % c->cap;
    c->count--;
    return ev;
}

static void heap_push(Heap *hp, u64 key) {
    if (hp->n >= hp->cap) {
        hp->cap = hp->cap ? hp->cap * 2 : 16;
        hp->a = (u64 *)realloc(hp->a, (size_t)hp->cap * sizeof(u64));
    }
    int i = hp->n++;
    u64 *h = hp->a;
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (h[p] <= key) break;
        h[i] = h[p];
        i = p;
    }
    h[i] = key;
}

static u64 heap_pop(Heap *hp) {
    u64 *h = hp->a;
    u64 top = h[0];
    u64 last = h[--hp->n];
    int n = hp->n, i = 0;
    for (;;) {
        int l = 2 * i + 1;
        if (l >= n) break;
        if (l + 1 < n && h[l + 1] < h[l]) l++;
        if (h[l] >= last) break;
        h[i] = h[l];
        i = l;
    }
    if (n) h[i] = last;
    return top;
}

#define HEAP_TIME(hp) ((i64)((hp).a[0] >> 20))

/* Completion of the access issued under `handle` (a context index):
 * forward decl of the processor port below. */
static void proc_complete(const Batch *b, Rep *rep, i64 handle);

/* ------------------------------------------------------------------ */
/* E-cube routes, walked a channel at a time (port of                  */
/* CutThroughFabric._route_ids).  Channel ids: inj(s)=s, ej(d)=N+d,    */
/* link(node,dim,step) = 2N + (node*dims + dim)*2 + (step==+1 ? 0 : 1). */
/* ------------------------------------------------------------------ */

/* The channel `t` queues for after a grant on its injection or a link
 * channel: its next link hop, or the ejection channel once every
 * dimension matches `dest`. */
static int route_next(const Batch *b, Transit *t, int dest) {
    int dims = b->dims, radix = b->radix;
    const int *at = b->coords + (size_t)t->node * dims;
    if (!t->left) {
        /* Dimensions below t->dim already match dest. */
        const int *to = b->coords + (size_t)dest * dims;
        int d = t->dim, forward = 0;
        for (; d < dims; d++) {
            forward = to[d] - at[d];
            if (forward < 0) forward += radix;
            if (forward) break;
        }
        if (d == dims) return b->N + dest;
        t->dim = d;
        t->back = forward > radix - forward;  /* ties at k/2 go positive */
        t->left = t->back ? radix - forward : forward;
    }
    int link = (t->node * dims + t->dim) * 2 + t->back;
    t->node = b->link_to[link];
    t->left--;
    return 2 * b->N + link;
}

/* ------------------------------------------------------------------ */
/* Fabric (port of CutThroughFabric).                                  */
/* ------------------------------------------------------------------ */

static void qe_push(Queue *q, int transit) {
    if (q->count >= q->cap) {
        int old = q->cap;
        q->cap = old ? old * 2 : 4;
        int *nq = (int *)malloc((size_t)q->cap * sizeof(int));
        for (int i = 0; i < q->count; i++)
            nq[i] = q->q[(q->head + i) & (old - 1)];
        free(q->q);
        q->q = nq;
        q->head = 0;
    }
    q->q[(q->head + q->count) & (q->cap - 1)] = transit;
    q->count++;
}

static int qe_pop(Queue *q) {
    int transit = q->q[q->head];
    q->head = (q->head + 1) & (q->cap - 1);
    q->count--;
    return transit;
}

static void dheap_push(Fab *f, u64 key, int transit) {
    if (f->dcount >= f->dcap) {
        f->dcap = f->dcap ? f->dcap * 2 : 32;
        f->dheap = (DHEnt *)realloc(f->dheap,
                                    (size_t)f->dcap * sizeof(DHEnt));
    }
    int i = f->dcount++;
    DHEnt *h = f->dheap;
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (h[p].key <= key) break;
        h[i] = h[p];
        i = p;
    }
    h[i].key = key;
    h[i].transit = transit;
}

static DHEnt dheap_pop(Fab *f) {
    DHEnt *h = f->dheap;
    DHEnt top = h[0];
    DHEnt last = h[--f->dcount];
    int n = f->dcount, i = 0;
    for (;;) {
        int l = 2 * i + 1;
        if (l >= n) break;
        if (l + 1 < n && h[l + 1].key < h[l].key) l++;
        if (h[l].key >= last.key) break;
        h[i] = h[l];
        i = l;
    }
    if (n) h[i] = last;
    return top;
}

static void fab_inject(Rep *rep, int midx, i64 cycle) {
    Fab *f = &rep->fab;
    Msg *m = &rep->msgs[midx];
    m->injected_at = cycle;
    int tidx = transit_new(rep, midx, m->source);
    int ch = m->source;  /* injection channel */
    Queue *q = &f->queues[ch];
    if (!q->count) f->pending[f->pcount++] = ch;
    qe_push(q, tidx);
    f->in_flight++;
}

static i64 fab_next(const Rep *rep, i64 cycle) {
    const Fab *f = &rep->fab;
    i64 earliest = f->dcount ? (i64)(f->dheap[0].key >> 32) : -1;
    for (int i = 0; i < f->pcount; i++) {
        int ch = f->pending[i];
        i64 at = f->free_at[ch];
        if (at <= cycle) return cycle;
        if (earliest < 0 || at < earliest) earliest = at;
    }
    return earliest;
}

/* ------------------------------------------------------------------ */
/* Controller engine + protocol handlers (port of CoherenceController).*/
/* ------------------------------------------------------------------ */

static void ctrl_execute(const Batch *b, Rep *rep, int node, Ev *ev,
                         i64 done);

static void ctrl_schedule(Rep *rep, int node, int cost, int op, int b0,
                          int a0, int a1, i64 a2) {
    Ctrl *c = &rep->ctrl[node];
    Ev ev;
    ev.cost = cost;
    ev.op = op;
    ev.b0 = b0;
    ev.a0 = a0;
    ev.a1 = a1;
    ev.a2 = a2;
    ev_push(c, ev);
    if (!c->has_cur && !c->ticking && !c->notified) {
        c->notified = 1;
        rep->ready[rep->ready_count++] = node;
    }
}

static void ctrl_tick(const Batch *b, Rep *rep, int node, i64 cycle) {
    Ctrl *c = &rep->ctrl[node];
    c->ticking = 1;
    for (;;) {
        if (c->has_cur) {
            if (c->done_at > cycle) break;
            c->has_cur = 0;
            Ev ev = c->cur;
            ctrl_execute(b, rep, node, &ev, c->done_at);
            if (rep->errcode) break;
            continue;
        }
        if (!c->count) break;
        Ev ev = ev_pop(c);
        if (ev.cost == 0) {
            ctrl_execute(b, rep, node, &ev, cycle);
            if (rep->errcode) break;
            continue;
        }
        c->done_at = cycle + ev.cost;
        c->cur = ev;
        c->has_cur = 1;
    }
    c->ticking = 0;
}

static void do_emit(const Batch *b, Rep *rep, int node, int kind,
                    int dest, int block, i64 txn) {
    int midx = msg_new(rep, kind, node, dest, block, txn);
    ctrl_schedule(rep, node, b->send_cost, OP_LAUNCH, 0, midx, -1, 0);
}

static void do_reply_with_data(const Batch *b, Rep *rep, int node,
                               int block, int requester, i64 txn) {
    Dir *d = dir_entry(rep, block);
    d->busy = 1;
    if (requester == node)
        ctrl_schedule(rep, node, b->mem_cost, OP_FINISH, 0, 0, block, 0);
    else
        ctrl_schedule(rep, node, b->mem_cost, OP_REPLY, 0, requester, block,
                      txn);
}

static void do_run_deferred(const Batch *b, Rep *rep, int node, int block) {
    Dir *d = dir_entry(rep, block);
    if (!d->dcount || d->busy) return;
    DefItem it = d->ditems[d->dhead];
    d->dhead = (d->dhead + 1) % d->dcap;
    d->dcount--;
    ctrl_schedule(rep, node, b->req_cost, OP_DEFER, it.is_write,
                  it.requester, block, it.txn);
}

static void do_grant_write(const Batch *b, Rep *rep, int node, int block,
                           int requester, i64 txn) {
    Dir *d = dir_entry(rep, block);
    d->state = DS_MODIFIED;
    set_reset(&d->sharers);
    d->owner = requester;
    do_reply_with_data(b, rep, node, block, requester, txn);
}

static void do_home_read(const Batch *b, Rep *rep, int node, int block,
                         int requester, i64 txn) {
    Dir *d = dir_entry(rep, block);
    if (d->state == DS_MODIFIED && d->owner != requester) {
        if (d->owner == node) {
            CSTATE(b, rep, block, node) = CS_SHARED;
            d->state = DS_SHARED;
            set_reset(&d->sharers);
            set_add(&d->sharers, node);
            set_add(&d->sharers, requester);
            d->owner = -1;
            do_reply_with_data(b, rep, node, block, requester, txn);
            return;
        }
        d->busy = 1;
        d->txn_active = 1;
        d->txn_requester = requester;
        d->txn_is_write = 0;
        d->txn_uid = txn;
        d->txn_pending = 0;
        d->txn_wb = 1;
        do_emit(b, rep, node, K_FETCH, d->owner, block, txn);
        return;
    }
    if (d->state == DS_MODIFIED) {
        int owner = d->owner;
        set_reset(&d->sharers);
        set_add(&d->sharers, owner);
        d->owner = -1;
    }
    d->state = DS_SHARED;
    set_add(&d->sharers, requester);
    do_reply_with_data(b, rep, node, block, requester, txn);
}

static void do_home_write(const Batch *b, Rep *rep, int node, int block,
                          int requester, i64 txn) {
    Dir *d = dir_entry(rep, block);
    if (d->state == DS_MODIFIED && d->owner != requester) {
        if (d->owner == node) {
            CSTATE(b, rep, block, node) = CS_INVALID;
            d->owner = requester;
            do_reply_with_data(b, rep, node, block, requester, txn);
            return;
        }
        d->busy = 1;
        d->txn_active = 1;
        d->txn_requester = requester;
        d->txn_is_write = 1;
        d->txn_uid = txn;
        d->txn_pending = 0;
        d->txn_wb = 1;
        do_emit(b, rep, node, K_FETCHINV, d->owner, block, txn);
        return;
    }
    /* Remote sharers are all but the requester; the home's own copy
     * invalidates without a message.  INVALIDATEs go out in ascending
     * node id, the sharer list's order. */
    int pending = 0;
    for (int i = 0; i < d->sharers.used; i++) {
        int s = d->sharers.ids[i];
        if (s == node && node != requester)
            CSTATE(b, rep, block, node) = CS_INVALID;
        else if (s != requester) pending++;
    }
    if (pending) {
        d->busy = 1;
        d->txn_active = 1;
        d->txn_requester = requester;
        d->txn_is_write = 1;
        d->txn_uid = txn;
        d->txn_pending = pending;
        d->txn_wb = 0;
        for (int i = 0; i < d->sharers.used; i++) {
            int s = d->sharers.ids[i];
            if (s != requester && s != node)
                do_emit(b, rep, node, K_INV, s, block, txn);
        }
        return;
    }
    do_grant_write(b, rep, node, block, requester, txn);
}

static void do_home_handle_request(const Batch *b, Rep *rep, int node,
                                   int block, int requester, int is_write,
                                   i64 txn) {
    if (b->block_home[block] != node) {
        fail(rep, 2, "request received at a non-home node");
        return;
    }
    Dir *d = dir_entry(rep, block);
    if (d->busy) {
        dir_defer(d, requester, is_write, txn);
        return;
    }
    if (is_write)
        do_home_write(b, rep, node, block, requester, txn);
    else
        do_home_read(b, rep, node, block, requester, txn);
}

static void do_home_handle_ack(const Batch *b, Rep *rep, int node,
                               int block) {
    Dir *d = dir_entry(rep, block);
    if (!d->txn_active || d->txn_pending <= 0) {
        fail(rep, 2, "unexpected invalidate ack");
        return;
    }
    d->txn_pending--;
    if (d->txn_pending > 0) return;
    int requester = d->txn_requester;
    i64 uid = d->txn_uid;
    d->txn_active = 0;
    d->busy = 0;
    do_grant_write(b, rep, node, block, requester, uid);
    do_run_deferred(b, rep, node, block);
}

/* The owner's answer to a FETCH or FETCH_INVALIDATE completes the
 * transaction that fetch serves; a FETCH leaves the old owner Shared. */
static void do_home_handle_writeback(const Batch *b, Rep *rep, int node,
                                     int block, int source) {
    Dir *d = dir_entry(rep, block);
    if (!d->txn_active || !d->txn_wb) {
        fail(rep, 2, "writeback with no fetch pending");
        return;
    }
    int requester = d->txn_requester;
    int is_write = d->txn_is_write;
    i64 uid = d->txn_uid;
    d->txn_active = 0;
    d->busy = 0;
    set_reset(&d->sharers);
    if (is_write) {
        d->state = DS_MODIFIED;
        d->owner = requester;
    } else {
        d->state = DS_SHARED;
        set_add(&d->sharers, requester);
        set_add(&d->sharers, source);
        d->owner = -1;
    }
    do_reply_with_data(b, rep, node, block, requester, uid);
    do_run_deferred(b, rep, node, block);
}

static void do_handle_fetch(const Batch *b, Rep *rep, int node, int block,
                            int source, i64 txn, int invalidate) {
    if (CSTATE(b, rep, block, node) != CS_MODIFIED) {
        fail(rep, 2, "fetch for a block not in M state");
        return;
    }
    CSTATE(b, rep, block, node) = invalidate ? CS_INVALID : CS_SHARED;
    do_emit(b, rep, node, K_WB, source, block, txn);
}

static void do_release_waiters(const Batch *b, Rep *rep, int node,
                               int block, int whead, int state, i64 cycle);
static void request_internal(const Batch *b, Rep *rep, int node, int block,
                             int is_write, i64 cycle, i64 handle);

static void do_complete_remote_miss(const Batch *b, Rep *rep, int node,
                                    int block, i64 cycle) {
    int ridx = OUTST(b, rep, block, node);
    if (ridx < 0) {
        fail(rep, 2, "data reply with no outstanding request");
        return;
    }
    OUTST_CELL(b, rep, block, node) = 0;
    Req *req = &rep->reqs[ridx];
    int state = req->is_write ? CS_MODIFIED : CS_SHARED;
    CSTATE(b, rep, block, node) = (int8_t)state;
    if (rep->measuring) {
        rep->rcompleted++;
        rep->txn_lat += cycle - req->issued_at;
    }
    proc_complete(b, rep, req->handle);
    int whead = req->whead;
    req->whead = -1;
    req->wtail = -1;
    do_release_waiters(b, rep, node, block, whead, state, cycle);
    req_del(rep, ridx);
}

static void do_finish_local(const Batch *b, Rep *rep, int node, int block,
                            i64 cycle) {
    int ridx = OUTST(b, rep, block, node);
    if (ridx < 0) {
        fail(rep, 2, "local completion with no outstanding request");
        return;
    }
    OUTST_CELL(b, rep, block, node) = 0;
    Req *req = &rep->reqs[ridx];
    int state = req->is_write ? CS_MODIFIED : CS_SHARED;
    CSTATE(b, rep, block, node) = (int8_t)state;
    Dir *d = dir_entry(rep, block);
    d->busy = 0;
    int remote = req->messages > 0;
    if (rep->measuring) {
        if (remote) {
            rep->rcompleted++;
            rep->txn_lat += cycle - req->issued_at;
        } else {
            rep->lcompleted++;
        }
    }
    proc_complete(b, rep, req->handle);
    int whead = req->whead;
    req->whead = -1;
    req->wtail = -1;
    do_run_deferred(b, rep, node, block);
    do_release_waiters(b, rep, node, block, whead, state, cycle);
    req_del(rep, ridx);
}

static void do_release_waiters(const Batch *b, Rep *rep, int node,
                               int block, int whead, int state, i64 cycle) {
    int w = whead;
    while (w >= 0) {
        Waiter wt = rep->waiters[w];
        if (wt.is_write && state != CS_MODIFIED)
            request_internal(b, rep, node, block, 1, cycle, wt.handle);
        else
            proc_complete(b, rep, wt.handle);
        int nxt = wt.next;
        rep->waiters[w].next = rep->waiter_free;
        rep->waiter_free = w;
        w = nxt;
    }
}

static void request_internal(const Batch *b, Rep *rep, int node, int block,
                             int is_write, i64 cycle, i64 handle) {
    int existing = OUTST(b, rep, block, node);
    if (existing >= 0) {
        req_add_waiter(rep, existing, is_write, handle);
        return;
    }
    Ctrl *c = &rep->ctrl[node];
    i64 uid = c->next_uid;
    c->next_uid = uid + UID_STRIDE;
    int ridx = req_new(rep, block, is_write, cycle, uid, handle);
    OUTST_CELL(b, rep, block, node) = ridx + 1;
    if (rep->measuring) rep->started++;
    ctrl_schedule(rep, node, b->req_cost, OP_BEGIN, 0, ridx, 0, 0);
}

static void do_launch(const Batch *b, Rep *rep, int node, int midx,
                      i64 cycle) {
    Msg *m = &rep->msgs[midx];
    int ridx = OUTST(b, rep, m->block, node);
    if (ridx >= 0 && rep->reqs[ridx].uid == m->txn) rep->reqs[ridx].messages++;
    if (rep->measuring) {
        rep->sent++;
        rep->flits_sum += m->flits;
        rep->flits_sq += (i64)m->flits * m->flits;
    }
    if (m->dest == node) {
        fail(rep, 1, "self-addressed message; local transactions must "
                   "complete without the network");
        return;
    }
    fab_inject(rep, midx, cycle);
}

static void do_handle(const Batch *b, Rep *rep, int node, int midx,
                      i64 cycle) {
    Msg *m = &rep->msgs[midx];
    int kind = m->kind, block = m->block, source = m->source;
    i64 txn = m->txn;
    msg_del(rep, midx);
    switch (kind) {
    case K_READ:
        do_home_handle_request(b, rep, node, block, source, 0, txn);
        break;
    case K_DATA:
        do_complete_remote_miss(b, rep, node, block, cycle);
        break;
    case K_WRITE:
        do_home_handle_request(b, rep, node, block, source, 1, txn);
        break;
    case K_INV:
        CSTATE(b, rep, block, node) = CS_INVALID;
        do_emit(b, rep, node, K_ACK, source, block, txn);
        break;
    case K_ACK:
        do_home_handle_ack(b, rep, node, block);
        break;
    case K_FETCH:
        do_handle_fetch(b, rep, node, block, source, txn, 0);
        break;
    case K_FETCHINV:
        do_handle_fetch(b, rep, node, block, source, txn, 1);
        break;
    case K_WB:
        do_home_handle_writeback(b, rep, node, block, source);
        break;
    default:
        fail(rep, 2, "unhandled message kind");
    }
}

static void ctrl_execute(const Batch *b, Rep *rep, int node, Ev *ev,
                         i64 done) {
    switch (ev->op) {
    case OP_HANDLE:
        do_handle(b, rep, node, ev->a0, done);
        break;
    case OP_LAUNCH:
        do_launch(b, rep, node, ev->a0, done);
        if (ev->a1 >= 0) {
            Dir *d = dir_entry(rep, ev->a1);
            d->busy = 0;
            do_run_deferred(b, rep, node, ev->a1);
        }
        break;
    case OP_REPLY: {
        int midx = msg_new(rep, K_DATA, node, ev->a0, ev->a1, ev->a2);
        ctrl_schedule(rep, node, b->send_cost, OP_LAUNCH, 0, midx, ev->a1,
                      0);
        break;
    }
    case OP_FINISH:
        do_finish_local(b, rep, node, ev->a1, done);
        break;
    case OP_BEGIN: {
        Req *req = &rep->reqs[ev->a0];
        int block = req->block;
        int home = b->block_home[block];
        if (home == node) {
            do_home_handle_request(b, rep, node, block, node,
                                   req->is_write, req->uid);
        } else {
            do_emit(b, rep, node, req->is_write ? K_WRITE : K_READ, home,
                    block, req->uid);
        }
        break;
    }
    case OP_DEFER:
        do_home_handle_request(b, rep, node, ev->a1, ev->a0, ev->b0,
                               ev->a2);
        do_run_deferred(b, rep, node, ev->a1);
        break;
    }
}

/* ------------------------------------------------------------------ */
/* Fabric tick (port of CutThroughFabric.tick; telemetry-free path).  */
/* ------------------------------------------------------------------ */

static void fab_tick(const Batch *b, Rep *rep, i64 cycle) {
    Fab *f = &rep->fab;
    /* Deliveries first: heap keyed (cycle, seq) reproduces the serial
     * per-cycle insertion-order arrival lists. */
    while (f->dcount && (i64)(f->dheap[0].key >> 32) == cycle) {
        DHEnt e = dheap_pop(f);
        Transit *t = &rep->transits[e.transit];
        Msg *m = &rep->msgs[t->msg];
        i64 latency = cycle - m->injected_at;
        f->in_flight--;
        if (rep->measuring) {
            rep->delivered++;
            rep->lat_total += latency;
            int hops = t->hops;
            rep->hops_total += hops;
            if (hops > 0) {
                i64 head = latency - m->flits - t->wait;
                rep->hopl_total += (double)head / (double)hops;
                rep->hopl_count++;
            }
        }
        ctrl_schedule(rep, m->dest, b->recv_cost, OP_HANDLE, 0, t->msg, -1,
                      0);
        transit_del(rep, e.transit);
    }
    if (!f->pcount) return;
    int *pending = f->pending;
    int n = f->pcount;
    int *newp = f->pend2;
    int nn = 0;
    for (int i = 0; i < n; i++) {
        int ch = pending[i];
        if (f->free_at[ch] > cycle) {
            newp[nn++] = ch;
            continue;
        }
        Queue *q = &f->queues[ch];
        int tidx = qe_pop(q);
        Transit *t = &rep->transits[tidx];
        Msg *m = &rep->msgs[t->msg];
        int flits = m->flits;
        i64 until = cycle + flits;
        f->free_at[ch] = until;
        int link = ch - 2 * b->N;
        if (link < 0 && ch >= b->N) {
            /* Ejection granted: the tail arrives after all flits. */
            dheap_push(f, ((u64)until << 32) | (f->dseq++ & 0xffffffffULL),
                       tidx);
        } else {
            if (link >= 0) {
                f->link_flits[link] += flits;
                t->hops++;
            } else {
                t->wait = cycle - m->injected_at;
            }
            int nxt = route_next(b, t, m->dest);
            Queue *nq = &f->queues[nxt];
            if (!nq->count) newp[nn++] = nxt;
            qe_push(nq, tidx);
        }
        if (q->count) newp[nn++] = ch;
    }
    f->pending = newp;
    f->pend2 = pending;
    f->pcount = nn;
}

/* ------------------------------------------------------------------ */
/* Model stream (port of repro.workload.base.NodeStream).              */
/* ------------------------------------------------------------------ */

static u64 stream_next(u64 *state) {
    u64 z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Lemire's multiply-shift with rejection; the records only carry
 * bounds 1 <= n <= 2^32. */
static i64 stream_range(u64 *state, u64 n) {
    u64 m = (stream_next(state) >> 32) * n;
    u64 low = m & 0xFFFFFFFFULL;
    if (low < n) {
        u64 t = ((1ULL << 32) - n) % n;
        while (low < t) {
            m = (stream_next(state) >> 32) * n;
            low = m & 0xFFFFFFFFULL;
        }
    }
    return (i64)(m >> 32);
}

/* ------------------------------------------------------------------ */
/* Programs (ports of NeighborExchangeProgram and                     */
/* UniformRandomProgram; jitter as workload.base.jittered_cycles).    */
/* ------------------------------------------------------------------ */

static i64 prog_compute(const Prog *pg, u64 *rng) {
    i64 v = pg->base;
    if (pg->spread)
        v += stream_range(rng, 2 * (u64)pg->spread + 1) - pg->spread;
    return v > 1 ? v : 1;
}

static int prog_access(const Batch *b, const Prog *pg, Cx *c, u64 *rng,
                       int *is_write) {
    int pos = c->position;
    c->position = (pos + 1) % (pg->reads + 1);
    *is_write = pos >= pg->reads;
    if (*is_write) return pg->own;
    if (pg->kind == PK_READS) return b->ptab[pg->tab + pos];
    int target = (int)stream_range(rng, (u64)pg->threads - 1);
    if (target >= pg->thread) target++;
    return b->ptab[pg->tab + target];
}

/* ------------------------------------------------------------------ */
/* Processor (port of repro.sim.processor.Processor).                  */
/* ------------------------------------------------------------------ */

/* Round-robin scan for a READY context after the active one. */
static int proc_find_ready(const Batch *b, const Proc *p, const Cx *cx) {
    int start = p->active >= 0 ? p->active + 1 : 0;
    for (int off = 0; off < b->contexts; off++) {
        int k = (start + off) % b->contexts;
        if (cx[k].state == CX_READY) return k;
    }
    return -1;
}

/* After a miss: switch to another runnable context or idle. */
static void proc_leave(const Batch *b, Rep *rep, Proc *p, Cx *cx, int index) {
    int target = p->ready ? proc_find_ready(b, p, cx) : -1;
    if (target < 0 || target == index) {
        p->active = -1;
        return;
    }
    cx[target].state = CX_COMPUTING;
    p->ready--;
    if (rep->measuring) rep->switches++;
    p->switch_left = b->switch_cycles;
    p->switch_target = target;
    p->active = -1;
}

static void proc_tick(const Batch *b, Rep *rep, int node, i64 cycle) {
    Proc *p = &rep->proc[node];
    Cx *cx = &rep->cx[(size_t)node * b->contexts];
    if (p->switch_left > 0) {
        if (--p->switch_left == 0) {
            p->active = p->switch_target;
            p->switch_target = -1;
        }
        return;
    }
    if (p->active < 0) {
        if (!p->ready) {
            if (rep->measuring) rep->idle++;
            return;
        }
        /* Waking from idle is free (see Processor.tick). */
        int k = proc_find_ready(b, p, cx);
        p->active = k;
        cx[k].state = CX_COMPUTING;
        p->ready--;
    }
    int k = p->active;
    Cx *c = &cx[k];
    if (c->state == CX_READY) {
        c->state = CX_COMPUTING;
        p->ready--;
    }
    if (c->state != CX_COMPUTING) {
        fail(rep, 1, "active context is not computing");
        return;
    }
    if (c->remaining > 0) {
        c->remaining--;
        return;
    }
    i64 handle = (i64)node * b->contexts + k;
    const Prog *pg = &b->progs[handle];
    int is_write;
    int block = prog_access(b, pg, c, &p->rng, &is_write);
    int st = CSTATE(b, rep, block, node);
    if (is_write ? st == CS_MODIFIED : st != CS_INVALID) {
        if (rep->measuring) rep->hits++;
        c->remaining = b->hit_cycles + prog_compute(pg, &p->rng);
        return;
    }
    c->state = CX_BLOCKED;
    rep->issued++;
    request_internal(b, rep, node, block, is_write, cycle, handle);
    proc_leave(b, rep, p, cx, k);
}

static void proc_complete(const Batch *b, Rep *rep, i64 handle) {
    Cx *c = &rep->cx[handle];
    if (c->state != CX_BLOCKED) {
        fail(rep, 2,
             "transaction completed for a context that is not blocked");
        return;
    }
    int node = (int)(handle / b->contexts);
    Proc *p = &rep->proc[node];
    c->state = CX_READY;
    c->remaining = prog_compute(&b->progs[handle], &p->rng);
    p->ready++;
    rep->completed++;
    rep->comp_last++;
    /* Re-calendar an idle processor (MachineEngine._on_wake). */
    if (p->active < 0 && p->switch_left == 0 && !p->woken) {
        p->woken = 1;
        rep->woken[rep->nwoken++] = node;
    }
}

/* Processor ticks until the next tick that is not a countdown; -1 when
 * idle until a completion (Processor.next_event_ticks). */
static i64 proc_next_event(const Proc *p, const Cx *cx) {
    if (p->switch_left > 0)
        return p->switch_left + cx[p->switch_target].remaining + 1;
    if (p->active >= 0) return cx[p->active].remaining + 1;
    return -1;
}

/* `ticks` consecutive countdown ticks in one step (Processor.skip_ticks). */
static void proc_skip(Rep *rep, Proc *p, Cx *cx, i64 ticks) {
    if (ticks <= 0) return;
    if (p->switch_left > 0) {
        i64 take = ticks < p->switch_left ? ticks : p->switch_left;
        p->switch_left -= (int)take;
        ticks -= take;
        if (p->switch_left == 0) {
            p->active = p->switch_target;
            p->switch_target = -1;
        }
        if (ticks == 0) return;
    }
    if (p->active >= 0) cx[p->active].remaining -= ticks;
    else if (rep->measuring) rep->idle += ticks;
}

/* Processor boundary `tick`: visit the due processors in node order,
 * then the woken ones in wake order (MachineEngine.run_window's
 * processor phase; the order within a boundary is unobservable, see
 * repro.sim.engine). */
static void proc_phase(const Batch *b, Rep *rep, i64 tick, i64 cycle) {
    int *batch = rep->batch;
    int n = 0;
    while (rep->pheap.n && HEAP_TIME(rep->pheap) == tick)
        batch[n++] = (int)(heap_pop(&rep->pheap) & 0xFFFFF);
    /* Woken processors are idle, so they have no calendar entry. */
    for (int i = 0; i < rep->nwoken; i++) {
        int node = rep->woken[i];
        rep->proc[node].woken = 0;
        batch[n++] = node;
    }
    rep->nwoken = 0;
    for (int i = 0; i < n; i++) {
        int node = batch[i];
        Proc *p = &rep->proc[node];
        Cx *cx = &rep->cx[(size_t)node * b->contexts];
        proc_skip(rep, p, cx, tick - p->last_tick - 1);
        proc_tick(b, rep, node, cycle);
        if (rep->errcode) return;
        p->last_tick = tick;
        i64 distance = proc_next_event(p, cx);
        if (distance >= 0)
            heap_push(&rep->pheap, ((u64)(tick + distance) << 20) | (u64)node);
    }
}

/* ------------------------------------------------------------------ */
/* Advance loop: one measurement window of one replication.            */
/* Each cycle runs the processor phase (on processor boundaries), the  */
/* controller phase and the fabric phase, then jumps over cycles on    */
/* which nothing can happen, with MachineEngine's guards.              */
/* ------------------------------------------------------------------ */

i64 bc_advance(Batch *b, int r, i64 stop) {
    Rep *rep = &b->reps[r];
    i64 cycle = rep->cycle;
    int speedup = b->speedup;
    rep->comp_last = 0;
    if (cycle >= stop) return stop;
    while (cycle < stop) {
        if (cycle % speedup == 0) {
            proc_phase(b, rep, cycle / speedup, cycle);
            if (rep->errcode) return -1;
        }
        /* ctrl phase: wake-heap dues + ready list, ascending node */
        int bn = 0;
        int *batch = rep->batch;
        while (rep->wake.n && HEAP_TIME(rep->wake) == cycle)
            batch[bn++] = (int)(heap_pop(&rep->wake) & 0xFFFFF);
        if (rep->ready_count) {
            memcpy(batch + bn, rep->ready,
                   (size_t)rep->ready_count * sizeof(int));
            bn += rep->ready_count;
            rep->ready_count = 0;
        }
        if (bn) {
            if (bn > 1) {
                for (int i = 1; i < bn; i++) {  /* insertion sort */
                    int v = batch[i], j = i - 1;
                    while (j >= 0 && batch[j] > v) {
                        batch[j + 1] = batch[j];
                        j--;
                    }
                    batch[j + 1] = v;
                }
            }
            for (int i = 0; i < bn; i++) {
                int node = batch[i];
                Ctrl *c = &rep->ctrl[node];
                c->notified = 0;
                ctrl_tick(b, rep, node, cycle);
                if (rep->errcode) return -1;
                if (c->has_cur)
                    heap_push(&rep->wake, ((u64)c->done_at << 20) | (u64)node);
            }
        }
        fab_tick(b, rep, cycle);
        if (rep->errcode) return -1;
        i64 nxt = cycle + 1;
        if (!rep->ready_count) {
            i64 horizon = fab_next(rep, nxt);
            if (horizon < 0 || horizon > nxt) {
                i64 target = stop;
                if (rep->wake.n && HEAP_TIME(rep->wake) < target)
                    target = HEAP_TIME(rep->wake);
                if (rep->pheap.n && HEAP_TIME(rep->pheap) * speedup < target)
                    target = HEAP_TIME(rep->pheap) * speedup;
                if (rep->nwoken) {
                    i64 boundary = (nxt + speedup - 1) / speedup * speedup;
                    if (boundary < target) target = boundary;
                }
                if (horizon >= 0 && horizon < target) target = horizon;
                if (target > nxt) nxt = target;
            }
        }
        cycle = nxt;
    }
    rep->cycle = stop;
    /* Bring every processor current through the window's last
     * boundary (MachineEngine._flush). */
    i64 tick = (stop - 1) / speedup;
    int blocked = 0;
    for (int node = 0; node < b->N; node++) {
        Proc *p = &rep->proc[node];
        Cx *cx = &rep->cx[(size_t)node * b->contexts];
        if (tick > p->last_tick) {
            proc_skip(rep, p, cx, tick - p->last_tick);
            p->last_tick = tick;
        }
        for (int k = 0; k < b->contexts; k++)
            blocked += cx[k].state == CX_BLOCKED;
    }
    /* Every issued transaction has completed or is still in flight. */
    if (rep->issued - rep->completed != blocked) {
        fail(rep, 2, "issued minus completed transactions does not match "
                   "the blocked contexts");
        return -1;
    }
    return stop;
}

/* ------------------------------------------------------------------ */
/* Public API.                                                         */
/* ------------------------------------------------------------------ */

Batch *bc_create(int R, int N, int dims, int radix, int req_cost,
                 int recv_cost, int send_cost, int mem_cost, int contexts,
                 int speedup, int hit_cycles, int switch_cycles) {
    if (N >= (1 << 20) || dims > 8) return NULL;
    Batch *b = (Batch *)calloc(1, sizeof(Batch));
    b->R = R;
    b->N = N;
    b->dims = dims;
    b->radix = radix;
    b->req_cost = req_cost;
    b->recv_cost = recv_cost;
    b->send_cost = send_cost;
    b->mem_cost = mem_cost;
    b->contexts = contexts;
    b->speedup = speedup;
    b->hit_cycles = hit_cycles;
    b->switch_cycles = switch_cycles;
    b->channels = 2 * N + 2 * N * dims;
    b->links = 2 * N * dims;
    b->coords = (int *)malloc((size_t)N * dims * sizeof(int));
    b->link_to = (int *)malloc((size_t)b->links * sizeof(int));
    for (int i = 0; i < N; i++) {
        for (int d = 0, rem = i, stride = 1; d < dims;
             d++, rem /= radix, stride *= radix) {
            int c = rem % radix, *to = b->link_to + (i * dims + d) * 2;
            b->coords[i * dims + d] = c;
            to[0] = c == radix - 1 ? i - c * stride : i + stride;
            to[1] = c == 0 ? i + (radix - 1) * stride : i - stride;
        }
    }
    b->progs = (Prog *)calloc((size_t)N * contexts, sizeof(Prog));
    b->reps = (Rep *)calloc((size_t)R, sizeof(Rep));
    for (int r = 0; r < R; r++) {
        Rep *rep = &b->reps[r];
        rep->ctrl = (Ctrl *)calloc((size_t)N, sizeof(Ctrl));
        for (int i = 0; i < N; i++) rep->ctrl[i].next_uid = i;
        rep->ready = (int *)malloc((size_t)N * sizeof(int));
        rep->batch = (int *)malloc((size_t)2 * N * sizeof(int));
        rep->proc = (Proc *)calloc((size_t)N, sizeof(Proc));
        rep->cx = (Cx *)calloc((size_t)N * contexts, sizeof(Cx));
        rep->woken = (int *)malloc((size_t)N * sizeof(int));
        rep->msg_free = -1;
        rep->transit_free = -1;
        rep->req_free = -1;
        rep->waiter_free = -1;
        Fab *f = &rep->fab;
        f->free_at = (i64 *)calloc((size_t)b->channels, sizeof(i64));
        f->queues = (Queue *)calloc((size_t)b->channels, sizeof(Queue));
        f->pending = (int *)malloc((size_t)b->channels * sizeof(int));
        f->pend2 = (int *)malloc((size_t)b->channels * sizeof(int));
        f->link_flits = (i64 *)calloc((size_t)b->links, sizeof(i64));
    }
    return b;
}

void bc_destroy(Batch *b) {
    if (b == NULL) return;
    for (int r = 0; r < b->R; r++) {
        Rep *rep = &b->reps[r];
        for (int i = 0; i < b->N; i++) free(rep->ctrl[i].q);
        free(rep->ctrl);
        free(rep->ready);
        free(rep->batch);
        free(rep->wake.a);
        free(rep->proc);
        free(rep->cx);
        free(rep->pheap.a);
        free(rep->woken);
        Fab *f = &rep->fab;
        for (int c = 0; c < b->channels; c++) free(f->queues[c].q);
        free(f->queues);
        free(f->free_at);
        free(f->pending);
        free(f->pend2);
        free(f->link_flits);
        free(f->dheap);
        for (int i = 0; i < b->nblocks; i++) {
            if (rep->dir[i].init) {
                free(rep->dir[i].sharers.ids);
                free(rep->dir[i].ditems);
            }
        }
        free(rep->dir);
        free(rep->cache_state);
        free(rep->outstanding);
        free(rep->msgs);
        free(rep->transits);
        free(rep->reqs);
        free(rep->waiters);
    }
    free(b->reps);
    free(b->coords);
    free(b->link_to);
    free(b->block_home);
    free(b->progs);
    free(b->ptab);
    free(b);
}

/* Register every block up front, block i homed at homes[i]. */
int bc_add_blocks(Batch *b, int n, const int *homes) {
    if (b->nblocks || n <= 0) return -1;
    size_t cells = (size_t)n * b->N;
    b->nblocks = n;
    b->block_home = (int *)malloc((size_t)n * sizeof(int));
    memcpy(b->block_home, homes, (size_t)n * sizeof(int));
    for (int r = 0; r < b->R; r++) {
        Rep *rep = &b->reps[r];
        rep->cache_state = (int8_t *)calloc(cells, 1);
        rep->outstanding = (int *)calloc(cells, sizeof(int));
        rep->dir = (Dir *)calloc((size_t)n, sizeof(Dir));
    }
    return 0;
}

/* Program records, node-major then context: PROG_FIELDS ints each in
 * Prog field order (kind, own, reads, tab, threads, thread, base,
 * spread, position); `tab` indexes the block-id table `table`.
 * Returns -1 if a record names a block or bound the core cannot run. */
int bc_set_programs(Batch *b, const int *records, int ntable,
                    const int *table) {
    for (int i = 0; i < ntable; i++)
        if (table[i] < 0 || table[i] >= b->nblocks) return -1;
    int count = b->N * b->contexts;
    for (int i = 0; i < count; i++) {
        const int *f = &records[(size_t)i * PROG_FIELDS];
        Prog *pg = &b->progs[i];
        *pg = (Prog){f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7], f[8]};
        int span = pg->kind == PK_READS ? pg->reads : pg->threads;
        if ((pg->kind != PK_READS && pg->kind != PK_UNIFORM) ||
            pg->own < 0 || pg->own >= b->nblocks || pg->reads < 1 ||
            pg->spread < 0 || pg->tab < 0 || pg->tab + span > ntable ||
            (pg->kind == PK_UNIFORM && pg->threads < 2))
            return -1;
    }
    b->ptab = (int *)malloc((size_t)(ntable ? ntable : 1) * sizeof(int));
    memcpy(b->ptab, table, (size_t)ntable * sizeof(int));
    return 0;
}

/* Seed replication r's processors from their stream states, in node
 * order: every context draws its first run length in index order,
 * context 0 starts computing, and each processor lands on the
 * calendar (Processor.__init__ + MachineEngine.__init__ at cycle 0). */
void bc_seed(Batch *b, int r, const unsigned long long *states) {
    Rep *rep = &b->reps[r];
    for (int node = 0; node < b->N; node++) {
        Proc *p = &rep->proc[node];
        Cx *cx = &rep->cx[(size_t)node * b->contexts];
        const Prog *pg = &b->progs[(size_t)node * b->contexts];
        p->rng = states[node];
        for (int k = 0; k < b->contexts; k++) {
            cx[k].state = CX_READY;
            cx[k].position = pg[k].position;
            cx[k].remaining = prog_compute(&pg[k], &p->rng);
        }
        cx[0].state = CX_COMPUTING;
        p->active = 0;
        p->switch_left = 0;
        p->switch_target = -1;
        p->ready = b->contexts - 1;
        p->woken = 0;
        p->last_tick = -1;
        heap_push(&rep->pheap, ((u64)cx[0].remaining << 20) | (u64)node);
    }
}

/* Transactions completed during the last bc_advance on replication r. */
int bc_comp_count(Batch *b, int r) { return (int)b->reps[r].comp_last; }

void bc_start_measuring(Batch *b, int r) {
    Rep *rep = &b->reps[r];
    rep->measuring = 1;
    rep->sent = rep->flits_sum = rep->flits_sq = 0;
    rep->delivered = rep->lat_total = rep->hops_total = 0;
    rep->hopl_count = rep->started = 0;
    rep->rcompleted = rep->lcompleted = rep->txn_lat = 0;
    rep->hits = rep->idle = rep->switches = 0;
    rep->hopl_total = 0.0;
}

void bc_get_counters(Batch *b, int r, i64 *out_i, double *out_d) {
    Rep *rep = &b->reps[r];
    out_i[0] = rep->sent;
    out_i[1] = rep->flits_sum;
    out_i[2] = rep->flits_sq;
    out_i[3] = rep->delivered;
    out_i[4] = rep->lat_total;
    out_i[5] = rep->hops_total;
    out_i[6] = rep->hopl_count;
    out_i[7] = rep->started;
    out_i[8] = rep->rcompleted;
    out_i[9] = rep->lcompleted;
    out_i[10] = rep->txn_lat;
    out_i[11] = rep->hits;
    out_i[12] = rep->idle;
    out_i[13] = rep->switches;
    out_d[0] = rep->hopl_total;
}

/* Flits replication r's links have carried so far. */
i64 bc_link_flits(Batch *b, int r) {
    const i64 *flits = b->reps[r].fab.link_flits;
    i64 total = 0;
    for (int i = 0; i < b->links; i++) total += flits[i];
    return total;
}

/* Replication r's error: 0 if none, 1 a simulation error, 2 a protocol
 * error, with its message. */
int bc_errcode(Batch *b, int r) { return b->reps[r].errcode; }
const char *bc_errmsg(Batch *b, int r) { return b->reps[r].errmsg; }
