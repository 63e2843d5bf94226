/* Swap search for the mapping optimizers (repro.mapping.engine).
 *
 * Operations over one chain's thread -> processor assignment:
 *
 *   sw_delta      the change in weighted hop-sum if threads a and b
 *                 swap processors, from the graph's symmetrized incident
 *                 CSR (CommunicationGraph.incident_csr);
 *   sw_objective  the weighted hop-sum of the whole assignment, from
 *                 the graph's edge arrays (CommunicationGraph.edge_arrays);
 *   sw_chain      a whole annealing chain or hill climb: the draws, the
 *                 pricing, the accept rule and the best-state journal.
 *
 * The random draws are CPython's: a Twister holds a random.Random's
 * Mersenne Twister state (getstate(): 624 words and an index) and
 * sw_randbelow, sw_random and sw_shuffle consume it exactly as
 * Random.randrange(n) (for n < 2**32), Random.random() and
 * Random.shuffle do, so a chain run here makes the same decisions as the
 * same chain written in Python over random.Random(seed).
 *
 * sw_place is the counting placement that groups a graph's edges into
 * CSR rows (CommunicationGraph._rows), in edge order within a row.
 *
 * The torus distance is computed from the node ids' radix-k digits,
 * dimension 0 first as in Torus.coordinates, summing the ring distance
 * min(d, k - d) per dimension, so no table is needed at any size.
 * Every array is read in place through the SwapKernel the Python side
 * fills once per engine; `position` is rebound once per chain.
 *
 * Hop differences are exact integers and each is multiplied by its
 * edge weight before summing, so for integer weights every partial sum
 * is an exact double and the results equal the per-edge loops of
 * repro.mapping.reference bit for bit.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    int64_t dims;
    int64_t radix;
    int64_t threads;
    const int64_t *indptr;
    const int64_t *neighbors;
    const double *weights;
    int64_t edges;
    const int64_t *src;
    const int64_t *dst;
    const double *edge_weights;
    int64_t *position;
} SwapKernel;

typedef struct {
    uint32_t state[624];
    int64_t index;
} Twister;

typedef struct {
    int64_t steps;
    double temperature;
    double cooling;
    double sense;
    double current;
    double best;
    int64_t accepted;
    int64_t attempted;
} Chain;

/* ------------------------------------------------------------------ */
/* CPython's Mersenne Twister (Modules/_randommodule.c).               */
/* ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397

static uint32_t word(Twister *t)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = t->state;
    uint32_t y;
    if (t->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        t->index = 0;
    }
    y = mt[t->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static int bit_length(int64_t n)
{
    return 64 - __builtin_clzll((unsigned long long)n);
}

/* Random._randbelow_with_getrandbits(n): getrandbits(k) for k <= 32 is
 * one word shifted right by 32 - k, redrawn while it is >= n. */
static int64_t below(Twister *t, int64_t n, int bits)
{
    uint32_t r;
    do
        r = word(t) >> (32 - bits);
    while (r >= n);
    return r;
}

/* randrange(n) for 1 <= n < 2**32 (the caller checks the range). */
int64_t sw_randbelow(Twister *t, int64_t n)
{
    return below(t, n, bit_length(n));
}

/* random(): 53 bits from two words, combined as CPython does. */
double sw_random(Twister *t)
{
    const uint32_t a = word(t) >> 5;
    const uint32_t b = word(t) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* shuffle(values) for count < 2**32: Fisher-Yates from the top. */
void sw_shuffle(Twister *t, int64_t *values, int64_t count)
{
    for (int64_t i = count - 1; i > 0; i--) {
        const int64_t j = sw_randbelow(t, i + 1);
        const int64_t swap = values[i];
        values[i] = values[j];
        values[j] = swap;
    }
}

/* ------------------------------------------------------------------ */
/* Pricing.                                                            */
/* ------------------------------------------------------------------ */

static int64_t ring(int64_t radix, int64_t a, int64_t b)
{
    int64_t d = a - b;
    if (d < 0)
        d = -d;
    return radix - d < d ? radix - d : d;
}

static int64_t hops(const SwapKernel *k, int64_t p, int64_t q)
{
    const int64_t radix = k->radix;
    int64_t total = 0;
    for (int64_t dim = 0; dim < k->dims; dim++) {
        total += ring(radix, p % radix, q % radix);
        p /= radix;
        q /= radix;
    }
    return total;
}

/* Change in the weighted hop-sum of `end`'s incident edges when it moves
 * to `partner`'s processor.  Edges to `partner` are skipped: both of
 * their endpoints move, so their length is unchanged. */
static double moved(const SwapKernel *k, int64_t end, int64_t partner)
{
    const int64_t *position = k->position;
    const int64_t here = position[end];
    const int64_t there = position[partner];
    double sum = 0.0;
    for (int64_t e = k->indptr[end]; e < k->indptr[end + 1]; e++) {
        const int64_t neighbor = k->neighbors[e];
        if (neighbor == partner)
            continue;
        const int64_t at = position[neighbor];
        sum += k->weights[e] * (double)(hops(k, there, at) - hops(k, here, at));
    }
    return sum;
}

double sw_delta(const SwapKernel *k, int64_t a, int64_t b)
{
    return moved(k, a, b) + moved(k, b, a);
}

/* Each thread's digits are computed once, into a transient buffer, so
 * the edge loop does no division.  The kernel's fields are read into
 * locals first: stores to the int64 buffer could otherwise alias them.
 * Returns -1 if the buffer cannot be allocated, else 0 with the hop-sum
 * in *total. */
int sw_objective(const SwapKernel *k, double *total)
{
    const int64_t dims = k->dims;
    const int64_t radix = k->radix;
    const int64_t threads = k->threads;
    const int64_t edges = k->edges;
    const int64_t *position = k->position;
    const int64_t *src = k->src;
    const int64_t *dst = k->dst;
    const double *weights = k->edge_weights;
    int64_t *digits = malloc((size_t)(threads * dims) * sizeof(int64_t));
    if (digits == NULL)
        return -1;
    for (int64_t t = 0; t < threads; t++) {
        int64_t p = position[t];
        for (int64_t dim = 0; dim < dims; dim++) {
            digits[t * dims + dim] = p % radix;
            p /= radix;
        }
    }
    double sum = 0.0;
    for (int64_t e = 0; e < edges; e++) {
        const int64_t *a = digits + src[e] * dims;
        const int64_t *b = digits + dst[e] * dims;
        int64_t length = 0;
        for (int64_t dim = 0; dim < dims; dim++)
            length += ring(radix, a[dim], b[dim]);
        sum += weights[e] * (double)length;
    }
    free(digits);
    *total = sum;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Search.                                                             */
/* ------------------------------------------------------------------ */

/* One chain over k->position, in place, in units of sense * hop-sum
 * (sense -1 maximizes).  c->current holds the start's value on entry.
 *
 * Each step cools the temperature, draws two threads, and skips the
 * step if they coincide; otherwise the swap is priced and taken if it
 * lowers the objective or, while the temperature is above 1e-12, if a
 * random() draw falls under exp(-delta / temperature).
 *
 * A chain started at a positive temperature anneals: it ends at the best
 * state it saw (c->best).  Only the swaps made since the last best are
 * journaled, and they are undone at the end.  A chain started at
 * temperature 0 is a hill climb: it takes strict improvements only and
 * ends where it stops (c->current).
 *
 * Returns -1 if the journal cannot grow (the position is then left
 * mid-chain), else 0. */
int sw_chain(const SwapKernel *k, Twister *t, Chain *c)
{
    int64_t *position = k->position;
    const int64_t threads = k->threads;
    const int bits = bit_length(threads);
    const int keep_best = c->temperature > 0.0;
    double temperature = c->temperature;
    double current = c->current;
    double best = current;
    int64_t accepted = 0;
    int64_t attempted = 0;
    int64_t *journal = NULL;
    int64_t length = 0;
    int64_t capacity = 0;

    for (int64_t step = 0; step < c->steps; step++) {
        temperature *= c->cooling;
        const int64_t a = below(t, threads, bits);
        const int64_t b = below(t, threads, bits);
        if (a == b)
            continue;
        attempted++;
        const double delta = c->sense * sw_delta(k, a, b);
        if (!(delta < 0
              || (temperature > 1e-12
                  && sw_random(t) < exp(-delta / temperature))))
            continue;
        const int64_t swap = position[a];
        position[a] = position[b];
        position[b] = swap;
        accepted++;
        current += delta;
        if (current < best) {
            best = current;
            length = 0;
        } else if (keep_best) {
            if (length == capacity) {
                capacity = capacity ? 2 * capacity : 256;
                int64_t *grown = realloc(journal, (size_t)capacity * 2 * sizeof(int64_t));
                if (grown == NULL) {
                    free(journal);
                    return -1;
                }
                journal = grown;
            }
            journal[2 * length] = a;
            journal[2 * length + 1] = b;
            length++;
        }
    }
    while (length > 0) {
        length--;
        const int64_t a = journal[2 * length];
        const int64_t b = journal[2 * length + 1];
        const int64_t swap = position[a];
        position[a] = position[b];
        position[b] = swap;
    }
    free(journal);
    c->current = current;
    c->best = best;
    c->accepted = accepted;
    c->attempted = attempted;
    return 0;
}

/* ------------------------------------------------------------------ */
/* CSR construction.                                                   */
/* ------------------------------------------------------------------ */

/* Counting placement of the edges (src[e], dst[e], weights[e]) into CSR
 * rows: edge e goes to the end of row src[e] as (dst[e], weights[e])
 * and, if `symmetric`, then to the end of row dst[e] as (src[e],
 * weights[e]), so every row keeps edge order.  next[r] is row r's
 * first slot on entry and one past its last on return. */
void sw_place(const int64_t *src, const int64_t *dst, const double *weights,
              int64_t count, int symmetric, int64_t *next,
              int64_t *placed_others, double *placed_weights)
{
    for (int64_t e = 0; e < count; e++) {
        int64_t slot = next[src[e]]++;
        placed_others[slot] = dst[e];
        placed_weights[slot] = weights[e];
        if (symmetric) {
            slot = next[dst[e]]++;
            placed_others[slot] = src[e];
            placed_weights[slot] = weights[e];
        }
    }
}
