/* Swap pricing for the mapping optimizers (repro.mapping.engine).
 *
 * Two operations over one chain's thread -> processor assignment:
 *
 *   sw_delta      the change in weighted hop-sum if threads a and b
 *                 swap processors, from the graph's symmetrized incident
 *                 CSR (CommunicationGraph.incident_csr);
 *   sw_objective  the weighted hop-sum of the whole assignment, from
 *                 the graph's edge arrays (CommunicationGraph.edge_arrays).
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

#include <stdint.h>

typedef struct {
    int64_t dims;
    int64_t radix;
    const int64_t *indptr;
    const int64_t *neighbors;
    const double *weights;
    int64_t edges;
    const int64_t *src;
    const int64_t *dst;
    const double *edge_weights;
    const int64_t *position;
} SwapKernel;

static int64_t hops(const SwapKernel *k, int64_t p, int64_t q)
{
    const int64_t radix = k->radix;
    int64_t total = 0;
    for (int64_t dim = 0; dim < k->dims; dim++) {
        int64_t d = p % radix - q % radix;
        if (d < 0)
            d = -d;
        if (radix - d < d)
            d = radix - d;
        total += d;
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

double sw_objective(const SwapKernel *k)
{
    const int64_t *position = k->position;
    double total = 0.0;
    for (int64_t e = 0; e < k->edges; e++)
        total += k->edge_weights[e]
                 * (double)hops(k, position[k->src[e]], position[k->dst[e]]);
    return total;
}
