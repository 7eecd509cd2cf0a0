/* Dinic max flow and arc removal drops for enflow.flowcrit, loaded through ctypes.

   Entry point: solve_pairs, one call per pair list (a criticality period, or
   the one pair of a max-flow query). It allocates its workspace once and
   solves the pairs in list order; with drops, each pair adds its arc removal
   drops before the next pair is solved, so every sum is added in pair-list
   order. It stops at the first failing certificate. certify is exported too,
   for tests of the certificate on its own.

   Arc a owns residual slots 2a (forward, to[2a] is its head) and 2a+1
   (reverse, to[2a+1] is its tail). The reverse slot starts at 0 and holds the
   arc's flow. The slots leaving node v are adj[start[v]] .. adj[start[v+1]-1],
   in ascending slot order. Every comparison, min, subtraction and addition
   follows the order of the Python engine kept in tests/reference_flow.py,
   so the results are bit-identical to it when compiled without FMA
   contraction (-ffp-contract=off) and without -ffast-math.

   Arc removal drops. A carrying arc a = (u, v) with flow f is settled by the
   first of three means that applies; all give the bits of the re-solve:
   - Cut screen. Let S be the source side: the nodes that the baseline's last
     BFS reached. That BFS ran to completion, as it did not reach t, so no
     slot with cap > 0.0 leaves S. When u is in S and v is not, deleting a
     keeps S closed, so the reroute from u to v returns 0.0 and the part e
     of f that `without` cannot reroute is f itself. The
     push-backs move flow only inside S (from u to s) or only outside it
     (from t to v), so no slot leaving S gains capacity and the final augment
     returns 0.0 too: the re-solve returns (value - f) + 0.0.
   - Two-hop screen. Let R[x][y] be the sum of the slot capacities from x to
     y. When the sum over w != u, v of min(R[u][w], R[w][v]) is at least
     f * (1 + 1e-9), the reroute of f from u to v cannot stop short: any
     cut between u and v holds at least that sum, and the 1e-9 margin is far
     above the rounding of the reroute's pushes. So the reroute returns
     exactly f, e = 0.0 and nothing is pushed back. A carrying arc never
     enters S (its reverse slot would leave S), so outside the cut screen u
     and v lie on one side of S, and so does every reroute path: S stays
     closed, the final augment returns 0.0 and the drop is exactly 0.0.
   - Otherwise the certified warm re-solve in `without`.
   Arcs settled by a screen are proven, not solved, so they have no residual
   to certify.

   Certificate codes: 0 passed, 1 capacity bound broken on arc *where,
   2 conservation broken at node *where, 3 out of memory. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int n;
    const int *to, *start, *adj;
    int *level, *queue, *next, *path; /* n entries each */
} graph;

/* Push up to `limit` units from s to t by blocking flows on level graphs,
   updating cap in place. Returns the amount pushed, exactly `limit` when the
   limit binds. */
static double augment(const graph *g, double *cap, int s, int t, double limit)
{
    const int *to = g->to, *start = g->start, *adj = g->adj;
    int *level = g->level, *queue = g->queue, *next = g->next, *path = g->path;
    double total = 0.0;
    for (;;) {
        int head = 0, tail = 0, target_level = -1, depth = 0, v;
        for (v = 0; v < g->n; v++) level[v] = -1;
        level[s] = 0;
        queue[tail++] = s;
        while (head < tail) {
            int k, next_level;
            v = queue[head++];
            next_level = level[v] + 1;
            if (target_level >= 0 && next_level > target_level) break;
            for (k = start[v]; k < start[v + 1]; k++) {
                int e = adj[k];
                if (cap[e] > 0.0 && level[to[e]] < 0) {
                    level[to[e]] = next_level;
                    queue[tail++] = to[e];
                    if (to[e] == t) target_level = next_level;
                }
            }
        }
        if (level[t] < 0) return total;
        for (v = 0; v < g->n; v++) next[v] = start[v];
        v = s;
        for (;;) {
            int k, want;
            if (v == t) {
                double bottleneck = cap[path[0]];
                int done, cut = 0;
                for (k = 1; k < depth; k++)
                    if (cap[path[k]] < bottleneck) bottleneck = cap[path[k]];
                done = bottleneck >= limit - total;
                if (done) bottleneck = limit - total;
                for (k = 0; k < depth; k++) {
                    cap[path[k]] -= bottleneck;
                    cap[path[k] ^ 1] += bottleneck;
                }
                if (done) return limit;
                total += bottleneck;
                while (cut < depth && cap[path[cut]] > 0.0) cut++;
                v = cut == 0 ? s : to[path[cut - 1]];
                depth = cut;
                continue;
            }
            want = level[v] + 1;
            for (k = next[v]; k < start[v + 1]; k++)
                if (cap[adj[k]] > 0.0 && level[to[adj[k]]] == want) break;
            next[v] = k;
            if (k < start[v + 1]) {
                path[depth++] = adj[k];
                v = to[adj[k]];
            } else {
                level[v] = -2; /* dead end in this phase */
                if (depth == 0) break;
                v = to[path[--depth] ^ 1];
                next[v]++;
            }
        }
    }
}

/* Certify cap as a flow of `value` from s to t: every arc's flow lies in
   [0, capacity] up to 1e-9 * scale, and every node balances up to
   1e-6 * scale. Inflow and outflow are summed separately in arc order.
   work holds 2n doubles. */
int certify(int n, int m, const int *to, const double *base, const double *cap,
            double scale, int s, int t, double value, double *work, int *where)
{
    double tol = 1e-9 * scale, *in = work, *out = work + n;
    int a, v;
    for (a = 0; a < m; a++) {
        double flow = cap[2 * a + 1];
        if (flow < -tol || flow > base[2 * a] + tol) {
            *where = a;
            return 1;
        }
    }
    for (v = 0; v < 2 * n; v++) work[v] = 0.0;
    for (a = 0; a < m; a++) in[to[2 * a]] += cap[2 * a + 1];
    for (a = 0; a < m; a++) out[to[2 * a + 1]] += cap[2 * a + 1];
    for (v = 0; v < n; v++) {
        double net = in[v] - out[v];
        if (v == s) net += value;
        if (v == t) net -= value;
        if (net > 1e-6 * scale || -net > 1e-6 * scale) {
            *where = v;
            return 2;
        }
    }
    return 0;
}

/* Max-flow value after deleting arc a, warm-started from cap0, a max-flow
   residual of value `value` for s -> t; cap receives the new residual. The
   arc's flow f is rerouted from its tail u to its head v; the part e that
   cannot be rerouted is cancelled by pushing e from u back to s and from t
   to v. The residual then holds a flow of value - e without the arc, and
   augmenting it to optimality gives the exact new max flow. */
static double without(const graph *g, const double *cap0, double *cap, int m,
                      int s, int t, double value, int a)
{
    int u = g->to[2 * a + 1], v = g->to[2 * a];
    double f = cap0[2 * a + 1], e;
    memcpy(cap, cap0, 2 * (size_t)m * sizeof *cap);
    cap[2 * a] = cap[2 * a + 1] = 0.0;
    e = f - augment(g, cap, u, v, f);
    if (e > 0.0) {
        /* With no u-v path left, the e units reach u only from s and leave
           v only towards t, so both pushes find e. */
        if (u != s) augment(g, cap, u, s, e);
        if (v != t) augment(g, cap, t, v, e);
    }
    return value - e + augment(g, cap, s, t, HUGE_VAL);
}

/* Sum over w != u of min(row[w], R[w][v]): row holds R[u][.], col is all
   zeros on entry and on return. The slots leaving v are those entering it,
   reversed. */
static double two_hop(const graph *g, const double *cap, const double *row, double *col,
                      int u, int v)
{
    double sum = 0.0;
    int k;
    for (k = g->start[v]; k < g->start[v + 1]; k++)
        col[g->to[g->adj[k]]] += cap[g->adj[k] ^ 1];
    for (k = g->start[v]; k < g->start[v + 1]; k++) {
        int w = g->to[g->adj[k]];
        if (w != u) sum += row[w] < col[w] ? row[w] : col[w];
        col[w] = 0.0; /* a second slot to w adds min(row[w], 0.0) = 0.0 */
    }
    return sum;
}

/* Add to drops[a], for each arc a that carries flow in cap (a certified
   max-flow residual of `value` for s -> t, whose baseline's last BFS left its
   levels in g->level), in arc order, value - value_without_a, settled by a
   screen or by a certified warm re-solve (see the header); counts[0], [1] and
   [2] grow by the arcs settled by the cut screen, by the two-hop screen and by
   a re-solve. work holds 2n + 2m + 2n doubles, side n ints. Returns a
   certificate code and stops at the first failing one. */
static int pair_drops(const graph *g, int m, const double *base, double scale, int s, int t,
                      const double *cap, double value, double *drops, int64_t *counts,
                      double *work, int *side, int *where)
{
    const int n = g->n, *to = g->to, *start = g->start, *adj = g->adj;
    double *warm = work + 2 * n, *row = warm + 2 * (size_t)m, *col = row + n;
    int a, v, code = 0, tail = -1;
    /* Only a BFS that missed t ran to completion; with finite capacities the
       baseline always ends with one. */
    int screens = g->level[t] < 0;
    memcpy(side, g->level, (size_t)n * sizeof *side);
    for (v = 0; v < n; v++) row[v] = col[v] = 0.0;
    for (a = 0; code == 0 && a < m; a++) {
        int u = to[2 * a + 1], head = to[2 * a], how, k;
        double f = cap[2 * a + 1], drop;
        if (!(f > 0.0)) continue;
        if (u != tail) { /* arcs come in tail order: row holds R[u][.] */
            if (tail >= 0)
                for (k = start[tail]; k < start[tail + 1]; k++) row[to[adj[k]]] = 0.0;
            for (k = start[u]; k < start[u + 1]; k++) row[to[adj[k]]] += cap[adj[k]];
            tail = u;
        }
        if (screens && side[u] >= 0 && side[head] < 0) {
            drop = value - ((value - f) + 0.0);
            how = 0;
        } else if (screens && two_hop(g, cap, row, col, u, head) >= f * (1.0 + 1e-9)) {
            drop = 0.0;
            how = 1;
        } else {
            double rest = without(g, cap, warm, m, s, t, value, a);
            code = certify(n, m, to, base, warm, scale, s, t, rest, work, where);
            drop = value - rest;
            how = 2;
        }
        drops[a] += drop;
        counts[how]++;
    }
    return code;
}

/* Certified max flows of the npairs pairs (pairs[2i], pairs[2i+1]), solved in
   list order with one workspace: values[i] receives pair i's value, and cap
   each pair's residual in turn (a copy of base augmented to optimality), so
   it ends with the last one's. When drops and counts are not NULL, each pair
   then adds its arc removal drops and settle counts, as pair_drops says,
   pair after pair in list order, so every sum is added in that order. Stops
   at the first failing certificate and returns its code, or 3 when the
   workspace cannot be allocated. */
int solve_pairs(int n, int m, const int *to, const int *start, const int *adj,
                const double *base, double scale, int npairs, const int *pairs,
                double *cap, double *values, double *drops, int64_t *counts, int *where)
{
    size_t doubles = 2 * (size_t)n + (drops ? 2 * (size_t)m + 2 * (size_t)n : 0);
    double *work = malloc(doubles * sizeof(double) + 5 * (size_t)n * sizeof(int));
    if (!work) return 3;
    int *iwork = (int *)(work + doubles), i, code = 0;
    graph g = {n, to, start, adj, iwork, iwork + n, iwork + 2 * n, iwork + 3 * n};
    for (i = 0; code == 0 && i < npairs; i++) {
        int s = pairs[2 * i], t = pairs[2 * i + 1];
        memcpy(cap, base, 2 * (size_t)m * sizeof *cap);
        values[i] = augment(&g, cap, s, t, HUGE_VAL);
        code = certify(n, m, to, base, cap, scale, s, t, values[i], work, where);
        if (drops && code == 0)
            code = pair_drops(&g, m, base, scale, s, t, cap, values[i], drops, counts, work,
                              iwork + 4 * n, where);
    }
    free(work);
    return code;
}
