/* Dinic max flow and arc removal drops for enflow.flowcrit, loaded through ctypes.

   Arc a owns residual slots 2a (forward, to[2a] is its head) and 2a+1
   (reverse, to[2a+1] is its tail). The reverse slot starts at 0 and holds the
   arc's flow. The slots leaving node v are adj[start[v]] .. adj[start[v+1]-1],
   in ascending slot order. Every comparison, min, subtraction and addition
   follows the order of the Python engine kept in tests/reference_flow.py,
   so the results are bit-identical to it when compiled without FMA
   contraction (-ffp-contract=off) and without -ffast-math.

   Certificate codes: 0 passed, 1 capacity bound broken on arc *where,
   2 conservation broken at node *where, 3 out of memory. */

#include <math.h>
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

/* Certified max flow from s to t: cap receives the residual (a copy of base
   augmented to optimality) and *value its value. When drops is not NULL,
   each arc a that carries flow, in arc order, is re-solved warm and
   value - value_without_a is added to drops[a]; every re-solve is
   certified too. Returns a certificate code. */
int solve_pair(int n, int m, const int *to, const int *start, const int *adj,
               const double *base, double scale, int s, int t, double *cap,
               double *drops, double *value, int *where)
{
    size_t doubles = 2 * (size_t)n + (drops ? 2 * (size_t)m : 0);
    double *work = malloc(doubles * sizeof(double) + 4 * (size_t)n * sizeof(int));
    if (!work) return 3;
    int *iwork = (int *)(work + doubles), a, code;
    graph g = {n, to, start, adj, iwork, iwork + n, iwork + 2 * n, iwork + 3 * n};
    memcpy(cap, base, 2 * (size_t)m * sizeof *cap);
    *value = augment(&g, cap, s, t, HUGE_VAL);
    code = certify(n, m, to, base, cap, scale, s, t, *value, work, where);
    for (a = 0; drops && code == 0 && a < m; a++) {
        if (cap[2 * a + 1] > 0.0) {
            double *warm = work + 2 * n, rest = without(&g, cap, warm, m, s, t, *value, a);
            code = certify(n, m, to, base, warm, scale, s, t, rest, work, where);
            drops[a] += *value - rest;
        }
    }
    free(work);
    return code;
}
