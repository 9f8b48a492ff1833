/*
 * The native min-sum decode, repro_decode_min_sum: the decoding loop of
 * repro.decode.base.MessagePassingDecoder for every decoder that states
 * streaming parameters (min-sum, nms, offset, quantized and layered).
 * native.py builds this file, checks it against the loop on the numpy
 * bodies and loads it; graph.py documents the arithmetic both must follow.
 *
 * Layout.  LANES frames decode at once, in posterior form: one row of LANES
 * values per bit (the channel LLRs and the posteriors) and per edge (the
 * check-to-bit messages), the lane innermost, as the paper's memory word
 * holds one message of several frames.  Each loop runs along the lanes of
 * one row, two at a time.
 *
 * Exactness.  Built without fast-math and with -ffp-contract=off, every
 * addition, subtraction and multiplication below is one IEEE operation in
 * numpy's order; minima, maxima, selections and sign flips are exact.  So
 * every result is bit-identical to the loop's for every input without NaN.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* Two lanes of one row. */
typedef double f64x2 __attribute__((vector_size(16)));
typedef int64_t i64x2 __attribute__((vector_size(16)));

/* Frames decoding at once.  Chosen by measurement on the C2 code against the
 * decoding loop; see docs/components.md. */
#define LANES 4
#define PAIRS (LANES / 2)

/* Each pass is compiled once per schedule and quantizer it serves. */
#define INLINE static inline __attribute__((always_inline))

static const i64x2 SIGN = {INT64_MIN, INT64_MIN};

static inline f64x2 load(const double *p)
{
    f64x2 v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store(double *p, f64x2 v)
{
    memcpy(p, &v, sizeof v);
}

static inline f64x2 splat(double v)
{
    return (f64x2){v, v};
}

static inline f64x2 magnitude(f64x2 v)
{
    return (f64x2)((i64x2)v & ~SIGN);
}

/* mask ? a : b, lane by lane; a mask lane is all ones or all zeros. */
static inline f64x2 pick(i64x2 mask, f64x2 a, f64x2 b)
{
    return (f64x2)((mask & (i64x2)a) | (~mask & (i64x2)b));
}

/* a < b ? a : b and a > b ? a : b.  x86's minpd and maxpd make the same
 * choice as the portable spelling. */
static inline f64x2 smaller(f64x2 a, f64x2 b)
{
#ifdef __SSE2__
    return (f64x2)_mm_min_pd((__m128d)a, (__m128d)b);
#else
    return pick(a < b, a, b);
#endif
}

static inline f64x2 larger(f64x2 a, f64x2 b)
{
#ifdef __SSE2__
    return (f64x2)_mm_max_pd((__m128d)a, (__m128d)b);
#else
    return pick(a > b, a, b);
#endif
}

/* Keep the smallest and second smallest of the magnitudes seen so far: a
 * minimum held twice is also the second smallest. */
static inline void keep_two_smallest(f64x2 *min1, f64x2 *min2, f64x2 m)
{
    *min2 = smaller(*min2, larger(*min1, m));
    *min1 = smaller(*min1, m);
}

/* The decoder's correction and message quantizer. */
struct rule {
    double scale;   /* times scale when != 1 */
    double offset;  /* minus offset, clamped at 0, when != 0 */
    double step;    /* quantizer step, a power of two */
    double inverse; /* 1 / step, exact */
    double limit;   /* saturation: the quantizer clips to [-limit, limit] */
};

/*
 * UniformQuantizer.quantize of a symmetric format: round(x / step) * step,
 * clipped to [-limit, limit].  As step is a power of two, x * (1 / step)
 * is x / step bit for bit.  Adding and subtracting 2^52 rounds a magnitude
 * below 2^52 to an integer, half to even, as numpy's round does; a larger
 * one already is an integer.  The sign is put back after, so -0.3 rounds to
 * -0.0 as it does in numpy.  np.clip(v, lo, hi) is min(max(v, lo), hi).
 */
static inline f64x2 quantize(f64x2 x, const struct rule *rule)
{
    const f64x2 big = splat(0x1p52);
    const f64x2 v = x * splat(rule->inverse);
    const f64x2 m = magnitude(v);
    const f64x2 whole = (f64x2)((i64x2)((m + big) - big) | ((i64x2)v & SIGN));
    const f64x2 rounded = pick(m < big, whole, v) * splat(rule->step);
    return smaller(larger(rounded, splat(-rule->limit)), splat(rule->limit));
}

/* Correct a check's two smallest magnitudes once: minus `offset`, clamped at
 * 0, when offset != 0; times `scale` when scale != 1.  A check of degree 1
 * has no other message, so its second magnitude is 0.  The quantizer, when
 * the decoder has one, applies to both corrected magnitudes: it commutes
 * with the sign the message takes after. */
INLINE void correct(f64x2 *min1, f64x2 *min2, const struct rule *rule, int quantized,
                    int64_t degree)
{
    const f64x2 zero = {0.0, 0.0};
    f64x2 a = *min1;
    f64x2 b = *min2;
    if (rule->offset != 0.0) {
        a = a - splat(rule->offset);
        b = b - splat(rule->offset);
        a = pick(a < zero, zero, a);
        b = pick(b < zero, zero, b);
    }
    if (rule->scale != 1.0) {
        a = a * splat(rule->scale);
        b = b * splat(rule->scale);
    }
    if (degree == 1)
        b = zero;
    a = magnitude(a);
    b = magnitude(b);
    if (quantized) {
        a = quantize(a, rule);
        b = quantize(b, rule);
    }
    *min1 = a;
    *min2 = b;
}

/* The message back to the edge that sent x: the corrected second smallest
 * magnitude where |x| is the smallest, the corrected smallest elsewhere,
 * with the sign of (x < 0) XOR the check's parity. */
static inline f64x2 extrinsic(f64x2 x, f64x2 smallest, f64x2 fix1, f64x2 fix2,
                              i64x2 parity)
{
    const f64x2 zero = {0.0, 0.0};
    const f64x2 value = pick(magnitude(x) == smallest, fix2, fix1);
    return (f64x2)((i64x2)value | (((x < zero) ^ parity) & SIGN));
}

/* The graph, as TannerGraph holds it.  Edges are sorted by check; non-empty
 * check i owns edges [starts[i], starts[i + 1]) (the last one ends at
 * `edges`), and edge e joins bit edge_bit[e].  Bit b has degrees[b] edges,
 * slot_edges[s * bits + b] for slot s in bit-sorted order. */
struct graph {
    const int64_t *edge_bit, *starts, *slot_edges, *degrees;
    int64_t bits, checks, edges;
};

/* The first edge of non-empty check c; `edges` for c == checks. */
static inline int64_t first_edge(const struct graph *g, int64_t c)
{
    return c < g->checks ? g->starts[c] : g->edges;
}

/* The lane buffers: one row of LANES values per bit or edge. */
struct lanes {
    double *llr;   /* [bits][LANES] channel LLRs */
    double *post;  /* [bits][LANES] posteriors */
    double *c2b;   /* [edges][LANES] check-to-bit messages */
    double *delta; /* [edges of the largest layer][LANES], layered only */
};

/* Put `values` (one frame's LLRs, or NULL for an idle lane of zeros) into
 * `lane`, with every check-to-bit message +0.0. */
static void fill_lane(struct lanes *lanes, int64_t lane, const double *values,
                      const struct graph *g)
{
    for (int64_t b = 0; b < g->bits; b++) {
        const double v = values ? values[b] : 0.0;
        lanes->llr[b * LANES + lane] = v;
        lanes->post[b * LANES + lane] = v;
    }
    for (int64_t e = 0; e < g->edges; e++)
        lanes->c2b[e * LANES + lane] = 0.0;
}

/*
 * Check pass over the non-empty checks [first, last), in posterior form.
 * Each slot's bit-to-check message is x = post[bit] - c2b, the bit node's
 * own subtraction, quantized when the decoder quantizes its messages.  The
 * first sweep forms x, keeps it for the second, and keeps the running pair
 * of smallest magnitudes and the parity of x < 0; the second gives each edge
 * its message, as extrinsic() forms it.
 *
 * Flooding (`layered` 0): x is kept in c2b, whose old value no later
 * operation reads, and the second sweep overwrites it with the message.
 * The first sweep also XORs post <= 0 into the check's syndrome, and
 * failed[] collects, per lane, whether any check's syndrome is 1.
 *
 * Layered (exact messages only): x is kept in delta[], from `first`'s first
 * edge on, and the second sweep writes the new message to c2b and new - old
 * to delta[]; failed[] is not touched.  post stays as it stood at the
 * pass's start.
 */
INLINE void check_pass(struct lanes *lanes, const struct graph *g, int64_t first,
                       int64_t last, const struct rule *rule, int quantized, int layered,
                       i64x2 failed[PAIRS])
{
    const f64x2 zero = {0.0, 0.0};
    const f64x2 inf = splat(__builtin_inf());
    const int64_t base = first_edge(g, first);

    for (int64_t c = first; c < last; c++) {
        const int64_t start = g->starts[c];
        const int64_t stop = first_edge(g, c + 1);
        f64x2 min1[PAIRS], min2[PAIRS];
        i64x2 parity[PAIRS], syndrome[PAIRS];
        for (int h = 0; h < PAIRS; h++) {
            min1[h] = inf;
            min2[h] = inf;
            parity[h] = (i64x2){0, 0};
            syndrome[h] = (i64x2){0, 0};
        }
        for (int64_t e = start; e < stop; e++) {
            const double *post = lanes->post + g->edge_bit[e] * LANES;
            double *c2b = lanes->c2b + e * LANES;
            double *kept = layered ? lanes->delta + (e - base) * LANES : c2b;
            for (int h = 0; h < PAIRS; h++) {
                const f64x2 p = load(post + 2 * h);
                f64x2 x = p - load(c2b + 2 * h);
                if (quantized)
                    x = quantize(x, rule);
                store(kept + 2 * h, x);
                keep_two_smallest(&min1[h], &min2[h], magnitude(x));
                parity[h] ^= x < zero;
                if (!layered)
                    syndrome[h] ^= p <= zero;
            }
        }
        f64x2 fix1[PAIRS], fix2[PAIRS];
        for (int h = 0; h < PAIRS; h++) {
            fix1[h] = min1[h];
            fix2[h] = min2[h];
            correct(&fix1[h], &fix2[h], rule, quantized, stop - start);
            if (!layered)
                failed[h] |= syndrome[h];
        }
        for (int64_t e = start; e < stop; e++) {
            double *c2b = lanes->c2b + e * LANES;
            double *kept = layered ? lanes->delta + (e - base) * LANES : c2b;
            for (int h = 0; h < PAIRS; h++) {
                const f64x2 x = load(kept + 2 * h);
                const f64x2 message = extrinsic(x, min1[h], fix1[h], fix2[h], parity[h]);
                if (layered)
                    store(kept + 2 * h, message - load(c2b + 2 * h));
                store(c2b + 2 * h, message);
            }
        }
    }
}

/* Bit pass of the flooding schedule: post = llr + (m0 + ((m1 + m2) + ... +
 * m_{d-1})), as TannerGraph.sum_per_bit sums, over the slot-major bit
 * layout. */
INLINE void bit_pass(struct lanes *lanes, const struct graph *g)
{
    const f64x2 zero = {0.0, 0.0};
    for (int64_t b = 0; b < g->bits; b++) {
        const int64_t degree = g->degrees[b];
        const int64_t *edge = g->slot_edges + b;
        f64x2 total[PAIRS];
        for (int h = 0; h < PAIRS; h++)
            total[h] = zero;
        if (degree > 0) {
            const double *m0 = lanes->c2b + edge[0] * LANES;
            for (int h = 0; h < PAIRS; h++)
                total[h] = load(m0 + 2 * h);
        }
        if (degree > 1) {
            f64x2 rest[PAIRS];
            const double *m1 = lanes->c2b + edge[g->bits] * LANES;
            for (int h = 0; h < PAIRS; h++)
                rest[h] = load(m1 + 2 * h);
            for (int64_t slot = 2; slot < degree; slot++) {
                const double *m = lanes->c2b + edge[slot * g->bits] * LANES;
                for (int h = 0; h < PAIRS; h++)
                    rest[h] = rest[h] + load(m + 2 * h);
            }
            for (int h = 0; h < PAIRS; h++)
                total[h] = total[h] + rest[h];
        }
        for (int h = 0; h < PAIRS; h++)
            store(lanes->post + b * LANES + 2 * h,
                  load(lanes->llr + b * LANES + 2 * h) + total[h]);
    }
}

/* Syndrome pass of the layered schedule: failed[] collects, per lane,
 * whether any check's XOR of post <= 0 is 1. */
INLINE void syndrome_pass(const struct lanes *lanes, const struct graph *g,
                          i64x2 failed[PAIRS])
{
    const f64x2 zero = {0.0, 0.0};
    for (int64_t c = 0; c < g->checks; c++) {
        const int64_t stop = first_edge(g, c + 1);
        i64x2 syndrome[PAIRS];
        for (int h = 0; h < PAIRS; h++)
            syndrome[h] = (i64x2){0, 0};
        for (int64_t e = g->starts[c]; e < stop; e++) {
            const double *post = lanes->post + g->edge_bit[e] * LANES;
            for (int h = 0; h < PAIRS; h++)
                syndrome[h] ^= load(post + 2 * h) <= zero;
        }
        for (int h = 0; h < PAIRS; h++)
            failed[h] |= syndrome[h];
    }
}

/* The layer's posterior update: each edge's new - old added to its bit, in
 * edge order, as np.add.at adds. */
INLINE void add_pass(struct lanes *lanes, const struct graph *g, int64_t first,
                     int64_t last)
{
    const int64_t base = first_edge(g, first);
    const int64_t stop = first_edge(g, last);
    for (int64_t e = base; e < stop; e++) {
        double *post = lanes->post + g->edge_bit[e] * LANES;
        const double *delta = lanes->delta + (e - base) * LANES;
        for (int h = 0; h < PAIRS; h++)
            store(post + 2 * h, load(post + 2 * h) + load(delta + 2 * h));
    }
}

/*
 * Min-sum decode of a whole batch: the decoding loop of
 * repro.decode.base.MessagePassingDecoder for a decoder with streaming
 * parameters.
 *
 * `llrs`, `posterior` and `hard` are (frames, bits), one frame per row; the
 * LLRs are the conditioned ones the loop decodes.  `scale` and `offset`
 * correct each check's two smallest magnitudes.  `step` > 0 quantizes every
 * message to multiples of `step` within [-limit, limit]; 0 leaves them
 * exact.  `layers` == 0 floods; otherwise layer i holds the non-empty
 * checks [layer_starts[i], layer_starts[i + 1]) (the last one ends at
 * `checks`), and the messages stay exact.
 *
 * LANES frames decode at once in posterior form (struct lanes).  Each round
 * takes the syndrome of post <= 0 on every lane: in the flooding check
 * pass, which also updates c2b, or in a syndrome pass of its own before the
 * layers.  A lane whose syndrome is clear at an iteration >= early_stop, or
 * that has run max_iterations, then writes out its posterior, hard
 * decisions (post <= 0), iteration count and syndrome flag: a frame stopped
 * at iteration 0 keeps its LLRs bit for bit.  The other lanes finish the
 * iteration: the bit pass, or each layer's check pass and posterior update
 * in turn.  Each stopped lane then takes the next frame with post = llr and
 * c2b = +0.0, which the next check pass reads as x = llr - 0.0, bit for bit
 * the LLR, as the loop's first check node reads it.  Every value a frame
 * sees is the loop's, computed in the loop's order, whatever the other
 * lanes hold.
 *
 * Returns 0, or -1 when the lanes cannot be allocated.
 */
int repro_decode_min_sum(const double *llrs, int64_t frames, int64_t bits,
                         const int64_t *edge_bit, const int64_t *starts,
                         int64_t checks, int64_t edges,
                         const int64_t *slot_edges, const int64_t *degrees,
                         double scale, double offset, double step, double limit,
                         const int64_t *layer_starts, int64_t layers,
                         int64_t max_iterations, int64_t early_stop,
                         double *posterior, uint8_t *hard, int64_t *iterations,
                         uint8_t *converged)
{
    const struct graph g = {edge_bit, starts, slot_edges, degrees, bits, checks, edges};
    const struct rule rule = {scale, offset, step, step > 0.0 ? 1.0 / step : 0.0, limit};
    const int quantized = step > 0.0;

    /* The largest layer's edges, which delta[] holds. */
    int64_t widest = 0;
    for (int64_t i = 0; i < layers; i++) {
        const int64_t last = i + 1 < layers ? layer_starts[i + 1] : checks;
        const int64_t width = first_edge(&g, last) - first_edge(&g, layer_starts[i]);
        if (width > widest)
            widest = width;
    }
    const size_t row = LANES * sizeof(double);
    const size_t size = ((size_t)(2 * bits + edges + widest) * row + 63) / 64 * 64;
    double *buffer = aligned_alloc(64, size ? size : 64);
    if (buffer == NULL)
        return -1;
    struct lanes lanes = {buffer, buffer + bits * LANES, buffer + 2 * bits * LANES,
                          buffer + (2 * bits + edges) * LANES};

    int64_t frame[LANES], iteration[LANES];
    int64_t next = 0;
    for (int64_t lane = 0; lane < LANES; lane++) {
        frame[lane] = next < frames ? next++ : -1;
        iteration[lane] = 0;
        fill_lane(&lanes, lane, frame[lane] < 0 ? NULL : llrs + frame[lane] * bits, &g);
    }

    for (;;) {
        int active = 0;
        for (int64_t lane = 0; lane < LANES; lane++)
            active |= frame[lane] >= 0;
        if (!active)
            break;
        i64x2 failed[PAIRS];
        for (int h = 0; h < PAIRS; h++)
            failed[h] = (i64x2){0, 0};
        if (layers)
            syndrome_pass(&lanes, &g, failed);
        else if (quantized)
            check_pass(&lanes, &g, 0, checks, &rule, 1, 0, failed);
        else
            check_pass(&lanes, &g, 0, checks, &rule, 0, 0, failed);

        int stopped[LANES];
        int decoding = 0;
        for (int64_t lane = 0; lane < LANES; lane++) {
            stopped[lane] = 0;
            if (frame[lane] < 0)
                continue;
            const int ok = failed[lane / 2][lane % 2] == 0;
            if ((ok && iteration[lane] >= early_stop) ||
                iteration[lane] >= max_iterations) {
                const int64_t f = frame[lane];
                for (int64_t b = 0; b < bits; b++) {
                    const double v = lanes.post[b * LANES + lane];
                    posterior[f * bits + b] = v;
                    hard[f * bits + b] = v <= 0.0;
                }
                iterations[f] = iteration[lane];
                converged[f] = (uint8_t)ok;
                stopped[lane] = 1;
            } else {
                decoding = 1;
            }
        }
        if (decoding && !layers) {
            bit_pass(&lanes, &g);
        } else if (decoding) {
            for (int64_t i = 0; i < layers; i++) {
                const int64_t first = layer_starts[i];
                const int64_t last = i + 1 < layers ? layer_starts[i + 1] : checks;
                check_pass(&lanes, &g, first, last, &rule, 0, 1, NULL);
                add_pass(&lanes, &g, first, last);
            }
        }

        for (int64_t lane = 0; lane < LANES; lane++) {
            if (frame[lane] < 0)
                continue;
            if (!stopped[lane]) {
                iteration[lane]++;
                continue;
            }
            frame[lane] = next < frames ? next++ : -1;
            iteration[lane] = 0;
            fill_lane(&lanes, lane, frame[lane] < 0 ? NULL : llrs + frame[lane] * bits, &g);
        }
    }
    free(buffer);
    return 0;
}
