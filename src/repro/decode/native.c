/*
 * The native min-sum decode: the decoding loop of
 * repro.decode.base.MessagePassingDecoder for every decoder that states
 * streaming parameters (min-sum, nms, offset, quantized and layered).
 * native.py builds this file twice into one library: as it stands, exporting
 * repro_decode_min_sum, and through native_avx2.c, which compiles it for
 * AVX2 as repro_decode_min_sum_avx2.  It loads the entry this CPU runs and
 * checks it against the loop on the numpy bodies; graph.py documents the
 * arithmetic both must follow.
 *
 * Layout.  LANES frames decode at once, in posterior form: one row of LANES
 * values per bit (the channel LLRs and the posteriors) and per edge (the
 * check-to-bit messages), the lane innermost, as the paper's memory word
 * holds one message of several frames.  Each loop runs along the lanes of
 * one row, WIDTH at a time: the target's vector width sets WIDTH, so a row
 * is one 4-double vector under AVX2 and two 2-double halves otherwise.
 *
 * Exactness.  Built without fast-math and with -ffp-contract=off, every
 * addition, subtraction and multiplication below is one IEEE operation in
 * numpy's order; minima, maxima, selections and sign flips are exact.  So
 * every result is bit-identical to the loop's for every input without NaN,
 * at either width.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The exported decode; native_avx2.c names its own build of this file. */
#ifndef ENTRY
#define ENTRY repro_decode_min_sum
#endif

/* Frames decoding at once.  Chosen by measurement on the C2 code against the
 * decoding loop; see docs/components.md. */
#define LANES 4

/* Lanes per vector, and vectors per row. */
#ifdef __AVX2__
#define WIDTH 4
#else
#define WIDTH 2
#endif
#define PARTS (LANES / WIDTH)

/* WIDTH lanes of one row. */
typedef double f64v __attribute__((vector_size(WIDTH * sizeof(double))));
typedef int64_t i64v __attribute__((vector_size(WIDTH * sizeof(int64_t))));

/* Each pass is compiled once per schedule and quantizer it serves. */
#define INLINE static inline __attribute__((always_inline))

/* A double's sign bit; a vector operation applies it to every lane. */
static const int64_t SIGN = INT64_MIN;

static inline f64v load(const double *p)
{
    f64v v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store(double *p, f64v v)
{
    memcpy(p, &v, sizeof v);
}

static inline f64v splat(double v)
{
    f64v lanes;
    for (int i = 0; i < WIDTH; i++)
        lanes[i] = v;
    return lanes;
}

static inline f64v magnitude(f64v v)
{
    return (f64v)((i64v)v & ~SIGN);
}

/* mask ? a : b, lane by lane; a mask lane is all ones or all zeros. */
static inline f64v pick(i64v mask, f64v a, f64v b)
{
    return (f64v)((mask & (i64v)a) | (~mask & (i64v)b));
}

/* a < b ? a : b and a > b ? a : b.  x86's minpd and maxpd make the same
 * choice as the portable spelling.  They are named by their builtins, as
 * <immintrin.h>, which declares the 256-bit intrinsics, raises the
 * compiler's peak memory from 44 to 106 MB. */
static inline f64v smaller(f64v a, f64v b)
{
#if WIDTH == 4
    return __builtin_ia32_minpd256(a, b);
#elif defined(__SSE2__)
    return __builtin_ia32_minpd(a, b);
#else
    return pick(a < b, a, b);
#endif
}

static inline f64v larger(f64v a, f64v b)
{
#if WIDTH == 4
    return __builtin_ia32_maxpd256(a, b);
#elif defined(__SSE2__)
    return __builtin_ia32_maxpd(a, b);
#else
    return pick(a > b, a, b);
#endif
}

/* Keep the smallest and second smallest of the magnitudes seen so far: a
 * minimum held twice is also the second smallest. */
static inline void keep_two_smallest(f64v *min1, f64v *min2, f64v m)
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
static inline f64v quantize(f64v x, const struct rule *rule)
{
    const f64v big = splat(0x1p52);
    const f64v v = x * splat(rule->inverse);
    const f64v m = magnitude(v);
    const f64v whole = (f64v)((i64v)((m + big) - big) | ((i64v)v & SIGN));
    const f64v rounded = pick(m < big, whole, v) * splat(rule->step);
    return smaller(larger(rounded, splat(-rule->limit)), splat(rule->limit));
}

/* Correct a check's two smallest magnitudes once: minus `offset`, clamped at
 * 0, when offset != 0; times `scale` when scale != 1.  A check of degree 1
 * has no other message, so its second magnitude is 0.  The quantizer, when
 * the decoder has one, applies to both corrected magnitudes: it commutes
 * with the sign the message takes after. */
INLINE void correct(f64v *min1, f64v *min2, const struct rule *rule, int quantized,
                    int64_t degree)
{
    const f64v zero = {0.0};
    f64v a = *min1;
    f64v b = *min2;
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
static inline f64v extrinsic(f64v x, f64v smallest, f64v fix1, f64v fix2,
                              i64v parity)
{
    const f64v zero = {0.0};
    const f64v value = pick(magnitude(x) == smallest, fix2, fix1);
    return (f64v)((i64v)value | (((x < zero) ^ parity) & SIGN));
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

/*
 * This thread's lane buffer, kept from call to call and grown to the largest
 * call's size.  A buffer allocated and freed by each call fragments the
 * heap: once other allocations split the freed block, the next aligned
 * request no longer fits in it, and the heap grows by the lanes (1.6 MB for
 * C2) again.  One mapped and unmapped by each call page-faults in on every
 * call, 6 % of a 16-frame decode of C2.  A thread that exits leaves its
 * buffer allocated.
 */
static _Thread_local double *kept_lanes;
static _Thread_local size_t kept_size;

/* `size` bytes of this thread's lanes, 64-byte aligned, or NULL. */
static double *lanes_buffer(size_t size)
{
    if (kept_lanes == NULL || size > kept_size) {
        free(kept_lanes);
        kept_lanes = aligned_alloc(64, size ? size : 64);
        kept_size = kept_lanes ? size : 0;
    }
    return kept_lanes;
}

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
                       i64v failed[PARTS])
{
    const f64v zero = {0.0};
    const f64v inf = splat(__builtin_inf());
    const int64_t base = first_edge(g, first);

    for (int64_t c = first; c < last; c++) {
        const int64_t start = g->starts[c];
        const int64_t stop = first_edge(g, c + 1);
        f64v min1[PARTS], min2[PARTS];
        i64v parity[PARTS], syndrome[PARTS];
        for (int h = 0; h < PARTS; h++) {
            min1[h] = inf;
            min2[h] = inf;
            parity[h] = (i64v){0};
            syndrome[h] = (i64v){0};
        }
        for (int64_t e = start; e < stop; e++) {
            const double *post = lanes->post + g->edge_bit[e] * LANES;
            double *c2b = lanes->c2b + e * LANES;
            double *kept = layered ? lanes->delta + (e - base) * LANES : c2b;
            for (int h = 0; h < PARTS; h++) {
                const f64v p = load(post + WIDTH * h);
                f64v x = p - load(c2b + WIDTH * h);
                if (quantized)
                    x = quantize(x, rule);
                store(kept + WIDTH * h, x);
                keep_two_smallest(&min1[h], &min2[h], magnitude(x));
                parity[h] ^= x < zero;
                if (!layered)
                    syndrome[h] ^= p <= zero;
            }
        }
        f64v fix1[PARTS], fix2[PARTS];
        for (int h = 0; h < PARTS; h++) {
            fix1[h] = min1[h];
            fix2[h] = min2[h];
            correct(&fix1[h], &fix2[h], rule, quantized, stop - start);
            if (!layered)
                failed[h] |= syndrome[h];
        }
        for (int64_t e = start; e < stop; e++) {
            double *c2b = lanes->c2b + e * LANES;
            double *kept = layered ? lanes->delta + (e - base) * LANES : c2b;
            for (int h = 0; h < PARTS; h++) {
                const f64v x = load(kept + WIDTH * h);
                const f64v message = extrinsic(x, min1[h], fix1[h], fix2[h], parity[h]);
                if (layered)
                    store(kept + WIDTH * h, message - load(c2b + WIDTH * h));
                store(c2b + WIDTH * h, message);
            }
        }
    }
}

/* Bit pass of the flooding schedule: post = llr + (m0 + ((m1 + m2) + ... +
 * m_{d-1})), as TannerGraph.sum_per_bit sums, over the slot-major bit
 * layout. */
INLINE void bit_pass(struct lanes *lanes, const struct graph *g)
{
    const f64v zero = {0.0};
    for (int64_t b = 0; b < g->bits; b++) {
        const int64_t degree = g->degrees[b];
        const int64_t *edge = g->slot_edges + b;
        f64v total[PARTS];
        for (int h = 0; h < PARTS; h++)
            total[h] = zero;
        if (degree > 0) {
            const double *m0 = lanes->c2b + edge[0] * LANES;
            for (int h = 0; h < PARTS; h++)
                total[h] = load(m0 + WIDTH * h);
        }
        if (degree > 1) {
            f64v rest[PARTS];
            const double *m1 = lanes->c2b + edge[g->bits] * LANES;
            for (int h = 0; h < PARTS; h++)
                rest[h] = load(m1 + WIDTH * h);
            for (int64_t slot = 2; slot < degree; slot++) {
                const double *m = lanes->c2b + edge[slot * g->bits] * LANES;
                for (int h = 0; h < PARTS; h++)
                    rest[h] = rest[h] + load(m + WIDTH * h);
            }
            for (int h = 0; h < PARTS; h++)
                total[h] = total[h] + rest[h];
        }
        for (int h = 0; h < PARTS; h++)
            store(lanes->post + b * LANES + WIDTH * h,
                  load(lanes->llr + b * LANES + WIDTH * h) + total[h]);
    }
}

/* Syndrome pass of the layered schedule: failed[] collects, per lane,
 * whether any check's XOR of post <= 0 is 1. */
INLINE void syndrome_pass(const struct lanes *lanes, const struct graph *g,
                          i64v failed[PARTS])
{
    const f64v zero = {0.0};
    for (int64_t c = 0; c < g->checks; c++) {
        const int64_t stop = first_edge(g, c + 1);
        i64v syndrome[PARTS];
        for (int h = 0; h < PARTS; h++)
            syndrome[h] = (i64v){0};
        for (int64_t e = g->starts[c]; e < stop; e++) {
            const double *post = lanes->post + g->edge_bit[e] * LANES;
            for (int h = 0; h < PARTS; h++)
                syndrome[h] ^= load(post + WIDTH * h) <= zero;
        }
        for (int h = 0; h < PARTS; h++)
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
        for (int h = 0; h < PARTS; h++)
            store(post + WIDTH * h, load(post + WIDTH * h) + load(delta + WIDTH * h));
    }
}

/*
 * Min-sum decode of a whole batch: the decoding loop of
 * repro.decode.base.MessagePassingDecoder for a decoder with streaming
 * parameters.
 *
 * `llrs`, `posterior` and `hard` are (frames, bits), one frame per row; the
 * LLRs are the conditioned ones the loop decodes.  `posterior` may be NULL:
 * then no posterior is written, and the hard decisions, iteration counts and
 * syndrome flags are the same bytes.  `scale` and `offset`
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
 * that has run max_iterations, then writes out its posterior (unless
 * `posterior` is NULL), hard decisions (post <= 0), iteration count and
 * syndrome flag: a frame stopped at iteration 0 keeps its LLRs bit for bit.  The other lanes finish the
 * iteration: the bit pass, or each layer's check pass and posterior update
 * in turn.  Each stopped lane then takes the next frame with post = llr and
 * c2b = +0.0, which the next check pass reads as x = llr - 0.0, bit for bit
 * the LLR, as the loop's first check node reads it.  Every value a frame
 * sees is the loop's, computed in the loop's order, whatever the other
 * lanes hold.
 *
 * Returns 0, or -1 when the lanes cannot be allocated.
 */
int ENTRY(const double *llrs, int64_t frames, int64_t bits, const int64_t *edge_bit,
          const int64_t *starts, int64_t checks, int64_t edges, const int64_t *slot_edges,
          const int64_t *degrees, double scale, double offset, double step, double limit,
          const int64_t *layer_starts, int64_t layers, int64_t max_iterations,
          int64_t early_stop, double *posterior, uint8_t *hard, int64_t *iterations,
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
    double *buffer = lanes_buffer(((size_t)(2 * bits + edges + widest) * row + 63) / 64 * 64);
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
        i64v failed[PARTS];
        for (int h = 0; h < PARTS; h++)
            failed[h] = (i64v){0};
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
            const int ok = failed[lane / WIDTH][lane % WIDTH] == 0;
            if ((ok && iteration[lane] >= early_stop) ||
                iteration[lane] >= max_iterations) {
                const int64_t f = frame[lane];
                for (int64_t b = 0; b < bits; b++) {
                    const double v = lanes.post[b * LANES + lane];
                    if (posterior != NULL)
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
    return 0;
}
