/*
 * Native bodies of three repro.decode.graph.TannerGraph kernels (the min-sum
 * check node, the bit node and the syndrome) and of the whole flooding
 * min-sum decode, repro_decode_min_sum.  native.py builds this file, checks
 * it against the numpy bodies and loads it; graph.py documents the
 * arithmetic all must follow.
 *
 * Layout.  Every array holds one row per edge or per bit, with the frames
 * innermost and contiguous: frame f of row r sits at [r * frames + f].  Each
 * loop runs along the frames of one row, as the paper's memory word holds one
 * message of several frames.
 *
 * Exactness.  Built without fast-math and with -ffp-contract=off, every
 * addition, subtraction and multiplication below is one IEEE operation in
 * numpy's order; minima, maxima, selections and sign flips are exact.  So the
 * results are bit-identical to the numpy bodies for every input without NaN.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* Two frames of one row, and sixteen hard decisions. */
typedef double f64x2 __attribute__((vector_size(16)));
typedef int64_t i64x2 __attribute__((vector_size(16)));
typedef uint8_t u8x16 __attribute__((vector_size(16)));

/* Frames per block of the check node: its four running arrays stay in L1. */
#define BLOCK 64

static const i64x2 SIGN = {INT64_MIN, INT64_MIN};

/* Load or store `lanes` (1 or 2) frames; one lane is read into both. */
static inline f64x2 load(const double *p, int64_t lanes)
{
    f64x2 v = {p[0], p[0]};
    if (lanes == 2)
        memcpy(&v, p, sizeof v);
    return v;
}

static inline void store(double *p, f64x2 v, int64_t lanes)
{
    if (lanes == 2)
        memcpy(p, &v, sizeof v);
    else
        p[0] = v[0];
}

static inline i64x2 load_mask(const int64_t *p, int64_t lanes)
{
    i64x2 v = {p[0], p[0]};
    if (lanes == 2)
        memcpy(&v, p, sizeof v);
    return v;
}

static inline void store_mask(int64_t *p, i64x2 v, int64_t lanes)
{
    if (lanes == 2)
        memcpy(p, &v, sizeof v);
    else
        p[0] = v[0];
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

/* The smaller and the larger of two magnitudes.  x86's minpd is a < b ? a :
 * b and maxpd a > b ? a : b, the same choice as the portable spelling. */
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

/* Correct a check's two smallest magnitudes once: minus `offset`, clamped at
 * 0, when offset != 0; times `scale` when scale != 1.  A check of degree 1
 * has no other message, so its second magnitude is 0. */
static inline void correct(f64x2 *min1, f64x2 *min2, double scale, double offset,
                           int64_t degree)
{
    const f64x2 zero = {0.0, 0.0};
    f64x2 a = *min1;
    f64x2 b = *min2;
    if (offset != 0.0) {
        const f64x2 offset2 = {offset, offset};
        a = a - offset2;
        b = b - offset2;
        a = pick(a < zero, zero, a);
        b = pick(b < zero, zero, b);
    }
    if (scale != 1.0) {
        const f64x2 scale2 = {scale, scale};
        a = a * scale2;
        b = b * scale2;
    }
    if (degree == 1)
        b = zero;
    *min1 = magnitude(a);
    *min2 = magnitude(b);
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

/* Run the body over frames [0, count): pairs, then a last single frame.
 * `lanes` is a constant in each copy of the body. */
#define FOR_FRAMES(count, ...)                                               \
    do {                                                                     \
        int64_t f = 0;                                                       \
        for (; f + 2 <= (count); f += 2) {                                   \
            const int64_t lanes = 2;                                         \
            __VA_ARGS__                                                      \
        }                                                                    \
        if (f < (count)) {                                                   \
            const int64_t lanes = 1;                                         \
            __VA_ARGS__                                                      \
        }                                                                    \
    } while (0)

/*
 * Min-sum check node, TannerGraph.min_sum_extrinsic.
 *
 * `in` and `out` are (edges, frames), edges sorted by check; non-empty check
 * i owns edges [starts[i], starts[i + 1]) (the last one ends at `edges`).
 * For each check and frame the first pass over the slots keeps the smallest
 * and second smallest magnitude (a minimum held twice is also the second
 * smallest) and the parity of the messages below zero.  Both magnitudes are
 * then corrected once: minus `offset`, clamped at 0, when offset != 0; times
 * `scale` when scale != 1.  A check of degree 1 sends 0.  The second pass
 * gives each edge min2 if its magnitude equals min1 and min1 otherwise, with
 * the sign of (x < 0) XOR the parity, that is the parity of the others.
 */
void repro_min_sum(const double *in, const int64_t *starts, int64_t checks,
                   int64_t edges, int64_t frames, double scale, double offset,
                   double *out)
{
    const f64x2 zero = {0.0, 0.0};
    const f64x2 inf = {__builtin_inf(), __builtin_inf()};
    double min1[BLOCK], fix1[BLOCK], fix2[BLOCK];
    int64_t parity[BLOCK];

    for (int64_t c = 0; c < checks; c++) {
        const int64_t first = starts[c];
        const int64_t degree = (c + 1 < checks ? starts[c + 1] : edges) - first;
        for (int64_t f0 = 0; f0 < frames; f0 += BLOCK) {
            const int64_t count = frames - f0 < BLOCK ? frames - f0 : BLOCK;
            const double *rows = in + first * frames + f0;

            FOR_FRAMES(count, {
                const f64x2 x = load(rows + f, lanes);
                store(min1 + f, magnitude(x), lanes);
                store(fix2 + f, inf, lanes);
                store_mask(parity + f, x < zero, lanes);
            });
            for (int64_t slot = 1; slot < degree; slot++) {
                const double *row = rows + slot * frames;
                FOR_FRAMES(count, {
                    const f64x2 x = load(row + f, lanes);
                    f64x2 smallest = load(min1 + f, lanes);
                    f64x2 second = load(fix2 + f, lanes);
                    keep_two_smallest(&smallest, &second, magnitude(x));
                    store(min1 + f, smallest, lanes);
                    store(fix2 + f, second, lanes);
                    store_mask(parity + f, load_mask(parity + f, lanes) ^ (x < zero),
                               lanes);
                });
            }

            FOR_FRAMES(count, {
                f64x2 a = load(min1 + f, lanes);
                f64x2 b = load(fix2 + f, lanes);
                correct(&a, &b, scale, offset, degree);
                store(fix1 + f, a, lanes);
                store(fix2 + f, b, lanes);
            });

            for (int64_t slot = 0; slot < degree; slot++) {
                const double *row = rows + slot * frames;
                double *dst = out + (first + slot) * frames + f0;
                FOR_FRAMES(count, {
                    const f64x2 message =
                        extrinsic(load(row + f, lanes), load(min1 + f, lanes),
                                  load(fix1 + f, lanes), load(fix2 + f, lanes),
                                  load_mask(parity + f, lanes));
                    store(dst + f, message, lanes);
                });
            }
        }
    }
}

/*
 * Bit node, TannerGraph.bit_node_update.
 *
 * `c2b` and `b2c` are (edges, frames), `llr` and `post` (bits, frames).  Bit
 * b has degrees[b] edges, slot_edges[s * bits + b] for slot s in bit-sorted
 * order.  Its total is m0 + ((m1 + m2) + ... + m_{d-1}), 0 without edges;
 * post = llr + total, and each edge sends post - its own message.
 */
void repro_bit_node(const double *restrict c2b, const double *restrict llr,
                    const int64_t *slot_edges, const int64_t *degrees,
                    int64_t bits, int64_t frames, double *restrict post,
                    double *restrict b2c)
{
    const f64x2 zero = {0.0, 0.0};
    for (int64_t b = 0; b < bits; b++) {
        const int64_t degree = degrees[b];
        const int64_t *edge = slot_edges + b;
        FOR_FRAMES(frames, {
            f64x2 total = zero;
            if (degree > 0) {
                total = load(c2b + edge[0] * frames + f, lanes);
                if (degree > 1) {
                    f64x2 rest = load(c2b + edge[bits] * frames + f, lanes);
                    for (int64_t slot = 2; slot < degree; slot++)
                        rest = rest + load(c2b + edge[slot * bits] * frames + f, lanes);
                    total = total + rest;
                }
            }
            const f64x2 p = load(llr + b * frames + f, lanes) + total;
            store(post + b * frames + f, p, lanes);
            for (int64_t slot = 0; slot < degree; slot++) {
                const int64_t at = edge[slot * bits] * frames + f;
                store(b2c + at, p - load(c2b + at, lanes), lanes);
            }
        });
    }
}

/*
 * Syndrome, TannerGraph.syndrome_ok.
 *
 * `hard` is (bits, frames), nonzero meaning 1; edge e joins bit edge_bit[e]
 * to its check, and non-empty check i owns edges [starts[i], starts[i + 1]).
 * ok[f] is 1 when every check's XOR is 0 in frame f.  Sixteen frames at a
 * time keep their parity in one register.
 */
void repro_syndrome(const uint8_t *hard, const int64_t *edge_bit,
                    const int64_t *starts, int64_t checks, int64_t edges,
                    int64_t frames, uint8_t *ok)
{
    const u8x16 zero = {0};
    int64_t f = 0;
    for (; f + 16 <= frames; f += 16) {
        u8x16 failed = zero;
        for (int64_t c = 0; c < checks; c++) {
            const int64_t stop = c + 1 < checks ? starts[c + 1] : edges;
            u8x16 parity = zero;
            for (int64_t e = starts[c]; e < stop; e++) {
                u8x16 bits;
                memcpy(&bits, hard + edge_bit[e] * frames + f, sizeof bits);
                parity ^= (u8x16)(bits != zero);
            }
            failed |= parity;
        }
        for (int64_t lane = 0; lane < 16; lane++)
            ok[f + lane] = !failed[lane];
    }
    for (; f < frames; f++) {
        uint8_t failed = 0;
        for (int64_t c = 0; c < checks; c++) {
            const int64_t stop = c + 1 < checks ? starts[c + 1] : edges;
            uint8_t parity = 0;
            for (int64_t e = starts[c]; e < stop; e++)
                parity ^= hard[edge_bit[e] * frames + f] != 0;
            failed |= parity;
        }
        ok[f] = !failed;
    }
}

/* ------------------------------------------------------------------------ */
/* Streaming decode                                                         */
/* ------------------------------------------------------------------------ */

/* Frames decoding at once.  Chosen by measurement on the C2 code against the
 * decoding loop; see docs/components.md. */
#define LANES 4
#define PAIRS (LANES / 2)

/* The lane buffers: one row of LANES values per bit or edge. */
struct lane_buffers {
    double *llr;  /* [bits][LANES] channel LLRs */
    double *post; /* [bits][LANES] posteriors */
    double *c2b;  /* [edges][LANES] check-to-bit messages */
};

/* Put `values` (one frame's LLRs, or NULL for an idle lane of zeros) into
 * `lane`, with every check-to-bit message +0.0. */
static void fill_lane(struct lane_buffers *lanes, int64_t lane, const double *values,
                      int64_t bits, int64_t edges)
{
    for (int64_t b = 0; b < bits; b++) {
        const double v = values ? values[b] : 0.0;
        lanes->llr[b * LANES + lane] = v;
        lanes->post[b * LANES + lane] = v;
    }
    for (int64_t e = 0; e < edges; e++)
        lanes->c2b[e * LANES + lane] = 0.0;
}

/*
 * Check pass: every check node, in posterior form.  Each slot's bit-to-check
 * message is x = post[bit] - c2b, the bit node's own subtraction; the first
 * sweep keeps the running pair and the parity of x < 0 as repro_min_sum does
 * and XORs post <= 0 into the check's syndrome, the second rewrites c2b.
 * failed[] collects, per lane, whether any check's syndrome is 1.
 */
static void check_pass(struct lane_buffers *lanes, const int64_t *edge_bit,
                       const int64_t *starts, int64_t checks, int64_t edges,
                       double scale, double offset, i64x2 failed[PAIRS])
{
    const f64x2 zero = {0.0, 0.0};
    const f64x2 inf = {__builtin_inf(), __builtin_inf()};
    for (int h = 0; h < PAIRS; h++)
        failed[h] = (i64x2){0, 0};

    for (int64_t c = 0; c < checks; c++) {
        const int64_t first = starts[c];
        const int64_t stop = c + 1 < checks ? starts[c + 1] : edges;
        f64x2 min1[PAIRS], min2[PAIRS];
        i64x2 parity[PAIRS], syndrome[PAIRS];
        for (int h = 0; h < PAIRS; h++) {
            min1[h] = inf;
            min2[h] = inf;
            parity[h] = (i64x2){0, 0};
            syndrome[h] = (i64x2){0, 0};
        }
        for (int64_t e = first; e < stop; e++) {
            const double *post = lanes->post + edge_bit[e] * LANES;
            const double *c2b = lanes->c2b + e * LANES;
            for (int h = 0; h < PAIRS; h++) {
                const f64x2 p = load(post + 2 * h, 2);
                const f64x2 x = p - load(c2b + 2 * h, 2);
                keep_two_smallest(&min1[h], &min2[h], magnitude(x));
                parity[h] ^= x < zero;
                syndrome[h] ^= p <= zero;
            }
        }
        f64x2 fix1[PAIRS], fix2[PAIRS];
        for (int h = 0; h < PAIRS; h++) {
            fix1[h] = min1[h];
            fix2[h] = min2[h];
            correct(&fix1[h], &fix2[h], scale, offset, stop - first);
            failed[h] |= syndrome[h];
        }
        for (int64_t e = first; e < stop; e++) {
            const double *post = lanes->post + edge_bit[e] * LANES;
            double *c2b = lanes->c2b + e * LANES;
            for (int h = 0; h < PAIRS; h++) {
                const f64x2 x = load(post + 2 * h, 2) - load(c2b + 2 * h, 2);
                store(c2b + 2 * h, extrinsic(x, min1[h], fix1[h], fix2[h], parity[h]), 2);
            }
        }
    }
}

/* Bit pass: post = llr + (m0 + ((m1 + m2) + ... + m_{d-1})), as
 * repro_bit_node sums, over the slot-major bit layout. */
static void bit_pass(struct lane_buffers *lanes, const int64_t *slot_edges,
                     const int64_t *degrees, int64_t bits)
{
    const f64x2 zero = {0.0, 0.0};
    for (int64_t b = 0; b < bits; b++) {
        const int64_t degree = degrees[b];
        const int64_t *edge = slot_edges + b;
        f64x2 total[PAIRS];
        for (int h = 0; h < PAIRS; h++)
            total[h] = zero;
        if (degree > 0) {
            const double *m0 = lanes->c2b + edge[0] * LANES;
            for (int h = 0; h < PAIRS; h++)
                total[h] = load(m0 + 2 * h, 2);
        }
        if (degree > 1) {
            f64x2 rest[PAIRS];
            const double *m1 = lanes->c2b + edge[bits] * LANES;
            for (int h = 0; h < PAIRS; h++)
                rest[h] = load(m1 + 2 * h, 2);
            for (int64_t slot = 2; slot < degree; slot++) {
                const double *m = lanes->c2b + edge[slot * bits] * LANES;
                for (int h = 0; h < PAIRS; h++)
                    rest[h] = rest[h] + load(m + 2 * h, 2);
            }
            for (int h = 0; h < PAIRS; h++)
                total[h] = total[h] + rest[h];
        }
        for (int h = 0; h < PAIRS; h++)
            store(lanes->post + b * LANES + 2 * h,
                  load(lanes->llr + b * LANES + 2 * h, 2) + total[h], 2);
    }
}

/*
 * Flooding min-sum decode of a whole batch: the decoding loop of
 * repro.decode.base.MessagePassingDecoder for the min-sum kinds.
 *
 * `llrs`, `posterior` and `hard` are (frames, bits), one frame per row.
 * LANES frames decode at once in posterior form (struct lane_buffers).  Each round
 * runs the check pass on every lane.  A lane whose syndrome is clear at an
 * iteration >= early_stop, or that has run max_iterations, then writes out
 * its posterior, hard decisions (post <= 0), iteration count and syndrome
 * flag, before the bit pass: a frame stopped at iteration 0 keeps its LLRs
 * bit for bit.  The other lanes take the bit pass, and each stopped lane
 * takes the next frame with post = llr and c2b = +0.0, which the next check
 * pass reads as x = llr - 0.0, bit for bit the LLR, as the loop's first
 * check node reads it.  Every value a frame sees is the loop's, computed in
 * the loop's order, whatever the other lanes hold.
 *
 * Returns 0, or -1 when the lanes cannot be allocated.
 */
int repro_decode_min_sum(const double *llrs, int64_t frames, int64_t bits,
                         const int64_t *edge_bit, const int64_t *starts,
                         int64_t checks, int64_t edges,
                         const int64_t *slot_edges, const int64_t *degrees,
                         double scale, double offset, int64_t max_iterations,
                         int64_t early_stop, double *posterior, uint8_t *hard,
                         int64_t *iterations, uint8_t *converged)
{
    const size_t row = LANES * sizeof(double);
    const size_t size = ((size_t)(2 * bits + edges) * row + 63) / 64 * 64;
    double *buffer = aligned_alloc(64, size ? size : 64);
    if (buffer == NULL)
        return -1;
    struct lane_buffers lanes = {buffer, buffer + bits * LANES,
                                 buffer + 2 * bits * LANES};

    int64_t frame[LANES], iteration[LANES];
    int64_t next = 0;
    for (int64_t lane = 0; lane < LANES; lane++) {
        frame[lane] = next < frames ? next++ : -1;
        iteration[lane] = 0;
        fill_lane(&lanes, lane, frame[lane] < 0 ? NULL : llrs + frame[lane] * bits,
                  bits, edges);
    }

    for (;;) {
        int active = 0;
        for (int64_t lane = 0; lane < LANES; lane++)
            active |= frame[lane] >= 0;
        if (!active)
            break;
        i64x2 failed[PAIRS];
        check_pass(&lanes, edge_bit, starts, checks, edges, scale, offset, failed);

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
        if (decoding)
            bit_pass(&lanes, slot_edges, degrees, bits);

        for (int64_t lane = 0; lane < LANES; lane++) {
            if (frame[lane] < 0)
                continue;
            if (!stopped[lane]) {
                iteration[lane]++;
                continue;
            }
            frame[lane] = next < frames ? next++ : -1;
            iteration[lane] = 0;
            fill_lane(&lanes, lane, frame[lane] < 0 ? NULL : llrs + frame[lane] * bits,
                      bits, edges);
        }
    }
    free(buffer);
    return 0;
}
