/*
 * The native systematic encode: SystematicEncoder.encode of
 * repro.encode.systematic, the table method of "the Method of Four Russians"
 * (M4RI: Albrecht, Bard and Hart, ACM TOMS 2010).  native.py builds this
 * unit into the same library as the decode and checks it against the numpy
 * encode, m4ri_encode in encode/systematic.py, which stays the reference.
 *
 * Tables.  For each group g of four information bits, row 16 g + v of
 * `tables` is the XOR of the parity columns of the group's bits set in v,
 * each column's parity bits packed little-endian into `words` uint64 words.
 * A frame's parity bits are the XOR over the groups of the row its four
 * bits select.  XOR is exact, so any order gives the same bits; this one
 * takes the groups outermost over a block of frames, so each group's 16
 * rows are read once per block, and the block's parity words stay in L1.
 */
#include <stdint.h>
#include <stdlib.h>

/* Information bits per table group: 16 rows a group. */
#define GROUP 4

/* Bytes of the block's parity words: frames are encoded this many at once. */
#define BLOCK_BYTES (1 << 14)

/*
 * Encode `frames` rows of `k` information bits (one byte each) into rows of
 * `n` codeword bits: bit j goes to position info_cols[j], and parity bit r,
 * bit r % 64 of word r / 64 of the XOR of the selected table rows, to
 * position pivot_cols[r].  A byte selects a table row as 1 when it is
 * nonzero, as np.packbits reads it in the numpy encode, so a row index
 * never leaves its group's 16 rows.  Missing bits of the last group count
 * as 0.
 *
 * Returns 0, or -1 when the block's parity words cannot be allocated.
 */
int repro_encode_m4ri(const uint8_t *info, int64_t frames, int64_t k, const uint64_t *tables,
                      int64_t words, const int64_t *info_cols, const int64_t *pivot_cols,
                      int64_t parity_bits, int64_t n, uint8_t *codewords)
{
    if (frames == 0)
        return 0;
    const int64_t full = k / GROUP;
    const int64_t groups = (k + GROUP - 1) / GROUP;
    int64_t block = words > 0 ? BLOCK_BYTES / (words * (int64_t)sizeof(uint64_t)) : frames;
    if (block < 1)
        block = 1;
    if (block > frames)
        block = frames;
    uint64_t *parity = malloc((size_t)(block * words + 1) * sizeof(uint64_t));
    if (parity == NULL)
        return -1;

    for (int64_t first = 0; first < frames; first += block) {
        const int64_t count = frames - first < block ? frames - first : block;
        for (int64_t i = 0; i < count * words; i++)
            parity[i] = 0;
        for (int64_t g = 0; g < groups; g++) {
            const uint64_t *table = tables + g * (16 * words);
            for (int64_t f = 0; f < count; f++) {
                const uint8_t *bits = info + (first + f) * k + g * GROUP;
                unsigned v = 0;
                if (g < full) {
                    v = (bits[0] != 0) | (bits[1] != 0) << 1 | (bits[2] != 0) << 2 |
                        (bits[3] != 0) << 3;
                } else {
                    for (int64_t j = 0; j < k - g * GROUP; j++)
                        v |= (unsigned)(bits[j] != 0) << j;
                }
                const uint64_t *row = table + v * words;
                uint64_t *word = parity + f * words;
                for (int64_t w = 0; w < words; w++)
                    word[w] ^= row[w];
            }
        }
        for (int64_t f = 0; f < count; f++) {
            const uint8_t *bits = info + (first + f) * k;
            const uint64_t *word = parity + f * words;
            uint8_t *codeword = codewords + (first + f) * n;
            for (int64_t j = 0; j < k; j++)
                codeword[info_cols[j]] = bits[j];
            for (int64_t r = 0; r < parity_bits; r++)
                codeword[pivot_cols[r]] = (uint8_t)((word[r >> 6] >> (r & 63)) & 1);
        }
    }
    free(parity);
    return 0;
}
