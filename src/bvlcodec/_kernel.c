/* Native loops of the bvlcodec coder, loaded through ctypes by rangecoder.py.
 *
 * The range coder and its count update mirror rangecoder.RangeEncoder and
 * RangeDecoder bit for bit; the loops mirror the Python ones in depthmap.py
 * and sections.py decision for decision, so either side may run in either
 * language. Every buffer is allocated and sized by the caller. A loop that
 * would need more room than it was given stops before touching the cell it
 * is on, saves where it stands and returns NEED_ROOM; the caller grows the
 * buffers and calls it again.
 */
#include <stdint.h>
#include <string.h>

#define HALF 0x80000000LL
#define QUARTER 0x40000000LL
#define THREE_QUARTER 0xC0000000LL
#define RESCALE_LIMIT 65536
#define MASK_CONTEXTS 1024
#define RESIDUAL_CONTEXTS 32
#define MAX_PREFIX 48

enum { DONE = 0, NEED_ROOM = 1, TRUNCATED = -1, RUNAWAY = -2, LOW_RANGE = -3, THICKNESS_RANGE = -4, BAD_LAYOUT = -5 };

/* One coder. The encoder keeps its pending bit count in `extra` and writes
 * bits at `pos`; the decoder keeps its code value in `extra` and reads bits
 * at `pos`. Bits are unpacked, one byte per bit. */
typedef struct {
    int64_t low, high, extra, pos;
    uint8_t *bits;
    int64_t size;          /* bytes readable (decoder) or writable (encoder) at bits */
    uint16_t *c0, *c1;
    int64_t contexts;      /* entries of c0 and c1 */
} Coder;

static inline void emit(Coder *c, int bit) {
    c->bits[c->pos++] = (uint8_t)bit;
    memset(c->bits + c->pos, !bit, (size_t)c->extra);
    c->pos += c->extra;
    c->extra = 0;
}

static inline void encode_bit(Coder *c, int64_t ctx, int bit) {
    int64_t c0 = c->c0[ctx], c1 = c->c1[ctx], total = c0 + c1;
    int64_t low = c->low, high = c->high;
    int64_t split = low + c0 * (high - low + 1) / total;
    if (bit) {
        low = split;
        c1++;
    } else {
        high = split - 1;
        c0++;
    }
    for (;;) {
        if (high < HALF) {
            emit(c, 0);
        } else if (low >= HALF) {
            emit(c, 1);
            low -= HALF;
            high -= HALF;
        } else if (low >= QUARTER && high < THREE_QUARTER) {
            c->extra++;
            low -= QUARTER;
            high -= QUARTER;
        } else {
            break;
        }
        low <<= 1;
        high = (high << 1) | 1;
    }
    if (total >= RESCALE_LIMIT) {
        c0 = (c0 + 1) >> 1;
        c1 = (c1 + 1) >> 1;
    }
    c->c0[ctx] = (uint16_t)c0;
    c->c1[ctx] = (uint16_t)c1;
    c->low = low;
    c->high = high;
}

/* The decoded bit, or TRUNCATED once the reads pass the end of the bits. */
static inline int decode_bit(Coder *c, int64_t ctx) {
    int64_t c0 = c->c0[ctx], c1 = c->c1[ctx], total = c0 + c1;
    int64_t low = c->low, high = c->high, code = c->extra, pos = c->pos;
    int64_t split = low + c0 * (high - low + 1) / total;
    int bit = code >= split;
    if (bit)
        low = split;
    else
        high = split - 1;
    for (;;) {
        if (high < HALF) {
        } else if (low >= HALF) {
            low -= HALF;
            high -= HALF;
            code -= HALF;
        } else if (low >= QUARTER && high < THREE_QUARTER) {
            low -= QUARTER;
            high -= QUARTER;
            code -= QUARTER;
        } else {
            break;
        }
        if (pos >= c->size)
            return TRUNCATED;
        low <<= 1;
        high = (high << 1) | 1;
        code = (code << 1) | c->bits[pos++];
    }
    if (bit)
        c1++;
    else
        c0++;
    if (total >= RESCALE_LIMIT) {
        c0 = (c0 + 1) >> 1;
        c1 = (c1 + 1) >> 1;
    }
    c->c0[ctx] = (uint16_t)c0;
    c->c1[ctx] = (uint16_t)c1;
    c->low = low;
    c->high = high;
    c->extra = code;
    c->pos = pos;
    return bit;
}

/* Code bits[i] under ctx[i] in order; returns how many were coded, fewer
 * than n when the bit buffer runs short or at a context outside the count
 * tables. A decision writes at most its pending bits plus 18 (an interval of
 * at least 2^30 keeps at least 2^-16 of itself), so 64 spare bytes always
 * suffice for the next one. */
int64_t encode_many(Coder *c, const int64_t *ctx, const uint8_t *bits, int64_t n) {
    int64_t i;
    for (i = 0; i < n && c->pos + c->extra + 64 <= c->size; i++) {
        if ((uint64_t)ctx[i] >= (uint64_t)c->contexts)
            break;
        encode_bit(c, ctx[i], bits[i]);
    }
    return i;
}

/* The occupancy mask, row by row. grid holds nx + 2 rows of ny + 4 zeros:
 * two rows of history above the map and two columns on either side. Bit k
 * of a pixel's context is template term k of depthmap._TEMPLATE. */
int64_t decode_mask(Coder *c, uint8_t *grid, int64_t nx, int64_t ny) {
    const int64_t s = ny + 4;
    const int64_t terms[10] = {-2 * s - 1, -2 * s, -2 * s + 1, -s - 2, -s - 1, -s, -s + 1, -s + 2, -2, -1};
    for (int64_t x = 0; x < nx; x++) {
        for (int64_t y = 0; y < ny; y++) {
            uint8_t *px = grid + (x + 2) * s + y + 2;
            int64_t ctx = 0;
            for (int k = 0; k < 10; k++)
                ctx |= (int64_t)px[terms[k]] << k;
            int bit = decode_bit(c, ctx);
            if (bit < 0)
                return bit;
            *px = (uint8_t)bit;
        }
    }
    return DONE;
}

/* One zigzag order-0 exp-Golomb residual under the 32 contexts at base. */
static inline int decode_signed(Coder *c, int64_t base, int64_t *value) {
    int64_t n = 0, v = 1;
    int bit;
    while ((bit = decode_bit(c, base + (n < 16 ? n : 15))) == 0)
        if (++n > MAX_PREFIX)
            return RUNAWAY;
    if (bit < 0)
        return bit;
    for (int64_t i = n - 1; i >= 0; i--) {
        bit = decode_bit(c, base + 16 + (i < 16 ? i : 15));
        if (bit < 0)
            return bit;
        v = (v << 1) | bit;
    }
    int64_t u = v - 1;
    *value = (u & 1) ? -((u + 1) >> 1) : u >> 1;
    return DONE;
}

/* The low surface and the thickness at the occupied pixels, in row order:
 * depthmap._predict_low and the previous thickness predict them, and every
 * value is range-checked before it is stored. low and high start zeroed. */
int64_t decode_surfaces(Coder *c, const uint8_t *occ, int32_t *low, int32_t *high,
                        int64_t nx, int64_t ny, int64_t nz) {
    int64_t prev_low = nz / 2, prev_thick = 0;
    for (int64_t x = 0; x < nx; x++) {
        for (int64_t y = 0; y < ny; y++) {
            int64_t i = x * ny + y;
            if (!occ[i])
                continue;
            int64_t cand[3], k = 0, pred, r;
            if (y && occ[i - 1])
                cand[k++] = low[i - 1];
            if (x && occ[i - ny])
                cand[k++] = low[i - ny];
            if (x && y && occ[i - ny - 1])
                cand[k++] = low[i - ny - 1];
            if (k == 3) {
                int64_t lo = cand[0] < cand[1] ? cand[0] : cand[1];
                int64_t hi = cand[0] < cand[1] ? cand[1] : cand[0];
                pred = cand[2] < lo ? lo : cand[2] > hi ? hi : cand[2];
            } else if (k == 2) {
                pred = (cand[0] + cand[1]) / 2;
            } else {
                pred = k ? cand[0] : prev_low;
            }
            int status = decode_signed(c, MASK_CONTEXTS, &r);
            if (status)
                return status;
            int64_t v = pred + r;
            if (v < 0 || v >= nz)
                return LOW_RANGE;
            status = decode_signed(c, MASK_CONTEXTS + RESIDUAL_CONTEXTS, &r);
            if (status)
                return status;
            int64_t t = prev_thick + r;
            if (t < 0 || v + t >= nz)
                return THICKNESS_RANGE;
            low[i] = (int32_t)v;
            high[i] = (int32_t)(v + t);
            prev_low = v;
            prev_thick = t;
        }
    }
    return DONE;
}

/* The section stream's map from context label to count-table slot: open
 * addressing over a power-of-two table (keys -1 when empty), plus the label
 * of every slot (-1 for a slot no label owns). */
typedef struct {
    int32_t *keys, *slots;
    int64_t mask;          /* table size - 1 */
    int32_t *labels;
    int64_t count;         /* slots in use */
} LabelMap;

/* Fibonacci hashing: the top half of the product mixes every bit of the label. */
static inline uint64_t map_home(const LabelMap *m, int32_t label) {
    return (((uint64_t)(uint32_t)label * 0x9E3779B97F4A7C15ULL) >> 32) & (uint64_t)m->mask;
}

static inline void map_put(LabelMap *m, int32_t label, int64_t slot) {
    uint64_t h = map_home(m, label);
    while (m->keys[h] >= 0)
        h = (h + 1) & (uint64_t)m->mask;
    m->keys[h] = label;
    m->slots[h] = (int32_t)slot;
}

/* Insert every owned slot of labels[0 .. count) into an empty table. */
void map_fill(LabelMap *m) {
    for (int64_t s = 0; s < m->count; s++)
        if (m->labels[s] >= 0)
            map_put(m, m->labels[s], s);
}

/* The label's slot; a new label takes the next slot with counts of 1. */
static inline int64_t slot_of(LabelMap *m, Coder *c, int32_t label) {
    uint64_t h = map_home(m, label);
    for (;; h = (h + 1) & (uint64_t)m->mask) {
        if (m->keys[h] == label)
            return m->slots[h];
        if (m->keys[h] < 0)
            break;
    }
    int64_t s = m->count++;
    m->keys[h] = label;
    m->slots[h] = (int32_t)s;
    m->labels[s] = label;
    c->c0[s] = c->c1[s] = 1;
    return s;
}

/* A run of `count` sections, one padded slab after another (see sections.py),
 * and where a resumed call picks up. */
typedef struct {
    uint8_t *state, *marked, *prev;
    const uint8_t *truth;          /* true occupancy when encoding, NULL when decoding */
    int64_t stride, slab, count;
    const int64_t *start;          /* the start of the work list, sorted */
    int64_t starts;
    int32_t *fifo;                 /* room for one slab of cells */
    const uint8_t *turn;           /* contexts.NormTables */
    const int32_t *canonical;
    const int64_t *rotated;
    int64_t section, next, head, tail, loaded, coded;
} Run;

/* dst[i] = (src[i] == 2) for states 0, 1 and 2, eight cells at a time. */
static void fill_prev(uint8_t *dst, const uint8_t *src, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        memcpy(&w, src + i, 8);
        w = (w >> 1) & 0x0101010101010101ULL;
        memcpy(dst + i, &w, 8);
    }
    for (; i < n; i++)
        dst[i] = (src[i] >> 1) & 1;
}

/* The list-driven section loop of sections.code_section, on either side:
 * each bit is decoded, or read from truth and encoded. After each section
 * but the last, the next slab of prev gets its reconstruction. The map's
 * table must hold at least twice the coder's contexts. A cell whose 3x3
 * crop leaves the run, a patch outside the tables (state above 2 or prev
 * above 1), or a section that lists more cells than a slab means the
 * buffers break their layout: BAD_LAYOUT. */
int64_t code_run(Coder *c, LabelMap *m, Run *r) {
    const int64_t st = r->stride, slab = r->slab;
    const int64_t push[8] = {-st - 1, -st, -st + 1, -1, 1, st - 1, st, st + 1};
    uint8_t *state = r->state, *marked = r->marked, *prev = r->prev;
    int32_t *fifo = r->fifo;
    const int64_t first = st + 1, last = r->count * slab - st - 2;
    int64_t head = r->head, tail = r->tail, coded = r->coded, status = DONE;
    for (; r->section < r->count; r->section++) {
        const int64_t a = r->section * slab;
        if (!r->loaded) {
            head = tail = 0;
            while (r->next < r->starts && r->start[r->next] < a + slab) {
                if (tail == slab)
                    return BAD_LAYOUT;
                fifo[tail++] = (int32_t)r->start[r->next++];
            }
            r->loaded = 1;
        }
        while (head < tail) {
            if (m->count >= c->contexts || (r->truth && c->pos + c->extra + 64 > c->size)) {
                status = NEED_ROOM;
                goto out;
            }
            const int64_t idx = fifo[head];
            if (idx < first || idx > last) {
                status = BAD_LAYOUT;
                goto out;
            }
            const uint8_t *s = state + idx, *p = prev + idx;
            /* Base-3 column-scan patch index; the center cell is unknown (0). */
            int64_t patch = s[-st - 1] + 3 * s[-1] + 9 * s[st - 1] + 27 * s[-st] + 243 * s[st]
                            + 729 * s[-st + 1] + 2187 * s[1] + 6561 * s[st + 1];
            int64_t binary = p[-st - 1] + 2 * p[-1] + 4 * p[st - 1] + 8 * p[-st] + 16 * p[0]
                             + 32 * p[st] + 64 * p[-st + 1] + 128 * p[1] + 256 * p[st + 1];
            if (patch >= 19683 || binary >= 512) {
                status = BAD_LAYOUT;
                goto out;
            }
            int32_t label = r->canonical[patch] * 512 + (int32_t)r->rotated[r->turn[patch] * 512 + binary];
            int64_t slot = slot_of(m, c, label);
            int bit;
            if (r->truth) {
                bit = r->truth[idx] != 0;
                encode_bit(c, slot, bit);
            } else if ((bit = decode_bit(c, slot)) < 0) {
                status = bit;
                goto out;
            }
            head++;
            coded++;
            state[idx] = (uint8_t)(1 + bit);
            if (bit) {
                for (int k = 0; k < 8; k++) {
                    int64_t j = idx + push[k];
                    if (state[j] == 0 && marked[j] == 0) {
                        if (tail == slab) {
                            status = BAD_LAYOUT;
                            goto out;
                        }
                        marked[j] = 1;
                        fifo[tail++] = (int32_t)j;
                    }
                }
            }
        }
        if (r->section + 1 < r->count)
            fill_prev(prev + a + slab, state + a, slab);
        r->loaded = 0;
    }
out:
    r->head = head;
    r->tail = tail;
    r->coded = coded;
    return status;
}
