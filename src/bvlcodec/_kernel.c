/* Native loops of the bvlcodec coder, loaded through ctypes by rangecoder.py.
 *
 * This is the codec's one range coder (encode_bit and decode_bit) and its
 * count update; tests/oracles.py::reference_encode is its independent
 * Python reference. A stream's counts live in one table of c0 | c1 << 16
 * entries, one uint32 per context, and a zero entry codes as FIRST_USE,
 * counts 1 and 1, so the zeroed table of rangecoder.count_tables needs no
 * set-up. Three loops code the streams, each on both sides: code_mask (the
 * occupancy mask), code_surfaces (the low surface and thickness) and
 * code_shell (a shell's section sweep). Each bit is read from the maps and
 * encoded, or decoded and stored. They are the codec's only coding loops;
 * the Python reference coders of tests/oracles.py check them decision for
 * decision. A fourth, code_bits, codes given (context, bit) pairs for
 * RangeEncoder.encode_many and RangeDecoder.decode, and finish_bits ends an
 * encoder's bits for RangeEncoder.finish. Every buffer is allocated and
 * sized by the caller. An encoding loop that would need more
 * room than it was given stops before touching the pixel or cell it is on,
 * saves where it stands and returns NEED_ROOM; rangecoder.run grows the
 * buffers and calls it again. code_shell's slabs are column-major (stride nz + 2), so a
 * column's band is contiguous and loading or clearing it is one memset.
 *
 * Two more loops prepare each of the encoder's shells, one pass over its
 * (N, 3) int64 rows each, sorted in (x, y, z) order: project_rows
 * (depthmap.project_array) and column_starts (sections.build_section), which
 * points each column at its first row so that code_shell reads the rows in
 * place. Both check each row the same way, fill every byte of their outputs,
 * and return BAD_LAYOUT before they would write outside them.
 *
 * One last loop, normalize_rows (cloud._normalized), builds every
 * VoxelCloud: it sorts the rows it is given into (x, y, z) order and drops
 * the repeated ones, into a fresh array.
 */
#include <stdint.h>
#include <string.h>

#define HALF 0x80000000LL
#define QUARTER 0x40000000LL
#define THREE_QUARTER 0xC0000000LL
#define RESCALE_LIMIT 65536
#define FIRST_USE 0x10001u
#define MASK_CONTEXTS 1024
#define RESIDUAL_CONTEXTS 32
#define MAX_PREFIX 48

enum {
    DONE = 0, NEED_ROOM = 1, TRUNCATED = -1, RUNAWAY = -2, LOW_RANGE = -3, THICKNESS_RANGE = -4, BAD_LAYOUT = -5,
    TOO_WIDE = -6, BAD_CONTEXT = -7
};

/* One coder. The encoder keeps its pending bit count in `extra` and writes
 * bit `pos`; the decoder keeps its code value in `extra` and reads bit `pos`.
 * Bits are packed, MSB first, as the container stores them. */
typedef struct {
    int64_t low, high, extra, pos;
    uint8_t *bits;         /* encoding: zero past bit pos */
    int64_t size;          /* bits readable (decoder) or writable (encoder) at bits */
    uint32_t *counts;      /* one c0 | c1 << 16 entry per context; a zero entry codes as FIRST_USE */
    int64_t contexts;      /* entries of counts */
} Coder;

/* bit, then its extra pending inversions, written from pos on. The bits there
 * are zero, so only the ones are set: bit itself, or else its inversions. */
static inline void emit(Coder *c, int bit) {
    int64_t first = c->pos + !bit, end = bit ? c->pos + 1 : c->pos + c->extra + 1;
    for (int64_t pos = first; pos < end; pos++)
        c->bits[pos >> 3] |= (uint8_t)(0x80 >> (pos & 7));
    c->pos += c->extra + 1;
    c->extra = 0;
}

static inline void encode_bit(Coder *c, int64_t ctx, int bit) {
    const uint32_t stored = c->counts[ctx], entry = stored ? stored : FIRST_USE;
    int64_t c0 = entry & 0xFFFF, c1 = entry >> 16, total = c0 + c1;
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
    c->counts[ctx] = (uint32_t)(c0 | c1 << 16);
    c->low = low;
    c->high = high;
}

/* The decoded bit, or TRUNCATED once the reads pass the end of the bits. */
static inline int decode_bit(Coder *c, int64_t ctx) {
    const uint32_t stored = c->counts[ctx], entry = stored ? stored : FIRST_USE;
    int64_t c0 = entry & 0xFFFF, c1 = entry >> 16, total = c0 + c1;
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
        code = (code << 1) | (c->bits[pos >> 3] >> (7 - (pos & 7)) & 1);
        pos++;
    }
    if (bit)
        c1++;
    else
        c0++;
    if (total >= RESCALE_LIMIT) {
        c0 = (c0 + 1) >> 1;
        c1 = (c1 + 1) >> 1;
    }
    c->counts[ctx] = (uint32_t)(c0 | c1 << 16);
    c->low = low;
    c->high = high;
    c->extra = code;
    c->pos = pos;
    return bit;
}

/* Where a depth-map loop stands when it stops for room: the next pixel in
 * row order, and the low surface and thickness coded last. */
typedef struct {
    int64_t pixel, prev_low, prev_thick;
} Cursor;

/* An encoded decision writes at most its pending bits plus 18 (an interval
 * of at least 2^30 keeps at least 2^-16 of itself), so 64 spare bits
 * always suffice for the next one. The room one pixel of the surfaces may
 * need: two residuals of at most MAX_PREFIX prefix bins, a one and
 * MAX_PREFIX suffix bits each, plus those 64 spare bits. */
#define PIXEL_ROOM (64 + 18 * 2 * (2 * MAX_PREFIX + 1))

/* Encode bit under ctx and return it, or decode a bit (TRUNCATED past the end). */
static inline int code_bit(Coder *c, int64_t encoding, int64_t ctx, int bit) {
    if (!encoding)
        return decode_bit(c, ctx);
    encode_bit(c, ctx, bit);
    return bit;
}

/* n decisions on either side, from *done on: bits[i] is encoded under
 * contexts[i], or decoded into it. An encoding call stops with NEED_ROOM
 * before a decision it has no room for, and *done counts the decisions
 * coded. A context outside the tables is BAD_CONTEXT. */
int64_t code_bits(Coder *c, int64_t *done, const int64_t *contexts, uint8_t *bits, int64_t n, int64_t encoding) {
    for (int64_t i = *done; i < n; *done = ++i) {
        if (contexts[i] < 0 || contexts[i] >= c->contexts)
            return BAD_CONTEXT;
        if (encoding && c->pos + c->extra + 64 > c->size)
            return NEED_ROOM;
        const int bit = code_bit(c, encoding, contexts[i], bits[i]);
        if (bit < 0)
            return bit;
        bits[i] = (uint8_t)bit;
    }
    return DONE;
}

/* The end of an encoder's bits: one more bit, then its extra + 1
 * inversions, pin a value inside the final interval; the zero bits after
 * them are what the decoder reads past the payload. NEED_ROOM, with nothing
 * written, when they do not fit. */
int64_t finish_bits(Coder *c) {
    if (c->pos + c->extra + 2 > c->size)
        return NEED_ROOM;
    c->extra++;
    emit(c, c->low >= QUARTER);
    return DONE;
}

/* The occupancy mask, row by row, on either side: each bit is read from the
 * grid and encoded, or decoded and stored there. grid holds nx + 2 rows of
 * ny + 4 bytes: two zero rows of history above the map and two zero columns
 * on either side. Bit k of a pixel's context is template term k of
 * tests/oracles.py::_MASK_TEMPLATE. A map byte above 1 is BAD_LAYOUT. */
static inline __attribute__((always_inline)) int64_t mask_loop(Coder *c, Cursor *at, uint8_t *grid, int64_t nx,
                                                                int64_t ny, int64_t encoding) {
    const int64_t s = ny + 4;
    const int64_t terms[10] = {-2 * s - 1, -2 * s, -2 * s + 1, -s - 2, -s - 1, -s, -s + 1, -s + 2, -2, -1};
    if (ny < 1)
        return DONE;
    for (int64_t x = at->pixel / ny, y = at->pixel % ny; x < nx; x++, y = 0) {
        for (; y < ny; y++) {
            if (encoding && c->pos + c->extra + 64 > c->size) {
                at->pixel = x * ny + y;
                return NEED_ROOM;
            }
            uint8_t *px = grid + (x + 2) * s + y + 2;
            if (*px > 1)
                return BAD_LAYOUT;
            int64_t ctx = 0;
            for (int k = 0; k < 10; k++)
                ctx |= (int64_t)px[terms[k]] << k;
            int bit = code_bit(c, encoding, ctx, *px);
            if (bit < 0)
                return bit;
            *px = (uint8_t)bit;
        }
    }
    return DONE;
}

/* One zigzag order-0 exp-Golomb residual under the 32 contexts at base:
 * *value is encoded, or decoded into it. A value needing more than
 * MAX_PREFIX prefix bins is BAD_LAYOUT when encoding and RUNAWAY when
 * decoding. */
static inline int code_signed(Coder *c, int64_t encoding, int64_t base, int64_t *value) {
    uint64_t w = 0;
    int64_t n = 0, top = -1;
    if (encoding) {
        /* The zigzag code plus one; its top bit is the prefix's terminating one. */
        w = (*value >= 0 ? 2 * (uint64_t)*value : 2 * (uint64_t)(-(*value + 1)) + 1) + 1;
        top = 63 - __builtin_clzll(w);
        if (top > MAX_PREFIX)
            return BAD_LAYOUT;
    }
    int bit;
    while ((bit = code_bit(c, encoding, base + (n < 16 ? n : 15), n == top)) == 0)
        if (++n > MAX_PREFIX)
            return RUNAWAY;
    if (bit < 0)
        return bit;
    uint64_t v = 1;
    for (int64_t i = n - 1; i >= 0; i--) {
        bit = code_bit(c, encoding, base + 16 + (i < 16 ? i : 15), (int)((w >> i) & 1));
        if (bit < 0)
            return bit;
        v = (v << 1) | (uint64_t)bit;
    }
    const uint64_t u = v - 1;
    *value = (u & 1) ? -(int64_t)((u + 1) >> 1) : (int64_t)(u >> 1);
    return DONE;
}

/* The low surface and the thickness at the occupied pixels, in row order, on
 * either side: the predictor of tests/oracles.py::_reference_predict_low and
 * the previous thickness predict them.
 * The encoder reads each value from low and high; an occupied pixel whose occ
 * byte is above 1 or whose values break 0 <= low <= high < nz is BAD_LAYOUT.
 * The decoder range-checks each value and stores it in low and high, which
 * start zeroed. */
static inline __attribute__((always_inline)) int64_t surface_loop(Coder *c, Cursor *at, const uint8_t *occ,
                                                                   int32_t *low, int32_t *high, int64_t nx,
                                                                   int64_t ny, int64_t nz, int64_t encoding) {
    int64_t prev_low = at->prev_low, prev_thick = at->prev_thick;
    if (ny < 1)
        return DONE;
    for (int64_t x = at->pixel / ny, y = at->pixel % ny; x < nx; x++, y = 0) {
        for (; y < ny; y++) {
            const int64_t i = x * ny + y;
            if (!occ[i])
                continue;
            if (encoding) {
                if (c->pos + c->extra + PIXEL_ROOM > c->size) {
                    at->pixel = i;
                    at->prev_low = prev_low;
                    at->prev_thick = prev_thick;
                    return NEED_ROOM;
                }
                if (occ[i] != 1 || low[i] < 0 || low[i] > high[i] || high[i] >= nz)
                    return BAD_LAYOUT;
            }
            int64_t cand[3], k = 0, pred;
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
            int64_t r = low[i] - pred;
            int status = code_signed(c, encoding, MASK_CONTEXTS, &r);
            if (status)
                return status;
            const int64_t v = pred + r;
            if (v < 0 || v >= nz)
                return LOW_RANGE;
            r = high[i] - v - prev_thick;
            status = code_signed(c, encoding, MASK_CONTEXTS + RESIDUAL_CONTEXTS, &r);
            if (status)
                return status;
            const int64_t t = prev_thick + r;
            if (t < 0 || v + t >= nz)
                return THICKNESS_RANGE;
            if (!encoding) {
                low[i] = (int32_t)v;
                high[i] = (int32_t)(v + t);
            }
            prev_low = v;
            prev_thick = t;
        }
    }
    return DONE;
}

/* The loops above, compiled once per side so that neither pays for the
 * other's branches. */
int64_t code_mask(Coder *c, Cursor *at, uint8_t *grid, int64_t nx, int64_t ny, int64_t encoding) {
    return encoding ? mask_loop(c, at, grid, nx, ny, 1) : mask_loop(c, at, grid, nx, ny, 0);
}

int64_t code_surfaces(Coder *c, Cursor *at, const uint8_t *occ, int32_t *low, int32_t *high,
                      int64_t nx, int64_t ny, int64_t nz, int64_t encoding) {
    return encoding ? surface_loop(c, at, occ, low, high, nx, ny, nz, 1)
                    : surface_loop(c, at, occ, low, high, nx, ny, nz, 0);
}

/* A shell: every section of one pair of depth surfaces (see sections.py),
 * and where a resumed call picks up. The slabs are column-major: cell (z, x)
 * of a section sits at (x + 1) * (nz + 2) + z + 1, inside a one-cell border
 * ring, so a column's band is contiguous and one memset loads or clears it.
 * The encoder reads its rows in place, column by column, and emits no
 * points: it flags which of its rows the sweep reached, and out, room and
 * emitted serve the decoder alone. */
typedef struct {
    const uint8_t *occ;            /* the (nx, ny) depth surfaces, row-major, read in place */
    const int32_t *zmin, *zmax;
    int64_t nx, ny, nz;
    const int64_t *points;         /* encoding: the n true rows, as column_starts accepts them; NULL decoding */
    int64_t n;
    int64_t *next;                 /* nx cursors: the first row of column x that no earlier section holds */
    uint8_t *reached;              /* one byte per row, 1 once its section reconstructs it */
    uint8_t *state;                /* two slabs of stride nz + 2: section y codes in slab y % 2 */
    uint8_t *marked, *truth;       /* one slab each, all zero between sections */
    int32_t *fifo;                 /* room for one slab of cells */
    int32_t *columns;              /* room for nx: the section's occupied columns */
    int64_t *rows;                 /* nz + 2 zeros: start-list cells per row while a section loads */
    int64_t *out;                  /* decoding: (x, y, z) of every reconstructed point; unused encoding */
    int64_t room;                  /* points out can hold */
    const uint8_t *turn;           /* contexts.NormTables: alpha_star, class_index, rotated_binary */
    const int32_t *classes;
    const int64_t *rotated;
    int64_t section, loaded, head, tail, coded, emitted;
    int64_t open;                  /* the loaded section's occupied columns: columns[0 .. open) */
} Shell;

/* Column x of section y: 1 with its band [lo, hi], 0 when empty, or
 * BAD_LAYOUT when its occ byte is above 1 or its band leaves 0 .. nz - 1. */
static inline int column(const Shell *s, int64_t x, int64_t y, int64_t *lo, int64_t *hi) {
    const int64_t i = x * s->ny + y;
    if (!s->occ[i])
        return 0;
    *lo = s->zmin[i];
    *hi = s->zmax[i];
    return s->occ[i] == 1 && 0 <= *lo && *lo <= *hi && *hi < s->nz ? 1 : BAD_LAYOUT;
}

/* 1 while row i, reached from a cursor of column x, is a true cell of section y. */
static inline int in_column(const Shell *s, int64_t i, int64_t x, int64_t y) {
    return (uint64_t)i < (uint64_t)s->n && s->points[3 * i] == x && s->points[3 * i + 1] == y;
}

static inline void emit_point(Shell *s, int64_t x, int64_t y, int64_t z) {
    int64_t *p = s->out + 3 * s->emitted++;
    p[0] = x;
    p[1] = y;
    p[2] = z;
}

/* Mark each unknown, unmarked cell of the 3x3 crops around the section's
 * seeds with `mark`, in column order, low seed first; count pass (fifo NULL)
 * or place pass. Within a row the columns come in increasing order and each
 * crop visits x - 1, x, x + 1, so a row's cells arrive in row-major order and
 * a counting sort by row orders the whole list. */
static int64_t list_starts(Shell *s, uint8_t *state, int64_t y, int64_t n, uint8_t want, uint8_t mark,
                           int32_t *fifo, int64_t total) {
    const int64_t st = s->nz + 2;
    uint8_t *marked = s->marked;
    int64_t *rows = s->rows, listed = 0;
    for (int64_t j = 0; j < n; j++) {
        const int64_t x = s->columns[j], i = x * s->ny + y;
        const int64_t seeds[2] = {s->zmin[i] + 1, s->zmax[i] + 1};
        for (int k = 0; k < 1 + (seeds[1] != seeds[0]); k++) {
            for (int64_t r = seeds[k] - 1; r <= seeds[k] + 1; r++) {
                for (int64_t cell = x * st + r; cell <= (x + 2) * st + r; cell += st) {
                    if (state[cell] || marked[cell] != want)
                        continue;
                    marked[cell] = mark;
                    listed++;
                    if (!fifo) {
                        rows[r]++;
                    } else {
                        if (rows[r] >= total)
                            return BAD_LAYOUT;
                        fifo[rows[r]++] = (int32_t)cell;
                    }
                }
            }
        }
    }
    return listed;
}

/* Set up section y in its slab: clear the bands section y - 2 left there,
 * write the bands (unknown) and seeds (occupied) of the occupied columns,
 * mark their true cells when encoding or emit their seeds when decoding, and
 * list the unknown cells around the seeds sorted row-major into the fifo.
 * The work follows the columns, their rows and the listed cells, never the
 * slab's area. */
static inline __attribute__((always_inline)) int64_t load_section(Shell *s, int64_t y, int64_t encoding) {
    const int64_t st = s->nz + 2, size = (s->nx + 2) * st;
    uint8_t *state = s->state + (y & 1) * size;
    int64_t lo, hi, k, n = 0, first = s->nz + 2, last = -1;
    for (int64_t x = 0; y >= 2 && x < s->nx; x++) {
        if ((k = column(s, x, y - 2, &lo, &hi)) < 0)
            return k;
        if (k)
            memset(state + (x + 1) * st + lo + 1, 1, (size_t)(hi - lo + 1));
    }
    for (int64_t x = 0; x < s->nx; x++) {
        if ((k = column(s, x, y, &lo, &hi)) <= 0) {
            if (k < 0)
                return k;
            continue;
        }
        uint8_t *cell = state + (x + 1) * st + lo + 1;
        memset(cell, 0, (size_t)(hi - lo + 1));
        cell[0] = cell[hi - lo] = 2;
        if (encoding) {
            /* column_starts put every row inside the dims. */
            for (int64_t i = s->next[x]; in_column(s, i, x, y); i++)
                s->truth[(x + 1) * st + s->points[3 * i + 2] + 1] = 1;
        } else {
            emit_point(s, x, y, lo);
            if (hi > lo)
                emit_point(s, x, y, hi);
        }
        s->columns[n++] = x;
        /* The seeds' crops cover rows lo .. hi + 2 of the padded slab. */
        first = lo < first ? lo : first;
        last = hi + 2 > last ? hi + 2 : last;
    }
    /* Count the list's cells per row, turn the counts into each row's first
     * position, place the cells, and zero the counts again. */
    int64_t total = list_starts(s, state, y, n, 0, 1, NULL, 0), pos = 0;
    for (int64_t r = first; r <= last; r++) {
        const int64_t c = s->rows[r];
        s->rows[r] = pos;
        pos += c;
    }
    if ((k = list_starts(s, state, y, n, 1, 2, s->fifo, total)) < 0)
        return k;
    for (int64_t r = first; r <= last; r++)
        s->rows[r] = 0;
    s->head = 0;
    s->tail = total;
    s->open = n;
    return DONE;
}

/* Clear the marks section y set in its slab, state. When encoding, first
 * flag each row of the section whose cell state holds occupied as reached,
 * clear its true cell and move its column's cursor past it; the bands stay
 * for section y + 1 to read. */
static inline __attribute__((always_inline)) void unload_section(Shell *s, const uint8_t *state, int64_t y,
                                                                int64_t encoding) {
    const int64_t st = s->nz + 2;
    for (int64_t i = 0; i < s->tail; i++)
        s->marked[s->fifo[i]] = 0;
    for (int64_t j = 0; encoding && j < s->open; j++) {
        const int64_t x = s->columns[j];
        int64_t i = s->next[x];
        for (; in_column(s, i, x, y); i++) {
            const int64_t cell = (x + 1) * st + s->points[3 * i + 2] + 1;
            s->reached[i] = state[cell] == 2;
            s->truth[cell] = 0;
        }
        s->next[x] = i;
    }
}

/* The list-driven section loop of sections.code_section over every section
 * of a shell, on either side: each bit is decoded, or read from the truth
 * and encoded. Section y reads the reconstruction of section y - 1 (state 2)
 * from the other slab. The decoder's reconstructed points go to out: each
 * section's seeds, then its cells coded occupied; out needs room for 2 nx
 * more points before a section loads. The encoder emits nothing; unloading
 * a section flags its reached rows. A cell's context is its label, class *
 * 512 + rotated binary patch. A malformed column, a listed cell whose 3x3
 * crop leaves its slab, or a patch or label outside the tables (state above
 * 2) means the shell breaks its layout: BAD_LAYOUT. */
static inline __attribute__((always_inline)) int64_t shell_loop(Coder *c, Shell *s, int64_t encoding) {
    const int64_t st = s->nz + 2, size = (s->nx + 2) * st;
    /* The 8-neighbours in the oracle's order: nw, n, ne, w, e, sw, s, se. */
    const int64_t push[8] = {-st - 1, -1, st - 1, -st, st, -st + 1, 1, st + 1};
    uint8_t *marked = s->marked;
    int32_t *fifo = s->fifo;
    int64_t status = DONE;
    for (; s->section < s->ny; s->section++) {
        const int64_t y = s->section;
        if (!s->loaded) {
            if (!encoding && s->emitted + 2 * s->nx > s->room)
                return NEED_ROOM;
            if ((status = load_section(s, y, encoding)) < 0)
                return status;
            s->loaded = 1;
        }
        uint8_t *state = s->state + (y & 1) * size;
        const uint8_t *prev = s->state + (~y & 1) * size;
        int64_t head = s->head, tail = s->tail, coded = s->coded;
        while (head < tail) {
            if (encoding ? c->pos + c->extra + 64 > c->size : s->emitted == s->room) {
                status = NEED_ROOM;
                break;
            }
            const int64_t idx = fifo[head];
            if (idx < st + 1 || idx > size - st - 2) {
                status = BAD_LAYOUT;
                break;
            }
            const uint8_t *q = state + idx, *p = prev + idx;
            /* Base-3 column-scan patch index; the center cell is unknown (0). */
            int64_t patch = q[-st - 1] + 3 * q[-st] + 9 * q[-st + 1] + 27 * q[-1] + 243 * q[1]
                            + 729 * q[st - 1] + 2187 * q[st] + 6561 * q[st + 1];
            int64_t binary = (p[-st - 1] >> 1) + 2 * (p[-st] >> 1) + 4 * (p[-st + 1] >> 1) + 8 * (p[-1] >> 1)
                             + 16 * (p[0] >> 1) + 32 * (p[1] >> 1) + 64 * (p[st - 1] >> 1)
                             + 128 * (p[st] >> 1) + 256 * (p[st + 1] >> 1);
            if (patch >= 19683 || binary >= 512) {
                status = BAD_LAYOUT;
                break;
            }
            const int64_t label = (int64_t)s->classes[patch] * 512 + s->rotated[s->turn[patch] * 512 + binary];
            if ((uint64_t)label >= (uint64_t)c->contexts) {
                status = BAD_LAYOUT;
                break;
            }
            int bit;
            if (encoding) {
                bit = s->truth[idx] != 0;
                encode_bit(c, label, bit);
            } else if ((bit = decode_bit(c, label)) < 0) {
                status = bit;
                break;
            }
            head++;
            coded++;
            state[idx] = (uint8_t)(1 + bit);
            if (bit) {
                if (!encoding)
                    emit_point(s, idx / st - 1, y, idx % st - 1);
                for (int k = 0; k < 8; k++) {
                    int64_t j = idx + push[k];
                    if (state[j] == 0 && marked[j] == 0) {
                        marked[j] = 1;
                        fifo[tail++] = (int32_t)j;
                    }
                }
            }
        }
        s->head = head;
        s->tail = tail;
        s->coded = coded;
        if (status != DONE)
            return status;
        unload_section(s, state, y, encoding);
        s->loaded = 0;
    }
    return DONE;
}

/* A shell on either side; points is NULL when decoding. The side is decided
 * once per call, so neither side's loop tests for the other's work. */
int64_t code_shell(Coder *c, Shell *s) {
    return s->points ? shell_loop(c, s, 1) : shell_loop(c, s, 0);
}

/* The pixel x * ny + y of row p, or BAD_LAYOUT when p lies outside the dims
 * or is not above the row before it, at pixel last (-1 before the first row)
 * and depth last_z. A negative coordinate wraps past the dims, and inside
 * them the pixel index orders rows as (x, y) does. */
static inline int64_t pixel_after(const int64_t *p, int64_t nx, int64_t ny, int64_t nz, int64_t last,
                                  int64_t last_z) {
    if ((uint64_t)p[0] >= (uint64_t)nx || (uint64_t)p[1] >= (uint64_t)ny || (uint64_t)p[2] >= (uint64_t)nz)
        return BAD_LAYOUT;
    const int64_t px = p[0] * ny + p[1];
    return px < last || (px == last && p[2] <= last_z) ? BAD_LAYOUT : px;
}

/* The (nx, ny) depth maps of n rows strictly increasing in (x, y, z): the
 * first row of each (x, y) run sets occ and zmin, its last row zmax, and
 * every other pixel reads zero. A row outside the dims or not above the row
 * before is BAD_LAYOUT. */
int64_t project_rows(const int64_t *pts, int64_t n, int64_t nx, int64_t ny, int64_t nz, uint8_t *occ,
                     int32_t *zmin, int32_t *zmax) {
    memset(occ, 0, (size_t)(nx * ny));
    memset(zmin, 0, (size_t)(nx * ny) * sizeof *zmin);
    memset(zmax, 0, (size_t)(nx * ny) * sizeof *zmax);
    int64_t last = -1, last_z = 0;
    for (const int64_t *p = pts; p < pts + 3 * n; p += 3) {
        const int64_t px = pixel_after(p, nx, ny, nz, last, last_z);
        if (px < 0)
            return px;
        if (px != last) {
            occ[px] = 1;
            zmin[px] = (int32_t)p[2];
        }
        zmax[px] = (int32_t)p[2];
        last = px;
        last_z = p[2];
    }
    return DONE;
}

/* Each column's first row, into next (nx entries): next[x] is the first of
 * the n rows whose x is x or more, n when there is none. The rows must be
 * strictly increasing in (x, y, z), and each must lie in the band of an
 * occupied pixel of the (nx, ny) maps occ, zmin and zmax, so that code_shell
 * finds every row of section y in column x from next[x] on; any other row is
 * BAD_LAYOUT. */
int64_t column_starts(const int64_t *pts, int64_t n, int64_t nx, int64_t ny, int64_t nz, const uint8_t *occ,
                      const int32_t *zmin, const int32_t *zmax, int64_t *next) {
    int64_t last = -1, last_z = 0, x = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *p = pts + 3 * i, px = pixel_after(p, nx, ny, nz, last, last_z);
        if (px < 0 || !occ[px] || p[2] < zmin[px] || p[2] > zmax[px])
            return BAD_LAYOUT;
        while (x <= p[0])
            next[x++] = i;
        last = px;
        last_z = p[2];
    }
    while (x < nx)
        next[x++] = n;
    return DONE;
}

/* Row i, column k of an (n, 3) int64 array read through its byte strides;
 * memcpy makes an unaligned element safe to load. */
static inline int64_t element(const char *pts, int64_t i, int k, int64_t row_stride, int64_t col_stride) {
    int64_t v;
    memcpy(&v, pts + i * row_stride + k * col_stride, sizeof v);
    return v;
}

static inline __attribute__((always_inline)) int64_t normalize_loop(const char *pts, int64_t n, int64_t row_stride,
                                                                     int64_t col_stride, int64_t *out) {
    int64_t i = 0, x = 0, y = 0, z = 0;
    for (; i < n; i++) {
        const int64_t a = element(pts, i, 0, row_stride, col_stride), b = element(pts, i, 1, row_stride, col_stride),
                      c = element(pts, i, 2, row_stride, col_stride);
        if (i && (a < x || (a == x && (b < y || (b == y && c <= z)))))
            break;
        out[3 * i] = x = a;
        out[3 * i + 1] = y = b;
        out[3 * i + 2] = z = c;
    }
    if (i == n)
        return n;
    int64_t lo = x, hi = x;
    for (i = 0; i < n; i++) {
        for (int k = 0; k < 3; k++) {
            const int64_t v = element(pts, i, k, row_stride, col_stride);
            lo = v < lo ? v : lo;
            hi = v > hi ? v : hi;
        }
    }
    const uint64_t range = (uint64_t)hi - (uint64_t)lo;
    const int width = range ? 64 - __builtin_clzll(range) : 0, bits = 3 * width;
    if (bits > 63)
        return TOO_WIDE;
    /* Digits of at most 12 bits, as few passes as that allows, each as wide
     * as the others; their counts take at most 160 KiB of stack, and 64 KiB
     * up to 8 bits per axis. */
    const int passes = (bits + 11) / 12, digit = passes ? (bits + passes - 1) / passes : 0;
    const uint64_t fmask = ((uint64_t)1 << width) - 1, dmask = ((uint64_t)1 << digit) - 1;
    int64_t count[passes ? passes : 1][(size_t)1 << digit];
    memset(count, 0, sizeof count);
    uint64_t *keys = (uint64_t *)out, *spare = keys + n;
    for (i = 0; i < n; i++) {
        uint64_t key = 0;
        for (int k = 0; k < 3; k++)
            key = key << width | ((uint64_t)element(pts, i, k, row_stride, col_stride) - (uint64_t)lo);
        keys[i] = key;
        for (int d = 0; d < passes; d++)
            count[d][key >> d * digit & dmask]++;
    }
    for (int d = 0; d < passes; d++) {
        int64_t *c = count[d], pos = 0;
        if (c[keys[0] >> d * digit & dmask] == n)
            continue;
        for (uint64_t b = 0; b <= dmask; b++) {
            const int64_t m = c[b];
            c[b] = pos;
            pos += m;
        }
        for (i = 0; i < n; i++)
            spare[c[keys[i] >> d * digit & dmask]++] = keys[i];
        uint64_t *t = keys;
        keys = spare;
        spare = t;
    }
    /* The sorted keys are in either half; the distinct ones gather at the front. */
    uint64_t *front = (uint64_t *)out;
    int64_t m = 0;
    for (i = 0; i < n; i++)
        if (!m || keys[i] != front[m - 1])
            front[m++] = keys[i];
    for (i = m - 1; i >= 0; i--) {
        const uint64_t key = front[i];
        out[3 * i] = (int64_t)(key >> 2 * width) + lo;
        out[3 * i + 1] = (int64_t)(key >> width & fmask) + lo;
        out[3 * i + 2] = (int64_t)(key & fmask) + lo;
    }
    return m;
}

/* The distinct rows of an (n, 3) int64 array, read through its byte
 * strides, in (x, y, z) order, into out: n C-ordered rows of room. Returns
 * how many there are, or TOO_WIDE, with out spoilt, when the rows are not
 * already strictly increasing and their range is wider than 21 bits (three
 * fields would not pack into 63). Rows that already increase are copied as
 * they come. Any others pack into one key each, the coordinates less the
 * whole array's minimum side by side, which an LSD radix sort orders (Knuth,
 * TAOCP vol. 3, 5.2.5) in out itself: keys in out's first n entries, their
 * spare in the next n. A digit that is the same in every key needs no pass.
 * Repeated keys then drop, and the rest unpack, last row first, so that a
 * row never overwrites a key still to be read. C-ordered rows, the common
 * case, get a loop compiled for their strides. */
int64_t normalize_rows(const char *pts, int64_t n, int64_t row_stride, int64_t col_stride, int64_t *out) {
    return row_stride == 24 && col_stride == 8 ? normalize_loop(pts, n, 24, 8, out)
                                               : normalize_loop(pts, n, row_stride, col_stride, out);
}
