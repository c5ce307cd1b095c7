/* C shuffle probes for the benchmark.
 *
 * No job calls these kernels: the framework's shuffle is pure Python.
 * They stay only while bench/layers.py times them (native.kernels.*)
 * and go with those probes (ROADMAP item 9(f)).  Each kernel operates
 * on the data plane's raw representation: a batch of canonical key
 * bytes packed into one contiguous buffer addressed by an offsets
 * array (offs[i] .. offs[i+1] is record i's key), plus plain int64
 * index/position arrays.  No CPython API is used anywhere, so the
 * library compiles with any C compiler and loads with ctypes.
 *
 * Correctness contracts (each mirrors a pure-Python loop and must stay
 * byte/percall identical to it — see tests/io/test_native_kernels.py):
 *
 *  - mrs_crc32 matches zlib.crc32 (IEEE, reflected, init/xorout -1).
 *  - mrs_hash64(key) == repro.util.hashing.stable_hash_bytes(key):
 *    crc32 * 0x9E3779B97F4A7C15 mod 2^64.
 *  - mrs_partition_scatter places keys exactly like
 *    hash_partition_bytes, as a stable counting sort (records keep
 *    their emit order within a split).
 *  - mrs_sort_index is a stable mergesort by key bytes — the same
 *    permutation as sorted(range(n), key=keys.__getitem__).
 *  - mrs_group_scatter groups equal keys (values keep encounter
 *    order), in first-encounter order or sorted by key bytes.
 *  - mrs_frame/mrs_scan write/parse the BinWriter record framing
 *    (big-endian u32 key/value length prefixes) byte-identically.
 *  - mrs_merge_pick replays heapq.merge(key=record_key) pick order,
 *    ties broken by lowest stream index.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* CRC-32 (IEEE 802.3, reflected) — must match zlib.crc32.            */
/* ------------------------------------------------------------------ */

static uint32_t crc_table[256];
static int crc_table_ready = 0;

static void crc_table_init(void) {
    for (uint32_t i = 0; i < 256; i++) {
        uint32_t c = i;
        for (int bit = 0; bit < 8; bit++)
            c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        crc_table[i] = c;
    }
    crc_table_ready = 1;
}

uint32_t mrs_crc32(const uint8_t *data, int64_t len) {
    if (!crc_table_ready)
        crc_table_init();
    uint32_t c = 0xFFFFFFFFu;
    for (int64_t i = 0; i < len; i++)
        c = crc_table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

/* Fibonacci multiplier — keep in sync with repro.util.hashing._MIX. */
#define MRS_MIX 0x9E3779B97F4A7C15ULL

uint64_t mrs_hash64(const uint8_t *data, int64_t len) {
    /* 64-bit wraparound == "& 0xFFFFFFFFFFFFFFFF" in Python. */
    return (uint64_t)mrs_crc32(data, len) * MRS_MIX;
}

/* ------------------------------------------------------------------ */
/* Partitioning: a stable scatter by split.                           */
/* ------------------------------------------------------------------ */

/* Stable counting sort of record indices by split id.  order[] gets
 * the record indices grouped by split (emit order preserved within a
 * split); bounds[] (length n_splits+1) gets each split's range in
 * order[].  Returns 0, or -1 on allocation failure. */
int mrs_partition_scatter(const uint8_t *keys, const int64_t *offs, int64_t n,
                          uint32_t n_splits, int64_t *order, int64_t *bounds) {
    uint32_t *splits = (uint32_t *)malloc((size_t)(n ? n : 1) * 4);
    if (splits == NULL)
        return -1;
    for (int64_t i = 0; i < n; i++)
        splits[i] = (uint32_t)(
            mrs_hash64(keys + offs[i], offs[i + 1] - offs[i]) % n_splits);
    int64_t *cursor = (int64_t *)calloc((size_t)n_splits + 1, 8);
    if (cursor == NULL) {
        free(splits);
        return -1;
    }
    for (int64_t i = 0; i < n; i++)
        cursor[splits[i]]++;
    bounds[0] = 0;
    for (uint32_t s = 0; s < n_splits; s++)
        bounds[s + 1] = bounds[s] + cursor[s];
    for (uint32_t s = 0; s < n_splits; s++)
        cursor[s] = bounds[s];
    for (int64_t i = 0; i < n; i++)
        order[cursor[splits[i]]++] = i;
    free(cursor);
    free(splits);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Key comparison and stable index sort.                              */
/* ------------------------------------------------------------------ */

static inline int key_cmp(const uint8_t *buf, const int64_t *starts,
                          const int64_t *ends, int64_t a, int64_t b) {
    int64_t alen = ends[a] - starts[a];
    int64_t blen = ends[b] - starts[b];
    int64_t min = alen < blen ? alen : blen;
    int c = memcmp(buf + starts[a], buf + starts[b], (size_t)min);
    if (c != 0)
        return c;
    return alen < blen ? -1 : (alen > blen ? 1 : 0);
}

/* Bottom-up stable mergesort of order[] (preloaded with element ids),
 * comparing element e's bytes buf[starts[e]..ends[e]).  For a packed
 * record batch pass starts=offs, ends=offs+1.  Returns 0 / -1 (OOM). */
static int sort_index_by_key(const uint8_t *buf, const int64_t *starts,
                             const int64_t *ends, int64_t n, int64_t *order) {
    if (n < 2)
        return 0;
    int64_t *scratch = (int64_t *)malloc((size_t)n * 8);
    if (scratch == NULL)
        return -1;
    int64_t *src = order, *dst = scratch;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                /* <= keeps the left run's elements first: stability. */
                if (key_cmp(buf, starts, ends, src[i], src[j]) <= 0)
                    dst[k++] = src[i++];
                else
                    dst[k++] = src[j++];
            }
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        int64_t *tmp = src;
        src = dst;
        dst = tmp;
    }
    if (src != order)
        memcpy(order, src, (size_t)n * 8);
    free(scratch);
    return 0;
}

/* order[] need not be initialized; it receives the stable permutation
 * that sorts the batch by key bytes. */
int mrs_sort_index(const uint8_t *keys, const int64_t *offs, int64_t n,
                   int64_t *order) {
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    return sort_index_by_key(keys, offs, offs + 1, n, order);
}

/* ------------------------------------------------------------------ */
/* Grouping: equal keys brought together, values in encounter order.  */
/* ------------------------------------------------------------------ */

/* Hash-group the batch.  order[] (length n) receives record indices
 * grouped by key; bounds[] (length n+1 worst case) receives group
 * ranges.  With sort_groups the groups are ordered by key bytes,
 * otherwise by first encounter.  Within a group records keep their
 * input order (the stable-sort guarantee the combiner relies on).
 * Returns the number of groups, or -1 on allocation failure. */
int64_t mrs_group_scatter(const uint8_t *keys, const int64_t *offs, int64_t n,
                          int sort_groups, int64_t *order, int64_t *bounds) {
    if (n == 0) {
        bounds[0] = 0;
        return 0;
    }
    if (!crc_table_ready)
        crc_table_init();
    uint64_t size = 1;
    while (size < (uint64_t)n * 2)
        size <<= 1;
    int64_t *slots = (int64_t *)malloc(size * 8); /* group id or -1 */
    int64_t *gid = (int64_t *)malloc((size_t)n * 8);
    int64_t *rep = (int64_t *)malloc((size_t)n * 8); /* first record of group */
    int64_t *gcount = (int64_t *)calloc((size_t)n, 8);
    if (!slots || !gid || !rep || !gcount) {
        free(slots);
        free(gid);
        free(rep);
        free(gcount);
        return -1;
    }
    memset(slots, 0xFF, size * 8);
    int64_t ngroups = 0;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *kptr = keys + offs[i];
        int64_t klen = offs[i + 1] - offs[i];
        uint64_t h = (uint64_t)mrs_crc32(kptr, klen) * MRS_MIX;
        uint64_t slot = h & (size - 1);
        for (;;) {
            int64_t g = slots[slot];
            if (g < 0) {
                slots[slot] = ngroups;
                rep[ngroups] = i;
                gid[i] = ngroups;
                gcount[ngroups] = 1;
                ngroups++;
                break;
            }
            int64_t r = rep[g];
            if (offs[r + 1] - offs[r] == klen &&
                memcmp(keys + offs[r], kptr, (size_t)klen) == 0) {
                gid[i] = g;
                gcount[g]++;
                break;
            }
            slot = (slot + 1) & (size - 1);
        }
    }
    free(slots);

    /* Output order of the groups: encounter order, or key order. */
    int64_t *gorder = (int64_t *)malloc((size_t)ngroups * 8);
    int64_t *grank = (int64_t *)malloc((size_t)ngroups * 8);
    int64_t *gstart = NULL, *gend = NULL;
    if (!gorder || !grank)
        goto oom;
    for (int64_t g = 0; g < ngroups; g++)
        gorder[g] = g;
    if (sort_groups) {
        gstart = (int64_t *)malloc((size_t)ngroups * 8);
        gend = (int64_t *)malloc((size_t)ngroups * 8);
        if (!gstart || !gend)
            goto oom;
        for (int64_t g = 0; g < ngroups; g++) {
            gstart[g] = offs[rep[g]];
            gend[g] = offs[rep[g] + 1];
        }
        if (sort_index_by_key(keys, gstart, gend, ngroups, gorder) != 0)
            goto oom;
        free(gstart);
        free(gend);
        gstart = gend = NULL;
    }
    for (int64_t r = 0; r < ngroups; r++)
        grank[gorder[r]] = r;
    bounds[0] = 0;
    for (int64_t r = 0; r < ngroups; r++)
        bounds[r + 1] = bounds[r] + gcount[gorder[r]];
    /* Stable scatter: records land in their group's range in input
     * order. */
    int64_t *cursor = gcount; /* reuse as per-rank cursors */
    for (int64_t r = 0; r < ngroups; r++)
        cursor[r] = bounds[r];
    for (int64_t i = 0; i < n; i++)
        order[cursor[grank[gid[i]]]++] = i;
    free(gorder);
    free(grank);
    free(gid);
    free(rep);
    free(gcount);
    return ngroups;

oom:
    free(gorder);
    free(grank);
    free(gstart);
    free(gend);
    free(gid);
    free(rep);
    free(gcount);
    return -1;
}

/* ------------------------------------------------------------------ */
/* Record framing: BinWriter/BinReader's "!II" length-prefix layout.  */
/* ------------------------------------------------------------------ */

static inline void put_be32(uint8_t *p, uint32_t v) {
    p[0] = (uint8_t)(v >> 24);
    p[1] = (uint8_t)(v >> 16);
    p[2] = (uint8_t)(v >> 8);
    p[3] = (uint8_t)v;
}

/* Frame n records from packed key and value buffers into out (sized by
 * the caller to 8*n + len(kbuf slice) + len(vbuf slice)).  Returns the
 * number of bytes written. */
int64_t mrs_frame(const uint8_t *kbuf, const int64_t *koffs,
                  const uint8_t *vbuf, const int64_t *voffs, int64_t n,
                  uint8_t *out) {
    uint8_t *p = out;
    for (int64_t i = 0; i < n; i++) {
        int64_t klen = koffs[i + 1] - koffs[i];
        int64_t vlen = voffs[i + 1] - voffs[i];
        put_be32(p, (uint32_t)klen);
        put_be32(p + 4, (uint32_t)vlen);
        p += 8;
        memcpy(p, kbuf + koffs[i], (size_t)klen);
        p += klen;
        memcpy(p, vbuf + voffs[i], (size_t)vlen);
        p += vlen;
    }
    return (int64_t)(p - out);
}

/* Parse framed records out of buf[start:len).  triples[] receives
 * (key_start, value_start, value_end) per record — key bytes are
 * buf[key_start:value_start-?]... precisely: key is
 * [key_start, key_start+klen) where klen = value_start - key_start.
 * Stops at max_records or at a partial trailing record.  Returns the
 * record count; the caller resumes at triples[3*count-1]. */
int64_t mrs_scan(const uint8_t *buf, int64_t len, int64_t start,
                 int64_t max_records, int64_t *triples) {
    int64_t pos = start, count = 0;
    while (count < max_records && pos + 8 <= len) {
        int64_t klen = ((int64_t)buf[pos] << 24) | ((int64_t)buf[pos + 1] << 16) |
                       ((int64_t)buf[pos + 2] << 8) | (int64_t)buf[pos + 3];
        int64_t vlen = ((int64_t)buf[pos + 4] << 24) |
                       ((int64_t)buf[pos + 5] << 16) |
                       ((int64_t)buf[pos + 6] << 8) | (int64_t)buf[pos + 7];
        int64_t kstart = pos + 8;
        int64_t vstart = kstart + klen;
        int64_t vend = vstart + vlen;
        if (vend > len)
            break;
        triples[3 * count] = kstart;
        triples[3 * count + 1] = vstart;
        triples[3 * count + 2] = vend;
        count++;
        pos = vend;
    }
    return count;
}

/* ------------------------------------------------------------------ */
/* K-way merge over framed windows.                                   */
/* ------------------------------------------------------------------ */

/* Compare the current (wire) keys of streams a and b; ties break on
 * the lower stream index, replaying heapq.merge's stability. */
static inline int stream_lt(const uint8_t *const *bufs,
                            const int64_t *const *triples,
                            const int64_t *positions, int32_t a, int32_t b) {
    const int64_t *ta = triples[a] + 3 * positions[a];
    const int64_t *tb = triples[b] + 3 * positions[b];
    int64_t alen = ta[1] - ta[0];
    int64_t blen = tb[1] - tb[0];
    int64_t min = alen < blen ? alen : blen;
    int c = memcmp(bufs[a] + ta[0], bufs[b] + tb[0], (size_t)min);
    if (c != 0)
        return c < 0;
    if (alen != blen)
        return alen < blen;
    return a < b;
}

static void sift_down(int32_t *heap, int64_t size, int64_t at,
                      const uint8_t *const *bufs, const int64_t *const *triples,
                      const int64_t *positions) {
    for (;;) {
        int64_t left = 2 * at + 1, right = left + 1, small = at;
        if (left < size && stream_lt(bufs, triples, positions, heap[left],
                                     heap[small]))
            small = left;
        if (right < size && stream_lt(bufs, triples, positions, heap[right],
                                      heap[small]))
            small = right;
        if (small == at)
            return;
        int32_t tmp = heap[at];
        heap[at] = heap[small];
        heap[small] = tmp;
        at = small;
    }
}

/* Emit merge picks until max_out picks are made, every stream is
 * finished, or a stream's window runs dry (positions[s] == counts[s]
 * with done[s] == 0: the caller refills that window and calls again).
 *
 * out_src[i] is the stream picked for output record i; out_newgrp[i]
 * is 1 when its key differs from the previous emitted key (the
 * previous call's final key arrives as prev_key/prev_len; prev_len < 0
 * means "no previous record").  positions[] is advanced in place.
 * Returns the number of picks. */
int64_t mrs_merge_pick(int32_t k, const uint8_t *const *bufs,
                       const int64_t *const *triples, const int64_t *counts,
                       int64_t *positions, const uint8_t *done,
                       const uint8_t *prev_key, int64_t prev_len,
                       int32_t *out_src, uint8_t *out_newgrp,
                       int64_t max_out) {
    int32_t heap[1024];
    int64_t size = 0;
    if (k > 1024)
        return -1;
    for (int32_t s = 0; s < k; s++) {
        if (positions[s] < counts[s])
            heap[size++] = s;
        else if (!done[s])
            return 0; /* caller must refill before merging */
    }
    for (int64_t at = size / 2 - 1; at >= 0; at--)
        sift_down(heap, size, at, bufs, triples, positions);

    const uint8_t *pk = prev_key;
    int64_t pl = prev_len;
    int64_t npicks = 0;
    while (size > 0 && npicks < max_out) {
        int32_t s = heap[0];
        const int64_t *t = triples[s] + 3 * positions[s];
        const uint8_t *kptr = bufs[s] + t[0];
        int64_t klen = t[1] - t[0];
        out_src[npicks] = s;
        out_newgrp[npicks] =
            (pl < 0 || klen != pl || memcmp(kptr, pk, (size_t)klen) != 0);
        pk = kptr;
        pl = klen;
        npicks++;
        positions[s]++;
        if (positions[s] >= counts[s]) {
            if (!done[s])
                break; /* window dry: refill needed */
            heap[0] = heap[--size];
            if (size > 0)
                sift_down(heap, size, 0, bufs, triples, positions);
        } else {
            sift_down(heap, size, 0, bufs, triples, positions);
        }
    }
    return npicks;
}
