/* The fused run kernel of tasep.dynamics: k synchronous steps in one call, of
   one run or of two runs coupled on one coin stream.

   Each step repeats _Stepper.advance bit for bit: CoinStream's Philox4x32-10
   coins, the successor bound, the obstacle stop, the never-left clamp, the
   32-bit coin compare, the displacement, the winding, the seam wrap and
   numpy's sum of the step's displacements.  The float path keeps numpy's
   operation order, so it must be built with -ffp-contract=off and without
   -ffast-math.

   The coins are those of coin contract 0.3 (CoinStream): Philox4x32-10
   (Salmon et al., SC'11) under the key (seed low, seed high) of counter block
   [i / 4, t, stream low, stream high] gives four 32-bit words, and particle
   i's coin k is word i mod 4 of that block.  The particle moves when k is
   below cut = ceil(p * 2**32), so p acts as a multiple of 2**-32.  A cut of 0
   or 2**32 (p = 0, p = 1 or any p above 1 - 2**-32) decides every coin, and
   such a step draws and reads no word.  dynamics keeps t below 2**32 and n at
   most 2**34, where the counter holds t and i / 4 exactly.

   A call draws its coins through one of two bodies, chosen once per call
   (coin_body).  On an x86-64 machine with AVX-512F, as every machine the v4
   clone runs on has, an AVX-512 body runs eight counter blocks in the 64-bit
   lanes of each vpmuludq, 32 coins an iteration.  The portable body runs one
   block at a time; it is the only one a TASEP_NO_CLONES build and other
   architectures build.  Both take any range that starts at a multiple of 4
   and write its coins and no others.

   A step runs through the particles in blocks of BLOCK.  Each block draws its
   words and takes two passes.  Pass 1 reads only positions no pass 2 has
   written yet (the block's and the first of the next block) and writes the
   moved positions, the displacements and the winding through pointers that do
   not alias, so the compiler runs it in SIMD lanes.  Pass 2 copies the moved
   positions back into the block's x.  The moved positions are stored rather
   than rebuilt as x + disp, which is not exact in float64.  A block's words
   and moved positions stay in L1 cache, in stack buffers of BLOCK entries in
   the frame of NAME##_part, which steps one thread's range of a step (a
   part).  A coupled call keeps its own, as it steps two runs per block.

   An obstacle run stops each particle at the first obstacle strictly beyond
   it, which pass 1 finds by a merge walk over the sorted obstacles, as
   positions never decrease along the array.  Each part starts its walk at
   obstacle 0 and so reaches its first particle's index on the way: only a
   split call's later parts pay that linear start, and _native asks for a split
   only from SPLIT_PARTICLES particles on.

   A ring's positions lie in a window [x_0, x_0 + seam) that moves back by the
   seam once particle 0 passes it.  As in _Stepper.advance, that wrap is a
   renormalization between steps: once every particle of the step has moved,
   if particle 0's new position has reached the seam, each position moves back
   by the seam (unwrap), the same subtraction numpy makes.  So no block's moves
   depend on the wrap, and each thread moves back its own range.

   An int64 run adds each step's displacements up as integers in pass 1 and
   takes that sum, as a double, for the step's total.  Every displacement is
   an integer in [0, v], so when n v <= 2**53 every partial sum that pairwise
   forms is an integer of at most 2**53, which a double holds exactly, and
   pairwise's total is the integer sum bit for bit.  Each call checks
   n v <= 2**53 once (integer_totals) and sums pairwise past it, so the bits
   hold for any v.  With integer totals nothing reads a step's disp row but
   _Stepper.disp and step(), which read the last one, so the call writes the
   row on its last step only; earlier steps put each block's displacements in
   the part's stack buffer of BLOCK entries, which stays in L1 cache.  The
   float64 runs need the displacements' values for pairwise, and always write
   the row.

   A coupled call steps two runs of n particles on one coin stream block by
   block: it draws each block's words once and hands them to both runs' block
   step, the one a run call takes.  There is one entry point per pair of
   position types, tasep_coupled_{i64,f64}_{i64,f64} (a's type first), each
   with its own stack buffers; _native.bind returns the four as a tuple that
   coupled_run indexes by the kinds it computes.  Once both runs have moved
   and unwrapped, the call takes the maxima of |disp_b - scale disp_a| and of
   |gap_b - scale gap_a| over whole rows, gap_i = (succ_i - rr_i) - x_i as
   numpy's _bounds takes it.  A maximum does not depend on the order it is
   taken in, so it has numpy's bits; with a NaN term it is the quiet NaN
   numpy's max returns.

   A run call given threads > 1 runs each step on two threads: the caller
   moves particles [0, c) and a helper thread, started for the call and joined
   at its end, moves [c, n), with c = half_of(n) for the whole call, the point
   where pairwise splits its root.  A float64 thread's share of the step's
   total is pairwise over its own range and an int64 thread's its integer
   sum; the helper adds the caller's share to its own, which for n > 128 is
   pairwise over all n by pairwise's own definition.  c is a multiple of 8, so
   whole counter blocks and, as _Stepper aligns x, disp and wind to 64 bytes,
   whole cache lines: the threads never write one line.

   Step s of a thread needs values that only the other thread knows: the
   caller needs x[c] as the step began, for its last particle's bound, and the
   helper x[0] as the step began, for its last particle's bound, and whether
   the step wraps at the seam, which particle 0's move decides.  Each thread
   ends step s by writing its post and raising its one count, out, to s + 1
   (say).  The post holds the thread's first position, x[0] or x[c], as step
   s + 1 begins; the caller's also holds its share of step s's total and
   whether step s wrapped.  The caller moves [0, c - 8), waits until the
   helper's out reaches s (await), reads x[c] from the helper's post and
   moves its last 8 particles; it then writes its share, decides the wrap and
   unwraps [0, c).  The helper moves [c, n), bounded by the x[0] it read at
   the end of step s - 1, waits until the caller's out reaches s + 1, reads
   the caller's post, writes the step's total and unwraps [c, n) as the
   caller decided.  Each thread reads the other's post right after its wait
   and writes its own only after the wait that shows the other has read the
   last one, so one slot per value is enough.  The values of step 0 are set
   before the helper starts: the helper's post holds x[c], and the team holds
   x[0] for the helper's first bound, since the caller may end step 0, and
   overwrite its post, before the helper reads it.  The scheduler places the
   helper.  A waiting thread spins SPINS pauses and then yields at
   each look, so two threads that share one CPU take turns.  On two CPUs the
   split pays for itself where a run is large enough: the benchmark's 10**4
   particle fundamental-diagram points run faster on two threads than on one
   (BENCH_31.json, ROADMAP item 14).

   On x86-64 each run function and pairwise are built as two target clones,
   x86-64-v4 (AVX-512) and the baseline, and the dynamic loader picks one per
   machine.  There is no avx2 clone: AVX2 has no int64 -> double convert, so
   the int64 run would stay scalar there, and the two passes run scalar are
   slower than one fused loop.  pairwise is cloned so that the v4 run calls v4
   code: on a Xeon with AVX-512, the baseline pairwise called after 512-bit
   code cost about 250 ns per step.  The baseline clone is the portable
   reference; defining TASEP_NO_CLONES builds it alone, as every other
   architecture does. */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <string.h>

/* Philox4x32-10's round multipliers and the Weyl increments of its key */
#define PHILOX_M0 0xD2511F53u
#define PHILOX_M1 0xCD9E8D57u
#define PHILOX_W0 0x9E3779B9u
#define PHILOX_W1 0xBB67AE85u

/* Philox4x32-10 of the counter block [c0, c1, c2, c3] under the key (k0, k1)
   into w[0 .. 3]. */
static void philox(uint32_t *w, uint32_t c0, uint32_t c1, uint32_t c2, uint32_t c3,
                   uint32_t k0, uint32_t k1) {
    for (int r = 0; r < 10; r++) {
        if (r) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        const uint64_t p0 = (uint64_t)PHILOX_M0 * c0, p1 = (uint64_t)PHILOX_M1 * c2;
        c0 = (uint32_t)(p1 >> 32) ^ c1 ^ k0;
        c1 = (uint32_t)p1;
        c2 = (uint32_t)(p0 >> 32) ^ c3 ^ k1;
        c3 = (uint32_t)p0;
    }
    w[0] = c0;
    w[1] = c1;
    w[2] = c2;
    w[3] = c3;
}

/* A coin body: the coins of particles [b, e) of step t under (seed, stream),
   b a multiple of 4, into w[0 .. e - b); particle i's is word i mod 4 of the
   counter block [i / 4, t, stream low, stream high] under the key
   (seed low, seed high).  It writes no other entry of w. */
typedef void coin_body_fn(uint32_t *restrict w, int64_t b, int64_t e, uint64_t t,
                          uint64_t seed, uint64_t stream);

/* The portable coin body, one counter block at a time. */
static void coins_portable(uint32_t *restrict w, int64_t b, int64_t e, uint64_t t,
                           uint64_t seed, uint64_t stream) {
    for (int64_t i = b; i < e; i += 4) {
        uint32_t r[4];
        philox(r, (uint32_t)(i / 4), (uint32_t)t, (uint32_t)stream, (uint32_t)(stream >> 32),
               (uint32_t)seed, (uint32_t)(seed >> 32));
        for (int j = 0; j < 4 && i + j < e; j++)
            w[i - b + j] = r[j];
    }
}

#if defined(__x86_64__) && !defined(TASEP_NO_CLONES)
#include <immintrin.h>

/* The AVX-512 coin body: eight counter blocks in the 64-bit lanes of each
   vector, one vpmuludq multiplying the low 32 bits of all eight, so 32 coins
   an iteration.  A lane's high half is left as it falls, as the multiply and
   the final merge read only the low half.  It needs AVX-512F alone. */
__attribute__((target("avx512f"))) static void coins_avx512(uint32_t *restrict w, int64_t b,
                                                             int64_t e, uint64_t t,
                                                             uint64_t seed, uint64_t stream) {
    const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    const __m512i m0 = _mm512_set1_epi64(PHILOX_M0), m1 = _mm512_set1_epi64(PHILOX_M1);
    const __m512i low = _mm512_set1_epi64(0xFFFFFFFF), ct = _mm512_set1_epi64((uint32_t)t);
    const __m512i cs0 = _mm512_set1_epi64((uint32_t)stream);
    const __m512i cs1 = _mm512_set1_epi64(stream >> 32);
    /* lanes 0 .. 3 and 4 .. 7 of two vectors, interleaved */
    const __m512i first = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
    const __m512i second = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
    __m512i k0[10], k1[10];
    for (int r = 0; r < 10; r++) {
        k0[r] = _mm512_set1_epi64((uint32_t)((uint32_t)seed + r * PHILOX_W0));
        k1[r] = _mm512_set1_epi64((uint32_t)((uint32_t)(seed >> 32) + r * PHILOX_W1));
    }
    for (int64_t i = b; i < e; i += 32) {
        __m512i c0 = _mm512_add_epi64(_mm512_set1_epi64(i / 4), lane), c1 = ct, c2 = cs0,
                c3 = cs1;
        for (int r = 0; r < 10; r++) {
            const __m512i p0 = _mm512_mul_epu32(c0, m0), p1 = _mm512_mul_epu32(c2, m1);
            /* 0x96: the xor of all three */
            c0 = _mm512_ternarylogic_epi64(_mm512_srli_epi64(p1, 32), c1, k0[r], 0x96);
            c1 = p1;
            c2 = _mm512_ternarylogic_epi64(_mm512_srli_epi64(p0, 32), c3, k1[r], 0x96);
            c3 = p0;
        }
        /* words 0 and 1, and 2 and 3, of each block in one 64-bit lane, low word
           first (0xEA: (a & b) | c), then the blocks in order */
        const __m512i w01 = _mm512_ternarylogic_epi64(c0, low, _mm512_slli_epi64(c1, 32), 0xEA);
        const __m512i w23 = _mm512_ternarylogic_epi64(c2, low, _mm512_slli_epi64(c3, 32), 0xEA);
        const __m512i lo = _mm512_permutex2var_epi64(w01, first, w23);
        const __m512i hi = _mm512_permutex2var_epi64(w01, second, w23);
        const int64_t left = e - i;
        if (left >= 32) {
            _mm512_storeu_si512(w + (i - b), lo);
            _mm512_storeu_si512(w + (i - b) + 16, hi);
        } else {
            _mm512_mask_storeu_epi32(w + (i - b), left >= 16 ? 0xFFFF : (1u << left) - 1, lo);
            _mm512_mask_storeu_epi32(w + (i - b) + 16, left > 16 ? (1u << (left - 16)) - 1 : 0,
                                     hi);
        }
    }
}

#define CLONES __attribute__((target_clones("arch=x86-64-v4", "default")))

/* The coin body of a call: the AVX-512 one on a machine that has AVX-512F,
   as every machine of the v4 clone does. */
static coin_body_fn *coin_body(void) {
    return __builtin_cpu_supports("avx512f") ? coins_avx512 : coins_portable;
}
#else
#define CLONES

static coin_body_fn *coin_body(void) {
    return coins_portable;
}
#endif

/* Where numpy's pairwise sum splits a node of len elements: len/2 rounded
   down to a multiple of 8. */
static int64_t half_of(int64_t len) {
    return len / 2 - len / 2 % 8;
}

/* numpy's pairwise float sum: 8 accumulators, blocks of at most 128. */
CLONES static double pairwise(const double *a, int64_t n) {
    if (n < 8) {
        double s = 0.;
        for (int64_t i = 0; i < n; i++) s += a[i];
        return s;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++) r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) r[j] += a[i + j];
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) s += a[i];
        return s;
    }
    const int64_t n2 = half_of(n);
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* The arguments of a run call, one struct per position type T (tasep_args_i64,
   tasep_args_f64), which _native.py packs into a bytes object.  The run's own
   fields come first and the call's after them, so a run packs its own once:
   n, its coins' seed and stream, and so on.  A call's are the rows x, wind and
   disp the call steps in place, its steps t, t + 1, ..., t + k - 1, where
   their totals go, the threads it may split across and the rows it starts
   from.  A line, whose seam is 0, bounds its last particle by CAP,
   a ring by x_0 + seam.  disp receives the n displacements of the last step.
   obs holds the m sorted obstacles; only the obstacle run reads obs and m.
   totals[s] receives step t + s's total.  When x_src is not NULL, a run call
   first copies the n positions at x_src and the n windings at wind_src into x
   and wind, so one call takes a step out of place from rows it never writes.
   A coupled call, which writes its totals to its own out, takes NULL for
   totals, x_src and wind_src.  One pointer is the whole call, as each further
   argument costs a ctypes call about a fifth of a microsecond. */
#define ARGS(T, SUFFIX)                                                            \
    struct tasep_args_##SUFFIX {                                                   \
        int64_t n;                                                                 \
        uint64_t seed, stream, cut;                                                \
        const T *rr;                                                               \
        T seam, v;                                                                 \
        const double *obs;                                                         \
        int64_t m;                                                                 \
        T *x;                                                                      \
        double *wind, *disp;                                                       \
        uint64_t t;                                                                \
        int64_t k;                                                                 \
        double *totals;                                                            \
        int64_t threads;                                                           \
        const T *x_src;                                                            \
        const double *wind_src;                                                    \
    };

ARGS(int64_t, i64)
ARGS(double, f64)

/* particles per block: 4 KB of moved positions and 2 KB of coins on the stack */
#define BLOCK 512
_Static_assert(BLOCK % 32 == 0, "a block's coins must be whole groups of the AVX-512 body");

/* The coin body of a run: none when its cut of 0 or 2**32 decides every coin
   without a word, so its steps draw none. */
static coin_body_fn *drawn_by(uint64_t cut, coin_body_fn *body) {
    return cut && cut < (1ULL << 32) ? body : NULL;
}

/* Pass 1 over the len particles of one block: next is the position after the
   block's last, *jp the merge walk's obstacle index.  w holds the block's
   coins, or is NULL when the cut decides every coin (see drawn_by), so a step
   that draws no coins reads none.  It is always inlined, so it compiles for
   each clone's target, and its restrict parameters tell the compiler that the
   arrays do not overlap.  The int64 instantiation (EXACT) also adds the
   block's displacements into *sump, as integers; it wraps modulo 2**64 where
   the sum is not used (see integer_totals). */
#define PASS1(NAME, T, OBS, EXACT)                                                 \
    static inline __attribute__((always_inline)) void NAME(                        \
        int64_t len, const T *restrict x, T next, const T *restrict rr,            \
        const uint32_t *restrict w, int64_t cut, T v, const double *restrict obs,  \
        int64_t m, int64_t *jp, T *restrict moved, double *restrict disp,          \
        double *restrict wind, uint64_t *restrict sump) {                          \
        int64_t j = *jp;                                                           \
        uint64_t sum = 0;                                                          \
        for (int64_t i = 0; i < len; i++) {                                        \
            T bound = (i + 1 < len ? x[i + 1] : next) - rr[i];                     \
            /* int64 adds min(v, bound - x), as x + v may pass 2**63 */            \
            T target = EXACT && bound - x[i] < v ? bound : x[i] + v;               \
            target = target < bound ? target : bound;                              \
            if (OBS) {                                                             \
                /* searchsorted(obs, x_i, "right") as a merge walk, since          \
                   positions never decrease along the array */                     \
                while (j < m && obs[j] <= x[i]) j++;                               \
                T stop = j < m ? obs[j] : INFINITY;                                \
                target = target < stop ? target : stop;                            \
            }                                                                      \
            target = target > x[i] ? target : x[i];                                \
            /* coin select on the bits: a branch mispredicts half the time; the    \
               compare is signed, as both sides are below 2**63 */                 \
            uint64_t mask = -(uint64_t)(w ? (int64_t)w[i] < cut : cut > 0), ta, xa;\
            memcpy(&ta, &target, 8);                                               \
            memcpy(&xa, &x[i], 8);                                                 \
            ta = (ta & mask) | (xa & ~mask);                                       \
            T to;                                                                  \
            memcpy(&to, &ta, 8);                                                   \
            T d = to - x[i];                                                       \
            moved[i] = to;                                                         \
            disp[i] = (double)d;                                                   \
            wind[i] += (double)d;                                                  \
            if (EXACT)                                                             \
                sum += (uint64_t)d;                                                \
        }                                                                          \
        *jp = j;                                                                   \
        if (EXACT)                                                                 \
            *sump += sum;                                                          \
    }

/* The block [b, e) of a step of the run a on its coins w (NULL when it draws
   none): pass 1 into moved, then pass 2 back into x.  next is the position
   after particle e - 1 as the step began; *jp is the obstacle merge walk's
   index.  The displacements go to the disp row, or to scratch when it is not
   NULL, and the int64 run adds them into *sump.
   NAME##_wraps says whether a's step, once every particle has moved, wraps at
   the seam, and NAME##_unwrap moves particles [lo, hi) back by it. */
#define BLOCK_STEP(NAME, T, SUFFIX)                                                \
    static inline __attribute__((always_inline)) void NAME##_block(                \
        const struct tasep_args_##SUFFIX *a, int64_t b, int64_t e, T next,         \
        const uint32_t *restrict w, T *restrict moved, int64_t *jp,                \
        double *scratch, uint64_t *sump) {                                         \
        NAME##_pass1(e - b, a->x + b, next, a->rr + b, w, (int64_t)a->cut, a->v,   \
                     a->obs, a->m, jp, moved, scratch ? scratch : a->disp + b,     \
                     a->wind + b, sump);                                           \
        memcpy(a->x + b, moved, (e - b) * sizeof(T));                              \
    }                                                                              \
                                                                                   \
    static inline int NAME##_wraps(const struct tasep_args_##SUFFIX *a) {          \
        return a->seam && a->n && a->x[0] >= a->seam;                              \
    }                                                                              \
                                                                                   \
    static inline void NAME##_unwrap(const struct tasep_args_##SUFFIX *a,          \
                                     int64_t lo, int64_t hi) {                     \
        T *const x = a->x;                                                         \
        const T seam = a->seam;                                                    \
        for (int64_t i = lo; i < hi; i++) x[i] -= seam;                            \
    }

/* A count one thread of a split call raises and the other waits on, alone on
   its cache line. */
struct count {
    int64_t steps;
} __attribute__((aligned(64)));

/* rounds a waiting thread spins, about 18 ns each on a Xeon, before it yields:
   with 4096 a process's first split call ran about 4x slower, as its helper
   starts beside the caller and each wait spun out its rounds before the other
   thread could run (BENCH_31.json) */
#define SPINS 16

/* Raise *mine to s: the release store orders every write before it before
   the reads of a thread that sees s. */
static void say(struct count *mine, int64_t s) {
    __atomic_store_n(&mine->steps, s, __ATOMIC_RELEASE);
}

/* Wait until *theirs reaches s: spin SPINS pauses, then yield the CPU at each
   look, so that a thread sharing it with the other can let that one run. */
static void await(const struct count *theirs, int64_t s) {
    for (int spins = 0; __atomic_load_n(&theirs->steps, __ATOMIC_ACQUIRE) < s; spins++) {
        if (spins < SPINS) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
        } else {
            sched_yield();
        }
    }
}

/* Whether an int64 run of n particles and jump v takes its step totals as
   integers: each displacement lies in [0, v], so when n v <= 2**53 every sum of
   them is an integer that a double holds exactly (see the header). */
static int integer_totals(int64_t n, int64_t v) {
    return n == 0 || v <= ((int64_t)1 << 53) / n;
}

/* Steps t, t + 1, ..., t + k - 1 of the run a; step t's coins are the words
   of the counter blocks [0 .. ceil(n/4) - 1, t, stream low, stream high] under
   the key (seed low, seed high), drawn by the call's coin_body.  x and wind
   are updated in place and totals[s] receives step t + s's total
   displacement.  When cut is 0 or 2**32 every coin is decided without its
   word, so the step draws none.  The obstacle instantiation (OBS) also stops
   each particle at the first obstacle strictly beyond it.  When threads > 1
   and n > 128, the steps are split between two threads; a helper that cannot
   be started leaves the call to one.  The int64 run (EXACT) takes the totals
   as integers when integer_totals allows; it then writes the disp row on the
   call's last step only. */
#define RUN(NAME, T, SUFFIX, CAP, OBS, EXACT)                                      \
    PASS1(NAME##_pass1, T, OBS, EXACT)                                             \
    BLOCK_STEP(NAME, T, SUFFIX)                                                    \
                                                                                   \
    /* Particles [lo, hi) of step t, lo a multiple of 8, on the coins draw gives   \
       (none when it is NULL): next is the position after particle hi - 1 as       \
       the step began.  The displacements go to the disp row, or block by block    \
       to the frame's scratch when to_scratch is set; the int64 run adds them      \
       into *sump.  The block buffers live in this frame, and the obstacle walk    \
       starts at obstacle 0: it reaches x[lo]'s index on its way. */               \
    CLONES __attribute__((noinline)) static void NAME##_part(                      \
        const struct tasep_args_##SUFFIX *a, uint64_t t, int64_t lo, int64_t hi,   \
        T next, coin_body_fn *draw, int to_scratch, uint64_t *sump) {              \
        /* a local copy, which no store through x can change */                    \
        const struct tasep_args_##SUFFIX run = *a;                                 \
        const T *x = run.x;                                                        \
        int64_t j = 0;                                                             \
        T moved[BLOCK] __attribute__((aligned(64)));                               \
        uint32_t w[BLOCK] __attribute__((aligned(64)));                            \
        double scratch[BLOCK] __attribute__((aligned(64)));                        \
        for (int64_t b = lo; b < hi; b += BLOCK) {                                 \
            const int64_t e = hi - b < BLOCK ? hi : b + BLOCK;                     \
            if (draw)                                                              \
                draw(w, b, e, t, run.seed, run.stream);                            \
            NAME##_block(&run, b, e, e < hi ? x[e] : next, draw ? w : NULL, moved, \
                         &j, to_scratch ? scratch : NULL, sump);                   \
        }                                                                          \
    }                                                                              \
                                                                                   \
    /* What one thread of a split call writes for the other as it ends step s,     \
       s + 1 being its count of steps whose values are out. */                     \
    struct NAME##_post {                                                           \
        struct count out;                                                          \
        T first;     /* x[0] or x[c], its first, as step s + 1 begins */           \
        int wrap;    /* thread 0: whether step s wrapped at the seam */            \
        double part; /* thread 0: its share of step s's total */                   \
    } __attribute__((aligned(64)));                                                \
                                                                                   \
    struct NAME##_team {                                                           \
        const struct tasep_args_##SUFFIX *a;                                       \
        coin_body_fn *draw; /* the call's coin body, NULL when it draws none */    \
        T x0;               /* x[0] as the call begins: the helper's first bound */\
        struct NAME##_post post[2];                                                \
    };                                                                             \
                                                                                   \
    /* Thread me's share of every step of a split call: thread 0 moves the         \
       particles [0, c) and thread 1 [c, n), c = half_of(n), and thread 1 writes   \
       the step totals. */                                                         \
    CLONES __attribute__((noinline)) static void NAME##_share(                     \
        struct NAME##_team *tm, const int me) {                                    \
        const struct tasep_args_##SUFFIX *a = tm->a;                               \
        const int64_t n = a->n, k = a->k, c = half_of(n);                          \
        const T *x = a->x;                                                         \
        struct NAME##_post *mine = &tm->post[me], *theirs = &tm->post[!me];        \
        coin_body_fn *const draw = tm->draw;                                       \
        const int exact = EXACT && integer_totals(n, (int64_t)a->v);               \
        T x0 = tm->x0; /* the helper's: x[0] as step s begins */                   \
        for (int64_t s = 0; s < k; s++) {                                          \
            const uint64_t t = a->t + s;                                           \
            const int into = exact && s + 1 < k;                                   \
            uint64_t sum = 0;                                                      \
            if (me == 0) {                                                         \
                NAME##_part(a, t, 0, c - 8, x[c - 8], draw, into, &sum);           \
                await(&theirs->out, s);                                            \
                NAME##_part(a, t, c - 8, c, theirs->first, draw, into, &sum);      \
                mine->part = exact ? (double)(int64_t)sum : pairwise(a->disp, c);  \
                if ((mine->wrap = NAME##_wraps(a)))                                \
                    NAME##_unwrap(a, 0, c);                                        \
            } else {                                                               \
                NAME##_part(a, t, c, n, a->seam ? x0 + a->seam : (CAP), draw, into,\
                            &sum);                                                 \
                const double part =                                                \
                    exact ? (double)(int64_t)sum : pairwise(a->disp + c, n - c);   \
                await(&theirs->out, s + 1);                                        \
                x0 = theirs->first;                                                \
                a->totals[s] = 0. + (theirs->part + part);                         \
                if (theirs->wrap)                                                  \
                    NAME##_unwrap(a, c, n);                                        \
            }                                                                      \
            mine->first = x[me ? c : 0];                                           \
            say(&mine->out, s + 1);                                                \
        }                                                                          \
    }                                                                              \
                                                                                   \
    static void *NAME##_helper(void *tm) {                                         \
        NAME##_share(tm, 1);                                                       \
        return NULL;                                                               \
    }                                                                              \
                                                                                   \
    /* The steps of a call split between this thread and a helper; 0 when the      \
       helper cannot be started. */                                                \
    __attribute__((noinline)) static int NAME##_split(                             \
        const struct tasep_args_##SUFFIX *a, coin_body_fn *draw) {                 \
        struct NAME##_team tm = {.a = a, .draw = draw, .x0 = a->x[0],              \
                                 .post[1].first = a->x[half_of(a->n)]};            \
        pthread_t helper;                                                          \
        if (pthread_create(&helper, NULL, NAME##_helper, &tm))                     \
            return 0;                                                              \
        NAME##_share(&tm, 0);                                                      \
        pthread_join(helper, NULL);                                                \
        return 1;                                                                  \
    }                                                                              \
                                                                                   \
    CLONES void NAME(const struct tasep_args_##SUFFIX *a) {                        \
        const int64_t n = a->n, k = a->k;                                          \
        double *totals = a->totals;                                                \
        uint64_t t = a->t;                                                         \
        if (a->x_src) {                                                            \
            memcpy(a->x, a->x_src, n * sizeof(T));                                 \
            memcpy(a->wind, a->wind_src, n * sizeof(double));                      \
        }                                                                          \
        coin_body_fn *const draw = drawn_by(a->cut, coin_body());                  \
        if (a->threads > 1 && n > 128 && NAME##_split(a, draw))                    \
            return;                                                                \
        const int exact = EXACT && integer_totals(n, (int64_t)a->v);               \
        for (int64_t s = 0; s < k; s++, t++) {                                     \
            uint64_t sum = 0;                                                      \
            NAME##_part(a, t, 0, n, n && a->seam ? a->x[0] + a->seam : (CAP), draw,\
                        exact && s + 1 < k, &sum);                                 \
            totals[s] = 0. + (exact ? (double)(int64_t)sum : pairwise(a->disp, n));\
            if (NAME##_wraps(a))                                                   \
                NAME##_unwrap(a, 0, n);                                            \
        }                                                                          \
    }

RUN(tasep_run_i64, int64_t, i64, INT64_MAX / 4, 0, 1)
RUN(tasep_run_f64, double, f64, INFINITY, 0, 0)
RUN(tasep_run_f64_obstacles, double, f64, INFINITY, 1, 0)

/* Fold d = EXPR of each i in [lo, hi) into m, the bits of the largest so far.
   Every d is a fabs, so never negative, and the bits of doubles that are not
   negative order as the doubles do, with a NaN above infinity: the loop is an
   integer max, which the compiler runs in SIMD lanes. */
#define FOLD(m, lo, hi, EXPR)                                                      \
    for (int64_t i = (lo); i < (hi); i++) {                                        \
        const double d_ = (EXPR);                                                  \
        uint64_t u_;                                                               \
        memcpy(&u_, &d_, 8);                                                       \
        m = u_ > m ? u_ : m;                                                       \
    }

/* The double of a folded maximum's bits, and the quiet NaN numpy's max gives
   when a term is NaN (its SIMD loops return that one, whatever the terms'
   payloads) for the bits above +infinity's. */
static double unfold(uint64_t m) {
    double d;
    memcpy(&d, &m, 8);
    return m > 0x7FF0000000000000ULL ? NAN : d;
}

/* Steps t, t + 1, ..., t + k - 1 (a's t and k) of the runs a and b of n
   particles each, whose positions are of types TA and TB, both on a's coins:
   each block's words are drawn once, for both sides that need them.  out is 4
   rows of k: a's and b's step totals, then the per-step maxima over a's gaps
   of |gap_b - scale gap_a| and over all i of |disp_b - scale disp_a|; a has n
   gaps on a ring and n - 1 on a line.  NAME##_gap is |gap_b - scale gap_a| of a
   particle at xa and xb with successors sa and sb. */
#define COUPLED(NAME, A, B, TA, TB, CAP_A, CAP_B)                                  \
    static inline __attribute__((always_inline)) double NAME##_gap(                \
        TA sa, TA xa, TA rra, TB sb, TB xb, TB rrb, double scale) {                \
        const TA ga = (sa - rra) - xa;                                             \
        const TB gb = (sb - rrb) - xb;                                             \
        return fabs((double)gb - scale * (double)ga);                              \
    }                                                                              \
                                                                                   \
    CLONES void NAME(const struct tasep_args_##A *a_args,                          \
                     const struct tasep_args_##B *b_args, double scale,            \
                     double *out) {                                                \
        /* local copies, which no store through x can change */                    \
        const struct tasep_args_##A ra = *a_args;                                  \
        const struct tasep_args_##B rb = *b_args;                                  \
        const struct tasep_args_##A *a = &ra;                                      \
        const struct tasep_args_##B *b = &rb;                                      \
        const int64_t n = a->n, k = a->k;                                          \
        uint64_t t = a->t;                                                         \
        coin_body_fn *const body = coin_body();                                    \
        coin_body_fn *const draw_a = drawn_by(a->cut, body);                       \
        coin_body_fn *const draw_b = drawn_by(b->cut, body);                       \
        const TA *xa = a->x, *rra = a->rr;                                         \
        const TB *xb = b->x, *rrb = b->rr;                                         \
        const double *da = a->disp, *db = b->disp;                                 \
        TA moved_a[BLOCK] __attribute__((aligned(64)));                            \
        TB moved_b[BLOCK] __attribute__((aligned(64)));                            \
        uint32_t w[BLOCK] __attribute__((aligned(64)));                            \
        for (int64_t s = 0; s < k; s++, t++) {                                     \
            const TA next_a = n && a->seam ? xa[0] + a->seam : (CAP_A);            \
            const TB next_b = n && b->seam ? xb[0] + b->seam : (CAP_B);            \
            int64_t ja = 0, jb = 0;                                                \
            uint64_t gm = 0, dm = 0, unused = 0; /* pairwise takes the totals */   \
            for (int64_t lo = 0; lo < n; lo += BLOCK) {                            \
                const int64_t e = n - lo < BLOCK ? n : lo + BLOCK;                 \
                if (draw_a || draw_b)                                              \
                    body(w, lo, e, t, a->seed, a->stream);                         \
                tasep_run_##A##_block(a, lo, e, e < n ? xa[e] : next_a,            \
                                      draw_a ? w : NULL, moved_a, &ja, NULL,       \
                                      &unused);                                    \
                tasep_run_##B##_block(b, lo, e, e < n ? xb[e] : next_b,            \
                                      draw_b ? w : NULL, moved_b, &jb, NULL,       \
                                      &unused);                                    \
            }                                                                      \
            if (tasep_run_##A##_wraps(a))                                          \
                tasep_run_##A##_unwrap(a, 0, n);                                   \
            if (tasep_run_##B##_wraps(b))                                          \
                tasep_run_##B##_unwrap(b, 0, n);                                   \
            FOLD(dm, 0, n, fabs(db[i] - scale * da[i]));                           \
            FOLD(gm, 0, n - 1,                                                     \
                 NAME##_gap(xa[i + 1], xa[i], rra[i], xb[i + 1], xb[i], rrb[i],    \
                            scale));                                               \
            /* the last particle's successor: x[0] + seam on a ring */             \
            const TA sa = n && a->seam ? xa[0] + a->seam : (CAP_A);                \
            const TB sb = n && b->seam ? xb[0] + b->seam : (CAP_B);                \
            if (n && a->seam)                                                      \
                FOLD(gm, n - 1, n,                                                 \
                     NAME##_gap(sa, xa[i], rra[i], sb, xb[i], rrb[i], scale));     \
            out[s] = 0. + pairwise(da, n);                                         \
            out[k + s] = 0. + pairwise(db, n);                                     \
            out[2 * k + s] = unfold(gm);                                           \
            out[3 * k + s] = unfold(dm);                                           \
        }                                                                          \
    }

COUPLED(tasep_coupled_i64_i64, i64, i64, int64_t, int64_t, INT64_MAX / 4, INT64_MAX / 4)
COUPLED(tasep_coupled_i64_f64, i64, f64, int64_t, double, INT64_MAX / 4, INFINITY)
COUPLED(tasep_coupled_f64_i64, f64, i64, double, int64_t, INFINITY, INT64_MAX / 4)
COUPLED(tasep_coupled_f64_f64, f64, f64, double, double, INFINITY, INFINITY)
