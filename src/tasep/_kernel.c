/* The fused run kernel of tasep.dynamics: k synchronous steps in one call.

   Each step repeats _Stepper.advance bit for bit: numpy's Philox4x64-10 coins,
   the successor bound, the obstacle stop, the never-left clamp, the 53-bit coin
   compare, the displacement, the winding, the seam wrap and numpy's sum of the
   step's displacements.  The float path keeps numpy's operation order, so it must be
   built with -ffp-contract=off and without -ffast-math.

   A step runs through the particles in blocks of BLOCK.  Each block draws its
   words and takes two passes.  Pass 1 reads only positions no pass 2 has
   written yet (the block's and the first of the next block) and writes the
   moved positions, the displacements and the winding through pointers that do
   not alias, so the compiler runs it in SIMD lanes.  Pass 2 copies the moved
   positions back into the block's x, wrapping them at the seam when the first
   particle's moved position passes it.  The moved positions are stored rather
   than rebuilt as x + disp, which is not exact in float64.  A block's words
   and moved positions stay in L1 cache, in the run function's own stack
   buffers of BLOCK entries.

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
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

/* Philox4x64-10 (Salmon et al., SC'11) of the counter block [b + 1, t, 0, 0]
   into w[0 .. 3]. */
static void philox(uint64_t *w, uint64_t b, uint64_t t, uint64_t k0, uint64_t k1) {
    uint64_t c0 = b + 1, c1 = t, c2 = 0, c3 = 0;
    for (int r = 0; r < 10; r++) {
        if (r) {
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        u128 p0 = (u128)0xD2E7470EE14C6C93ULL * c0;
        u128 p1 = (u128)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    w[0] = c0;
    w[1] = c1;
    w[2] = c2;
    w[3] = c3;
}

#if defined(__x86_64__) && !defined(TASEP_NO_CLONES)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define CLONES
#endif

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
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* The arguments fixed for a run, one struct per position type T (tasep_args_i64,
   tasep_args_f64); _native.py mirrors them as ctypes structures.  A line
   (ring == 0) bounds its last particle by CAP, a ring by x_0 + seam.  disp
   receives the n displacements of the last step.  obs holds the m sorted
   obstacles; only the obstacle run reads obs and m. */
#define ARGS(T, SUFFIX)                                                            \
    struct tasep_args_##SUFFIX {                                                   \
        int64_t n;                                                                 \
        uint64_t k0, k1, cut;                                                      \
        T *x;                                                                      \
        const T *rr;                                                               \
        int64_t ring;                                                              \
        T seam, v;                                                                 \
        double *wind, *disp;                                                       \
        const double *obs;                                                         \
        int64_t m;                                                                 \
    };

ARGS(int64_t, i64)
ARGS(double, f64)

/* particles per block: 4 KB each of moved positions and words on the stack */
#define BLOCK 512
_Static_assert(BLOCK % 4 == 0, "a block's words must be whole 4-word Philox blocks");

/* Pass 1 over the len particles of one block: next is the position after the
   block's last, *jp the merge walk's obstacle index.  It is always inlined, so
   it compiles for each clone's target, and its restrict parameters tell the
   compiler that the arrays do not overlap. */
#define PASS1(NAME, T, OBS)                                                        \
    static inline __attribute__((always_inline)) void NAME(                        \
        int64_t len, const T *restrict x, T next, const T *restrict rr,            \
        const uint64_t *restrict w, int64_t cut, T v, const double *restrict obs,  \
        int64_t m, int64_t *jp, T *restrict moved, double *restrict disp,          \
        double *restrict wind) {                                                   \
        int64_t j = *jp;                                                           \
        for (int64_t i = 0; i < len; i++) {                                        \
            T bound = (i + 1 < len ? x[i + 1] : next) - rr[i];                     \
            T target = x[i] + v;                                                   \
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
            uint64_t mask = -(uint64_t)((int64_t)(w[i] >> 11) < cut), ta, xa;      \
            memcpy(&ta, &target, 8);                                               \
            memcpy(&xa, &x[i], 8);                                                 \
            ta = (ta & mask) | (xa & ~mask);                                       \
            T to;                                                                  \
            memcpy(&to, &ta, 8);                                                   \
            T d = to - x[i];                                                       \
            moved[i] = to;                                                         \
            disp[i] = (double)d;                                                   \
            wind[i] += (double)d;                                                  \
        }                                                                          \
        *jp = j;                                                                   \
    }

/* Steps t, t + 1, ..., t + k - 1 of the run a under the key (k0, k1); step t's
   words are those of the counter blocks [1 .. ceil(n/4), t, 0, 0].  x and wind
   are updated in place and totals[s] receives step t + s's total displacement.
   When cut is 0 or 2**53 every coin is decided without its word, so the step
   draws none.  The obstacle instantiation (OBS) also stops each particle at the
   first obstacle strictly beyond it.  When xs and ds are given, row s of each
   receives the positions and the displacements after step t + s. */
#define RUN(NAME, T, SUFFIX, CAP, OBS)                                             \
    PASS1(NAME##_pass1, T, OBS)                                                    \
    CLONES void NAME(const struct tasep_args_##SUFFIX *a, uint64_t t, int64_t k,   \
                     double *totals, T *xs, double *ds) {                          \
        const int64_t n = a->n, m = a->m, cut = (int64_t)a->cut;                   \
        const uint64_t k0 = a->k0, k1 = a->k1;                                     \
        const T seam = a->seam, v = a->v, *rr = a->rr;                             \
        const double *obs = a->obs;                                                \
        const int ring = a->ring != 0, draw = cut && cut < (1LL << 53);            \
        T *x = a->x, moved[BLOCK] __attribute__((aligned(64)));                    \
        double *wind = a->wind, *disp = a->disp;                                   \
        uint64_t w[BLOCK] __attribute__((aligned(64)));                            \
        for (int64_t s = 0; s < k; s++, t++) {                                     \
            const T last = n && ring ? x[0] + seam : (CAP);                        \
            int64_t j = 0;                                                         \
            int wrap = 0;                                                          \
            for (int64_t b = 0; b < n; b += BLOCK) {                               \
                const int64_t e = n - b < BLOCK ? n : b + BLOCK;                   \
                if (draw)                                                          \
                    for (int64_t i = b; i < e; i += 4)                             \
                        philox(w + (i - b), i / 4, t, k0, k1);                     \
                NAME##_pass1(e - b, x + b, e < n ? x[e] : last, rr + b, w, cut, v, \
                             obs, m, &j, moved, disp + b, wind + b);               \
                if (b == 0)                                                        \
                    wrap = ring && moved[0] >= seam;                               \
                if (wrap)                                                          \
                    for (int64_t i = b; i < e; i++) x[i] = moved[i - b] - seam;    \
                else                                                               \
                    memcpy(x + b, moved, (e - b) * sizeof(T));                     \
            }                                                                      \
            totals[s] = 0. + pairwise(disp, n);                                    \
            if (xs) {                                                              \
                memcpy(xs + s * n, x, n * sizeof(T));                              \
                memcpy(ds + s * n, disp, n * sizeof(double));                      \
            }                                                                      \
        }                                                                          \
    }

RUN(tasep_run_i64, int64_t, i64, INT64_MAX / 4, 0)
RUN(tasep_run_f64, double, f64, INFINITY, 0)
RUN(tasep_run_f64_obstacles, double, f64, INFINITY, 1)
