/* The fused run kernel of tasep.dynamics: k synchronous steps in one call.

   Each step repeats _Stepper.advance bit for bit: numpy's Philox4x64-10 coins,
   the successor bound, the never-left clamp, the 53-bit coin compare, the
   displacement, the winding, the seam wrap and numpy's sum of the step's
   displacements.  The float path keeps numpy's operation order, so it must be
   built with -ffp-contract=off and without -ffast-math. */
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

/* numpy's pairwise float sum: 8 accumulators, blocks of at most 128. */
static double pairwise(const double *a, int64_t n) {
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

/* Steps t, t + 1, ..., t + k - 1 of n particles under the key (k0, k1); step
   t's words are those of the counter blocks [1 .. ceil(n/4), t, 0, 0].  x and
   wind are updated in place and totals[s] receives step t + s's total
   displacement.  scratch holds 2n + 4 doubles: the last step's displacements,
   then its words.  A line (ring == 0) bounds its last particle by CAP, a ring
   by x_0 + seam.  The arguments before t are fixed for a run. */
#define RUN(NAME, T, CAP)                                                          \
    void NAME(int64_t n, uint64_t k0, uint64_t k1, uint64_t cut, T *x,           \
              const T *rr, int ring, T seam, T v, double *wind, double *scratch, \
              uint64_t t, int64_t k, double *totals) {                           \
        double *disp = scratch;                                                  \
        uint64_t *w = (uint64_t *)(scratch + n);                                 \
        for (int64_t s = 0; s < k; s++, t++) {                                   \
            for (int64_t i = 0; i < n; i += 4) philox(w + i, i / 4, t, k0, k1);  \
            T last = n && ring ? x[0] + seam : (CAP);                            \
            for (int64_t i = 0; i < n; i++) {                                    \
                T bound = (i + 1 < n ? x[i + 1] : last) - rr[i];                 \
                T target = x[i] + v;                                             \
                target = target < bound ? target : bound;                        \
                target = target > x[i] ? target : x[i];                          \
                /* coin select on the bits: a branch mispredicts half the time */ \
                uint64_t m = -(uint64_t)((w[i] >> 11) < cut), a, b;              \
                memcpy(&a, &target, 8);                                          \
                memcpy(&b, &x[i], 8);                                            \
                a = (a & m) | (b & ~m);                                          \
                T moved;                                                         \
                memcpy(&moved, &a, 8);                                           \
                T d = moved - x[i];                                              \
                disp[i] = (double)d;                                             \
                wind[i] += (double)d;                                            \
                x[i] = moved;                                                    \
            }                                                                    \
            if (ring && n && x[0] >= seam)                                       \
                for (int64_t i = 0; i < n; i++) x[i] -= seam;                    \
            totals[s] = 0. + pairwise(disp, n);                                  \
        }                                                                        \
    }

RUN(tasep_run_i64, int64_t, INT64_MAX / 4)
RUN(tasep_run_f64, double, INFINITY)
