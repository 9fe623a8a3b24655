/* A ThreadSanitizer harness for the split calls of the fused kernel: each run
   function steps rings and lines in calls forced onto two threads, and their
   positions, windings and step totals must be the bytes of a one-thread call of
   the same steps.

   tests/test_native.py builds and runs it; by hand, from the repository root:

       gcc -O1 -g -fsanitize=thread -ffp-contract=off -pthread -DTASEP_NO_CLONES \
           -o tsan_split tests/tsan_split.c -lm && ./tsan_split

   (target clones are left out, as their start-up code crashed under
   ThreadSanitizer with gcc 12.2).  It prints a line for each call whose bytes
   differ and exits 1 if there is one; ThreadSanitizer reports a data race on
   stderr and makes the exit status 66. */
#include "../src/tasep/_kernel.c"

#include <stdio.h>
#include <stdlib.h>

#define STEPS 64
#define T0 5 /* a call's first step */
#define SEED 0x9E3779B97F4A7C15ULL
#define STREAM 0x0123456789ABCDEFULL
#define SCALE 1.1 /* the length of a unit of the float64 runs */

enum kind { I64, F64, OBSTACLES };
static const char *const KIND[] = {"int64", "float64", "float64 obstacles"};

static uint64_t lcg = 1;

/* a pseudo-random gap of 0 .. 3 units */
static int64_t gap(void) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return (int64_t)(lcg >> 62);
}

/* Steps T0 .. T0 + STEPS - 1 of one run on `threads` threads from the positions u
   (in units; the bound term is 1 unit, 0 for the obstacle run), on a ring of L
   units when ring is 1; the bytes of its positions, windings and totals go to out. */
static void call(enum kind kind, int64_t n, int64_t ring, int64_t L, uint64_t cut,
                 const int64_t *u, const double *obs, int64_t m, int64_t threads,
                 unsigned char *out) {
    int64_t *xi = malloc(n * sizeof *xi), *rri = malloc(n * sizeof *rri);
    double *xf = malloc(n * sizeof *xf), *rrf = malloc(n * sizeof *rrf);
    double *wind = calloc(n, sizeof *wind), *disp = calloc(n, sizeof *disp);
    double totals[STEPS];
    for (int64_t i = 0; i < n; i++) {
        xi[i] = u[i];
        rri[i] = 1;
        xf[i] = SCALE * u[i];
        rrf[i] = kind == OBSTACLES ? 0. : SCALE;
    }
    if (kind == I64) {
        const struct tasep_args_i64 a = {
            .n = n, .seed = SEED, .stream = STREAM, .cut = cut, .rr = rri, .ring = ring,
            .seam = L, .v = 2, .x = xi, .wind = wind, .disp = disp, .t = T0, .k = STEPS,
            .totals = totals, .threads = threads};
        tasep_run_i64(&a);
        memcpy(out, xi, n * 8);
    } else {
        const struct tasep_args_f64 a = {
            .n = n, .seed = SEED, .stream = STREAM, .cut = cut, .rr = rrf, .ring = ring,
            .seam = SCALE * L, .v = 1.5, .obs = obs, .m = m, .x = xf, .wind = wind,
            .disp = disp, .t = T0, .k = STEPS, .totals = totals, .threads = threads};
        (kind == F64 ? tasep_run_f64 : tasep_run_f64_obstacles)(&a);
        memcpy(out, xf, n * 8);
    }
    memcpy(out + n * 8, wind, n * 8);
    memcpy(out + n * 16, totals, sizeof totals);
    free(xi);
    free(rri);
    free(xf);
    free(rrf);
    free(wind);
    free(disp);
}

/* One run on one thread and split across two: 1 when their bytes differ. */
static int differs(enum kind kind, int64_t n, int64_t ring, uint64_t cut) {
    int64_t *u = malloc(n * sizeof *u), *g = malloc(n * sizeof *g), L = 0;
    for (int64_t i = 0; i < n; i++)
        L += 1 + (g[i] = gap());
    /* on a ring particle 0 starts 3 units below the seam, which it crosses
       within the call; a line starts at 0 */
    u[0] = ring ? L - 3 : 0;
    for (int64_t i = 1; i < n; i++)
        u[i] = u[i - 1] + 1 + g[i - 1];
    /* obstacles every 7 units from 0.5 on: on a ring over one window [0, L),
       tiled over [0, 3L) as dynamics tiles them, and on a line past every
       position the call can reach */
    const int64_t span = ring ? L : u[n - 1] + 2 * STEPS + 8;
    const int64_t count = (span + 6) / 7;
    double *obs = malloc(3 * count * sizeof *obs);
    int64_t m = 0;
    for (int64_t copy = 0; copy < (ring ? 3 : 1); copy++)
        for (int64_t j = 0; j < count; j++)
            obs[m++] = SCALE * (7 * j + 0.5 + copy * L);
    const size_t bytes = n * 16 + STEPS * sizeof(double);
    unsigned char *one = malloc(bytes), *two = malloc(bytes);
    call(kind, n, ring, L, cut, u, obs, kind == OBSTACLES ? m : 0, 1, one);
    call(kind, n, ring, L, cut, u, obs, kind == OBSTACLES ? m : 0, 2, two);
    const int bad = memcmp(one, two, bytes) != 0;
    if (bad)
        printf("split call differs: %s %s, n = %lld, cut = %llu\n", KIND[kind],
               ring ? "ring" : "line", (long long)n, (unsigned long long)cut);
    free(u);
    free(g);
    free(obs);
    free(one);
    free(two);
    return bad;
}

int main(void) {
    /* the smallest split, a split c with n - c = BLOCK, with c - 8 = BLOCK and with
       c - 8 > BLOCK, and one past the split rule's particle count */
    static const int64_t sizes[] = {136, 1024, 1040, 1056, 4097};
    /* p = 1/2, and p = 1, which draws no coins */
    static const uint64_t cuts[] = {1ULL << 31, 1ULL << 32};
    int bad = 0;
    for (int kind = I64; kind <= OBSTACLES; kind++)
        for (int64_t ring = 0; ring <= 1; ring++)
            for (size_t i = 0; i < sizeof sizes / sizeof *sizes; i++)
                for (size_t j = 0; j < 2; j++)
                    bad |= differs(kind, sizes[i], ring, cuts[j]);
    return bad;
}
