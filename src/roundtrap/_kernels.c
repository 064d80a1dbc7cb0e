/* Compiled twins of roundtrap.schemes' kernels.
 *
 * rt_euler_b64, rt_midpoint_b64 and rt_rk3_b64 are _euler_native,
 * _midpoint_native and _rk3_native: the same binary64 operations in the
 * same order, each followed by its rounding to p bits by a Veltkamp split,
 * and the same range guard.  rt_midpoint_b128 is _midpoint_fused at
 * p = 113: IEEE binary128 has a 113-bit significand and rounds every
 * operation once, to nearest with ties to even, as the emulator does, for
 * as long as no value leaves the normal range, which the same guard keeps.
 *
 * Each follows a sampling plan: at, n ascending step indices.  It steps
 * from the state in st (step 0) to each index in its own loop and writes
 * the state there to out, x then y: two doubles each in binary64, two
 * binary128 values each in binary128.  It stops at the end of the plan or
 * before the first step whose result leaves the state window, leaves the
 * last in-range state in st and the steps done in *steps, and returns the
 * samples written.  So a channel is one call, whatever its sampling.
 * The library is built with -ffp-contract=off (a*b + c must not become one
 * fused multiply-add) and without -ffast-math (u - (u - v) must not be
 * simplified).  The Python loader runs a known-answer plan of mixed gaps
 * against the Python kernels before using it.
 */

#include <float.h>
#include <stdint.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "binary64 operations must round to double, not to a wider format"
#endif

typedef _Float128 quad;
typedef unsigned __int128 quad_bits;
_Static_assert(sizeof(quad) == 16 && sizeof(quad_bits) == 16, "binary128 is 16 bytes");

/* nonzero state components lie in [2**-400, 2**400], as in schemes */
static int in_window(double v)
{
    double a = v < 0 ? -v : v;
    return v == 0 || (a >= 0x1p-400 && a <= 0x1p400);
}

static double split(double v, double C)
{
    double u = v * C;
    return u - (u - v);
}

/* st = {x, y}; c = {-a, b, dt}; C = 2**(53-p) + 1 */
int64_t rt_euler_b64(double *st, const double *c, double C,
                     const int64_t *at, int64_t n, double *out, int64_t *steps)
{
    double x = st[0], y = st[1];
    const double na = c[0], b = c[1], d = c[2];
    int64_t i = 0, j;
    for (j = 0; j < n; j++) {
        for (; i < at[j]; i++) {
            double t1 = split(na * y, C);
            double t2 = split(d * t1, C);
            double nx = split(x + t2, C);
            double u1 = split(b * x, C);
            double u2 = split(d * u1, C);
            double ny = split(y + u2, C);
            if (!(in_window(nx) && in_window(ny)))
                goto stop;
            x = nx;
            y = ny;
        }
        out[2 * j] = x;
        out[2 * j + 1] = y;
    }
stop:
    st[0] = x;
    st[1] = y;
    *steps = i;
    return j;
}

/* st = {x, y}; c = {1-k, 1+k, a*dt, b*dt}; C = 2**(53-p) + 1 */
int64_t rt_midpoint_b64(double *st, const double *c, double C,
                        const int64_t *at, int64_t n, double *out, int64_t *steps)
{
    double x = st[0], y = st[1];
    const double om = c[0], op = c[1], ad = c[2], bd = c[3];
    int64_t i = 0, j;
    for (j = 0; j < n; j++) {
        for (; i < at[j]; i++) {
            double u1 = split(x * om, C);
            double u2 = split(ad * y, C);
            double nx = split(u1 - u2, C);
            double v1 = split(y * om, C);
            double v2 = split(bd * x, C);
            double ny = split(v1 + v2, C);
            double qx = split(nx / op, C);
            double qy = split(ny / op, C);
            if (!(in_window(qx) && in_window(qy)))
                goto stop;
            x = qx;
            y = qy;
        }
        out[2 * j] = x;
        out[2 * j + 1] = y;
    }
stop:
    st[0] = x;
    st[1] = y;
    *steps = i;
    return j;
}

/* st = {x, y}; c = {-a, b, dt, dt/2, 2*dt, dt/6}; C = 2**(53-p) + 1 */
int64_t rt_rk3_b64(double *st, const double *c, double C,
                   const int64_t *at, int64_t n, double *out, int64_t *steps)
{
    double x = st[0], y = st[1];
    const double na = c[0], b = c[1], d = c[2], h = c[3], d2 = c[4], d6 = c[5];
    int64_t i = 0, j;
    for (j = 0; j < n; j++) {
        for (; i < at[j]; i++) {
            double k1x = split(na * y, C);
            double k1y = split(b * x, C);
            double x2 = split(x + split(h * k1x, C), C);
            double y2 = split(y + split(h * k1y, C), C);
            double k2x = split(na * y2, C);
            double k2y = split(b * x2, C);
            double x3 = split(x - split(d * k1x, C), C);
            x3 = split(x3 + split(d2 * k2x, C), C);
            double y3 = split(y - split(d * k1y, C), C);
            y3 = split(y3 + split(d2 * k2y, C), C);
            double k3x = split(na * y3, C);
            double k3y = split(b * x3, C);
            /* x + dt/6 * ((k1 + 4 k2) + k3); 4*k2 is an exact scaling */
            double s = split(split(k1x + 4.0 * k2x, C) + k3x, C);
            double nx = split(x + split(d6 * s, C), C);
            s = split(split(k1y + 4.0 * k2y, C) + k3y, C);
            double ny = split(y + split(d6 * s, C), C);
            if (!(in_window(nx) && in_window(ny)))
                goto stop;
            x = nx;
            y = ny;
        }
        out[2 * j] = x;
        out[2 * j + 1] = y;
    }
stop:
    st[0] = x;
    st[1] = y;
    *steps = i;
    return j;
}

/* Binary128 values cross the interface as their IEEE bits, two 64-bit
 * words each, low word first. */
static quad get(const uint64_t *w)
{
    quad_bits b = (quad_bits)w[1] << 64 | w[0];
    quad v;
    memcpy(&v, &b, sizeof v);
    return v;
}

static void put(uint64_t *w, quad v)
{
    quad_bits b;
    memcpy(&b, &v, sizeof b);
    w[0] = (uint64_t)b;
    w[1] = (uint64_t)(b >> 64);
}

static int in_window_q(quad v)
{
    quad a = v < 0 ? -v : v;
    return v == 0 || (a >= (quad)0x1p-400 && a <= (quad)0x1p400);
}

/* st = {x, y} and c = {1-k, 1+k, a*dt, b*dt}, as binary128 bits */
int64_t rt_midpoint_b128(uint64_t *st, const uint64_t *c,
                         const int64_t *at, int64_t n, uint64_t *out, int64_t *steps)
{
    quad x = get(st), y = get(st + 2);
    const quad om = get(c), op = get(c + 2), ad = get(c + 4), bd = get(c + 6);
    int64_t i = 0, j;
    for (j = 0; j < n; j++) {
        for (; i < at[j]; i++) {
            quad u1 = x * om;
            quad u2 = ad * y;
            quad nx = u1 - u2;
            quad v1 = y * om;
            quad v2 = bd * x;
            quad ny = v1 + v2;
            quad qx = nx / op;
            quad qy = ny / op;
            if (!(in_window_q(qx) && in_window_q(qy)))
                goto stop;
            x = qx;
            y = qy;
        }
        put(out + 4 * j, x);
        put(out + 4 * j + 2, y);
    }
stop:
    put(st, x);
    put(st + 2, y);
    *steps = i;
    return j;
}
