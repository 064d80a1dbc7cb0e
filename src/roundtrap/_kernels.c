/* Compiled twins of roundtrap.schemes' midpoint kernels.
 *
 * rt_midpoint_b64 is _midpoint_native: the same binary64 operations in the
 * same order, each followed by its rounding to p bits by a Veltkamp split,
 * and the same range guard.  rt_midpoint_b128 is _midpoint_fused at
 * p = 113: IEEE binary128 has a 113-bit significand and rounds every
 * operation once, to nearest with ties to even, as the emulator does, for
 * as long as no value leaves the normal range, which the same guard keeps.
 *
 * Both advance the state in st up to k steps and return the steps done;
 * they stop before the first step whose result leaves the state window,
 * leaving the last in-range state in st.  The library is built with
 * -ffp-contract=off (a*b + c must not become one fused multiply-add) and
 * without -ffast-math (u - (u - v) must not be simplified).  The Python
 * loader runs known-answer steps against the Python kernels before using
 * it.
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

/* st = {x, y}; c = {1-k, 1+k, a*dt, b*dt}; C = 2**(53-p) + 1 */
int64_t rt_midpoint_b64(double *st, const double *c, int64_t k, double C)
{
    double x = st[0], y = st[1];
    const double om = c[0], op = c[1], ad = c[2], bd = c[3];
    int64_t j;
    for (j = 0; j < k; j++) {
        double u1 = split(x * om, C);
        double u2 = split(ad * y, C);
        double nx = split(u1 - u2, C);
        double v1 = split(y * om, C);
        double v2 = split(bd * x, C);
        double ny = split(v1 + v2, C);
        double qx = split(nx / op, C);
        double qy = split(ny / op, C);
        if (!(in_window(qx) && in_window(qy)))
            break;
        x = qx;
        y = qy;
    }
    st[0] = x;
    st[1] = y;
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
int64_t rt_midpoint_b128(uint64_t *st, const uint64_t *c, int64_t k)
{
    quad x = get(st), y = get(st + 2);
    const quad om = get(c), op = get(c + 2), ad = get(c + 4), bd = get(c + 6);
    int64_t j;
    for (j = 0; j < k; j++) {
        quad u1 = x * om;
        quad u2 = ad * y;
        quad nx = u1 - u2;
        quad v1 = y * om;
        quad v2 = bd * x;
        quad ny = v1 + v2;
        quad qx = nx / op;
        quad qy = ny / op;
        if (!(in_window_q(qx) && in_window_q(qy)))
            break;
        x = qx;
        y = qy;
    }
    put(st, x);
    put(st + 2, y);
    return j;
}
