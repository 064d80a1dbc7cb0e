/* Compiled twins of roundtrap.schemes' kernels.
 *
 * Each scheme's rounded step is written once per arithmetic.  euler_b64,
 * midpoint_b64 and rk3_b64 are the steps of _euler_native, _midpoint_native
 * and _rk3_native: the same binary64 operations in the same order, each
 * followed by its rounding to p bits by a Veltkamp split.  midpoint_q113 is
 * _midpoint_fused's step at any p <= 113 on integer significands (below).
 *
 * The plan loop is written once per arithmetic, plan_b64 and plan_q113.  It
 * follows a sampling plan: at, n ascending step indices.  It steps from the
 * state in st (step 0) to each index and writes the state there to out, x
 * then y: two doubles in binary64, two raw pairs of three words each on
 * integers.  It stops at the end of the plan or before the first step whose
 * result leaves the state window, leaves the last in-range state in st and
 * the steps done in *steps, and returns the samples written.  So a channel
 * is one call, whatever its sampling.  rt_binary64 takes the scheme's
 * number: 0 Euler, 1 midpoint, 2 RK3.
 *
 * The third export, rt_residual_keys, is not a step: it ranks the step
 * pairs of a binary64 record for analysis.residual_summary.  For each pair
 * of adjacent states it writes the squared norm of the consistency
 * residual correctly rounded to a double, formed in double-double from
 * Dekker's exact products, or NaN where its stated error bound (below,
 * under 2**-100 of the terms' magnitude per component, taken as 2**-96)
 * cannot prove that rounding.
 *
 * The library is built with -ffp-contract=off (a*b + c must not become one
 * fused multiply-add) and without -ffast-math (u - (u - v) must not be
 * simplified).  The Python loader runs a known-answer plan of mixed gaps
 * against the Python kernels, and compares the residual keys of a short
 * record with the exact ones, before using it.
 */

#include <float.h>
#include <stdint.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "binary64 operations must round to double, not to a wider format"
#endif

/* steps, operations and plan loops are always inlined: a plan loop called
 * with a constant step (and p) compiles to one loop around that step */
#define ALWAYS_INLINE static inline __attribute__((always_inline))

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

typedef struct {
    double x, y;
} pair64;

/* c = {-a, b, dt}; C = 2**(53-p) + 1 */
ALWAYS_INLINE pair64 euler_b64(double x, double y, const double *c, double C)
{
    const double na = c[0], b = c[1], d = c[2];
    double t1 = split(na * y, C);
    double t2 = split(d * t1, C);
    double nx = split(x + t2, C);
    double u1 = split(b * x, C);
    double u2 = split(d * u1, C);
    return (pair64){nx, split(y + u2, C)};
}

/* c = {1-k, 1+k, a*dt, b*dt}; C = 2**(53-p) + 1 */
ALWAYS_INLINE pair64 midpoint_b64(double x, double y, const double *c, double C)
{
    const double om = c[0], op = c[1], ad = c[2], bd = c[3];
    double u1 = split(x * om, C);
    double u2 = split(ad * y, C);
    double nx = split(u1 - u2, C);
    double v1 = split(y * om, C);
    double v2 = split(bd * x, C);
    double ny = split(v1 + v2, C);
    return (pair64){split(nx / op, C), split(ny / op, C)};
}

/* c = {-a, b, dt, dt/2, 2*dt, dt/6}; C = 2**(53-p) + 1 */
ALWAYS_INLINE pair64 rk3_b64(double x, double y, const double *c, double C)
{
    const double na = c[0], b = c[1], d = c[2], h = c[3], d2 = c[4], d6 = c[5];
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
    return (pair64){nx, split(y + split(d6 * s, C), C)};
}

ALWAYS_INLINE int64_t plan_b64(pair64 (*step)(double, double, const double *, double), double *st,
                               const double *c, double C, const int64_t *at, int64_t n, double *out,
                               int64_t *steps)
{
    double x = st[0], y = st[1];
    int64_t i = 0, j;
    for (j = 0; j < n; j++) {
        for (; i < at[j]; i++) {
            pair64 t = step(x, y, c, C);
            if (!(in_window(t.x) && in_window(t.y)))
                goto stop;
            x = t.x;
            y = t.y;
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

int64_t rt_binary64(int scheme, double *st, const double *c, double C, const int64_t *at, int64_t n,
                    double *out, int64_t *steps)
{
    switch (scheme) {
    case 0:
        return plan_b64(euler_b64, st, c, C, at, n, out, steps);
    case 1:
        return plan_b64(midpoint_b64, st, c, C, at, n, out, steps);
    case 2:
        return plan_b64(rk3_b64, st, c, C, at, n, out, steps);
    }
    *steps = 0; /* no such scheme: nothing steps */
    return 0;
}

/* The integer kernel.  A value is a sign, a significand m and the exponent
 * e of m's last bit.  m lies in [2**112, 2**113) (m = 0 for zero): it is
 * left-aligned at 113 bits, and a p-bit value has its low 113 - p bits
 * zero.  Every operation rounds once to p bits, at bit 113 - p of m, to
 * nearest with ties to even, as the emulator's _round_raw does.  An inexact
 * result is first rounded to odd on a grid of at least 115 bits, its sticky
 * bit jammed into the last place; rounding that to any p <= 113 bits is
 * then correct (S. Boldo and G. Melquiond, IEEE Trans. Computers 57(4),
 * 2008). */

typedef unsigned __int128 u128;

typedef struct {
    u128 m;
    int e, neg;
} q113;

static int bit_length(u128 m)
{
    uint64_t hi = (uint64_t)(m >> 64);
    return hi ? 128 - __builtin_clzll(hi) : 64 - __builtin_clzll((uint64_t)m);
}

/* the 256-bit product a*b as hi*2**128 + lo, from four 64x64 products */
static inline void mul256(u128 a, u128 b, u128 *hi, u128 *lo)
{
    u128 a0 = (uint64_t)a, a1 = a >> 64, b0 = (uint64_t)b, b1 = b >> 64;
    u128 p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    u128 mid = (p00 >> 64) + (uint64_t)p01 + (uint64_t)p10;
    *lo = mid << 64 | (uint64_t)p00;
    *hi = a1 * b1 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
}

/* (-1)**neg * m * 2**e, m > 0 of 113 + s bits, rounded to 113 - pad bits
 * and left-aligned at 113: m is exact, or rounded to odd with s >= 2 */
ALWAYS_INLINE q113 round113(int neg, u128 m, int e, int s, int pad)
{
    int r = s + pad; /* the bits below the last one kept */
    if (r <= 0)
        return (q113){m << -s, e + s, neg};
    m = (m + (((u128)1 << (r - 1)) - 1) + (m >> r & 1)) >> r;
    int carry = (int)(m >> (113 - pad)); /* rounded up to 2**(113 - pad) */
    return (q113){m >> carry << pad, e + s + carry, neg};
}

ALWAYS_INLINE q113 mul113(q113 a, q113 b, int pad)
{
    u128 hi, lo;
    if (!a.m || !b.m)
        return (q113){0, 0, 0};
    mul256(a.m, b.m, &hi, &lo); /* in [2**224, 2**226) */
    u128 m = hi << 28 | lo >> 100 | ((lo & (((u128)1 << 100) - 1)) != 0);
    return round113(a.neg ^ b.neg, m, a.e + b.e + 100, 12 + (int)(m >> 125), pad);
}

/* a + b: three guard bits keep a cancelling difference at 115 bits or more
 * whenever the aligned operand lost bits, which takes a shift of four */
ALWAYS_INLINE q113 add113(q113 a, q113 b, int pad)
{
    if (!a.m || !b.m)
        return a.m ? a : b;
    int swap = a.e < b.e || (a.e == b.e && a.m < b.m);
    q113 x = swap ? b : a, y = swap ? a : b; /* |x| >= |y| */
    int d = x.e - y.e;
    u128 big = x.m << 3, small = y.m << 3;
    small = d >= 116 ? 1 : small >> d | ((small & (((u128)1 << d) - 1)) != 0);
    if (x.neg == y.neg)
        return round113(x.neg, big + small, x.e - 3, 3 + (int)((big + small) >> 116), pad);
    u128 m = big - small;
    return m ? round113(x.neg, m, x.e - 3, bit_length(m) - 113, pad) : (q113){0, 0, 0};
}

/* floor((2**240 - 1) / m) for m in [2**112, 2**113), below 2**128 */
static u128 reciprocal(u128 m)
{
    u128 q = 0, r = 0;
    for (int i = 0; i < 240; i++) {
        r = r << 1 | 1;
        q = q << 1 | (r >= m);
        r -= r >= m ? m : 0;
    }
    return q;
}

/* a / b with inv = reciprocal(b.m): q = floor(a.m * 2**116 / b.m) is
 * floor(a.m * inv / 2**124) or one more, and the remainder, below 2**114
 * and so exact modulo 2**128, decides */
ALWAYS_INLINE q113 div113(q113 a, q113 b, u128 inv, int pad)
{
    u128 hi, lo;
    if (!a.m)
        return (q113){0, 0, 0};
    mul256(a.m, inv, &hi, &lo);
    u128 q = hi << 4 | lo >> 124, r = (a.m << 116) - q * b.m;
    if (r >= b.m) {
        q++;
        r -= b.m;
    }
    return round113(a.neg ^ b.neg, q | (r != 0), a.e - b.e - 116, 3 + (int)(q >> 116), pad);
}

static inline int in_window113(q113 v)
{
    int top = v.e + 112; /* floor(log2 |v|) */
    return !v.m || (top >= -400 && (top < 400 || (top == 400 && v.m == (u128)1 << 112)));
}

/* Values cross the interface as the emulator's raw pairs m * 2**e, three
 * 64-bit words each: m = w[0] * 2**63 + w[1] with 0 <= w[1] < 2**63, and
 * e.  A value read has at most p bits; a value written has an odd m, or
 * is (0, 0). */
static q113 read113(const int64_t *w)
{
    u128 m = (u128)(__int128)w[0] << 63 | (uint64_t)w[1];
    if (w[0] < 0)
        m = -m;
    return m ? round113(w[0] < 0, m, (int)w[2], bit_length(m) - 113, 0) : (q113){0, 0, 0};
}

static void write113(int64_t *w, q113 v)
{
    const u128 low = ((u128)1 << 63) - 1;
    uint64_t lo = (uint64_t)v.m;
    int z = !v.m ? 0 : lo ? __builtin_ctzll(lo) : 64 + __builtin_ctzll((uint64_t)(v.m >> 64));
    u128 m = v.m >> z;
    w[0] = v.neg ? -(int64_t)((m + low) >> 63) : (int64_t)(m >> 63);
    w[1] = (int64_t)((v.neg ? -m : m) & low);
    w[2] = v.m ? v.e + z : 0;
}

typedef struct {
    q113 x, y;
} pair113;

typedef struct {
    q113 v[4];
    u128 inv;
} consts113;

/* c->v = {1-k, 1+k, -a*dt, b*dt}, c->inv = reciprocal((1+k).m) */
ALWAYS_INLINE pair113 midpoint_q113(q113 x, q113 y, const consts113 *c, int pad)
{
    const q113 om = c->v[0], op = c->v[1], nad = c->v[2], bd = c->v[3];
    q113 u1 = mul113(x, om, pad);
    q113 u2 = mul113(nad, y, pad);
    q113 nx = add113(u1, u2, pad);
    q113 v1 = mul113(y, om, pad);
    q113 v2 = mul113(bd, x, pad);
    q113 ny = add113(v1, v2, pad);
    return (pair113){div113(nx, op, c->inv, pad), div113(ny, op, c->inv, pad)};
}

ALWAYS_INLINE int64_t plan_q113(pair113 (*step)(q113, q113, const consts113 *, int), int64_t *st,
                                const consts113 *c, int pad, const int64_t *at, int64_t n, int64_t *out,
                                int64_t *steps)
{
    q113 x = read113(st), y = read113(st + 3);
    int64_t i = 0, j;
    for (j = 0; j < n; j++) {
        for (; i < at[j]; i++) {
            pair113 t = step(x, y, c, pad);
            if (!(in_window113(t.x) && in_window113(t.y)))
                goto stop;
            x = t.x;
            y = t.y;
        }
        write113(out + 6 * j, x);
        write113(out + 6 * j + 3, y);
    }
stop:
    write113(st, x);
    write113(st + 3, y);
    *steps = i;
    return j;
}

/* the midpoint rule at 2 <= p <= 113 bits; c = {1-k, 1+k, a*dt, b*dt} */
int64_t rt_midpoint_int(int p, int64_t *st, const int64_t *c, const int64_t *at, int64_t n, int64_t *out,
                        int64_t *steps)
{
    consts113 k = {{read113(c), read113(c + 3), read113(c + 6), read113(c + 9)}, 0};
    k.v[2].neg = !k.v[2].neg; /* x (x) (1-k) (-) a*dt (x) y is x (x) (1-k) (+) -a*dt (x) y */
    k.inv = reciprocal(k.v[1].m);
    if (p == 113) /* the reference of every sweep */
        return plan_q113(midpoint_q113, st, &k, 0, at, n, out, steps);
    return plan_q113(midpoint_q113, st, &k, 113 - p, at, n, out, steps);
}

/* The residual keys.  For the states v0, v1 of two adjacent samples, the
 * residual (B v1 - C v0)/delta of analysis is r = M (x1, y1, x0, y0) with
 * M = [B/delta | -C/delta], and its key is |r|**2 correctly rounded to a
 * double.  Each entry m of M arrives as hi = float(m), lo = float(m - hi),
 * so |m - hi - lo| <= 2**-105 |hi| (u = 2**-53 below).
 *
 * A component of r is formed in double-double: each hi*v exactly by
 * Dekker's product, the four summed by TwoSum, and their rounding errors,
 * the products' low parts and each fl(lo*v) added into one low word by 10
 * float additions.  The low terms add up to at most 5u T, T = sum |hi*v|,
 * so those additions err by at most 50.1u**2 T; with the lo*v roundings and
 * M's truncation the component errs by at most 53u**2 T < 2**-100 T, and
 * ex = 2**-96 T is taken.  The square norm is formed the same way from the
 * components' double-double values R: each R_hi**2 exactly, 2 R_hi R_lo
 * rounded, R_lo**2 dropped, all within 20u**2 |R|**2 < 2**-101 |R|**2.  With
 * |r**2 - R**2| <= ex (2|R| + ex), the key's error bound is twice
 * ex (2|Rx_hi| + ex) + ey (2|Ry_hi| + ey) + 2**-98 |R|**2.  The key is the
 * double nearest to the sum when the bound lies strictly inside the half
 * gap to the double's neighbour on the sum's side (Ziv's test), and NaN
 * otherwise.
 *
 * Every operand of a product -- state, hi and R_hi -- is 0 or lies in
 * [2**-450, 2**450], so each product is exact or in [2**-900, 2**900], and
 * the key must lie in [2**-900, 2**900]; anything else, and a zero,
 * subnormal or infinite key, gives NaN.  The underflow of a lo*v or of a
 * term of the bound costs at most 2**-1075 each, covered by 2**-1000 added
 * to each bound. */

typedef struct {
    double hi, lo;
} dd;

/* a value and its halves of 26 bits, v = h + l, by Veltkamp's split */
typedef struct {
    double v, h, l;
} halves;

static double mag(double v)
{
    return v < 0 ? -v : v;
}

/* zero, or a magnitude in [2**-450, 2**450]; NaN and inf fail */
static int in_key_range(double v)
{
    return v == 0 || (mag(v) >= 0x1p-450 && mag(v) <= 0x1p450);
}

static inline halves halve(double v)
{
    double h = split(v, 0x1p27 + 1);
    return (halves){v, h, v - h};
}

/* a + b = hi + lo exactly (TwoSum) */
static inline dd two_sum(double a, double b)
{
    double s = a + b, bb = s - a;
    return (dd){s, (a - (s - bb)) + (b - bb)};
}

/* a * b = hi + lo exactly (Dekker's product) */
static inline dd two_prod(halves a, halves b)
{
    double p = a.v * b.v;
    return (dd){p, ((a.h * b.h - p) + a.h * b.l + a.l * b.h) + a.l * b.l};
}

/* one component of r as hi + lo, from M's row as halves of hi and as lo;
 * *ex its error bound, *ok cleared when R_hi leaves the key range.  The
 * sums are paired, so that the two halves of each can run side by side. */
static inline dd component(const halves *hi, const double *lo, const halves *v, double *ex, int *ok)
{
    dd p0 = two_prod(hi[0], v[0]), p1 = two_prod(hi[1], v[1]);
    dd p2 = two_prod(hi[2], v[2]), p3 = two_prod(hi[3], v[3]);
    dd s01 = two_sum(p0.hi, p1.hi), s23 = two_sum(p2.hi, p3.hi), s = two_sum(s01.hi, s23.hi);
    double l = ((p0.lo + p1.lo) + (p2.lo + p3.lo)) + ((lo[0] * v[0].v + lo[1] * v[1].v) + (lo[2] * v[2].v + lo[3] * v[3].v));
    dd r = two_sum(s.hi, l + ((s01.lo + s23.lo) + s.lo));
    *ok &= in_key_range(r.hi);
    *ex = 0x1p-96 * ((mag(p0.hi) + mag(p1.hi)) + (mag(p2.hi) + mag(p3.hi))) + 0x1p-1000;
    return r;
}

static double residual_key(const halves *hi, const double *lo, const halves *v)
{
    double ex, ey;
    int ok = 1;
    dd rx = component(hi, lo, v, &ex, &ok), ry = component(hi + 4, lo + 4, v, &ey, &ok);
    dd a = two_prod(halve(rx.hi), halve(rx.hi)), b = two_prod(halve(ry.hi), halve(ry.hi));
    dd s = two_sum(a.hi, b.hi);
    dd k = two_sum(s.hi, (((s.lo + a.lo) + b.lo) + 2 * rx.hi * rx.lo) + 2 * ry.hi * ry.lo);
    double err = 2 * (ex * (2 * mag(rx.hi) + ex) + ey * (2 * mag(ry.hi) + ey) + 0x1p-98 * k.hi) + 0x1p-1000;
    if (!(ok && k.hi >= 0x1p-900 && k.hi <= 0x1p900))
        return __builtin_nan("");
    /* the gap from k.hi to its neighbour on k.lo's side, halved; the one
     * below is the narrower, at a power of two */
    union {
        double d;
        uint64_t u;
    } near = {k.hi};
    near.u += k.lo > 0 ? 1 : -1;
    double half = mag(near.d - k.hi) * 0.5;
    return err < half - mag(k.lo) ? k.hi : __builtin_nan("");
}

/* the keys of the n - 1 adjacent pairs among the n states in xy (x then y)
 * into keys, with m the 16 doubles hi, lo of M's rows; returns the number
 * of NaN keys written */
int64_t rt_residual_keys(const double *xy, int64_t n, const double *m, double *keys)
{
    halves hi[8], v[4]; /* v: x1, y1, x0, y0 */
    double lo[8];
    int ok = 1, in0, in1;
    if (n < 2)
        return 0;
    for (int i = 0; i < 8; i++) {
        hi[i] = halve(m[2 * i]);
        lo[i] = m[2 * i + 1];
        ok &= in_key_range(m[2 * i]) && mag(lo[i]) <= 0x1p-53 * mag(m[2 * i]);
    }
    v[0] = halve(xy[0]);
    v[1] = halve(xy[1]);
    in1 = in_key_range(xy[0]) && in_key_range(xy[1]);
    int64_t undecided = 0;
    for (int64_t j = 0; j + 1 < n; j++) {
        v[2] = v[0]; /* the pair's first state is the last pair's second */
        v[3] = v[1];
        in0 = in1;
        v[0] = halve(xy[2 * j + 2]);
        v[1] = halve(xy[2 * j + 3]);
        in1 = in_key_range(xy[2 * j + 2]) && in_key_range(xy[2 * j + 3]);
        double key = ok && in0 && in1 ? residual_key(hi, lo, v) : __builtin_nan("");
        undecided += key != key;
        keys[j] = key;
    }
    return undecided;
}
