/* The compiled half of mmcsim, loaded with ctypes by mmcsim.kernel: the
   step loop of run_scenario, the reference sines of scenario._blank_trace
   and the row formatter of csvtext.write_columns.

   mmcsim_run advances the three phase legs over every step of a run and
   fills the trace blocks of scenario._blank_trace in place.  Each step does
   the work of modulate_phase and then step_phase for the three legs, with
   the float operations of the scalar functions in the same order, so that
   its record is the same bits as their loop's (scenario._run_scalar);
   build it with -ffp-contract=off, so that no a*b + c is fused.

   - sorts: stable insertion sorts; v1f2 on (key, index), v1fc on (key, OFF
     flag, index) and then a stable partition on the deferred flag, which
     gives the order of sort_v1fc's penalty sort;
   - selection: brute_force_select's first-minimum scan of the row-major
     (n+1)^2 grid, a NaN cell never winning; the two differ only when cell
     (0, 0) is NaN, which the scan keeps.

   mmcsim_sin is libm's sin, the function math.sin calls, over an array.
   mmcsim_format_columns writes a block of CSV rows as text byte-identical
   to Python's '%.9g' and '%d' (see put_g9), reading each column in place
   through its row stride.
*/
#include <inttypes.h>
#include <math.h>
#include <stdio.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* the constants mmcsim.kernel passes, by index */
enum {
    K_TS, K_C_SM, K_L_ARM_TS, K_L_AC_TS, K_Z_STEP, K_CIRC_GAIN, K_I_CIRC_NOM,
    K_V_DC, K_W_TRACK, K_W_CIRC, K_V_SM, K_L_LINE, K_C_END,
    K_V_GRID0 /* three values, phases a, b, c */
};

enum { PHASES = 3 };

/* a < b, a NaN after every number and equal to a NaN */
static int less(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* Fill order[0..n) with the submodule order of one arm: keys ascending,
   ties ON first under v1fc, then by index; under v1fc with budget < n, the
   OFF submodules beyond the budget's count of turn-ons move, in order,
   behind the others.  tmp holds n ints. */
static void sort_arm(int n, const double *key, const int8_t *u, int v1fc, int budget,
                     int32_t *order, int32_t *tmp)
{
    for (int i = 0; i < n; i++) {
        int j = i;
        while (j > 0) {
            int32_t prev = order[j - 1];
            int before = less(key[i], key[prev])
                || (v1fc && !less(key[prev], key[i]) && u[i] > u[prev]);
            if (!before)
                break;
            order[j] = prev;
            j--;
        }
        order[j] = i;
    }
    if (!v1fc || budget >= n)
        return;
    int kept = 0, deferred = 0, turn_ons = 0;
    for (int m = 0; m < n; m++) {
        int32_t j = order[m];
        if (!u[j] && ++turn_ons > budget)
            tmp[deferred++] = j;
        else
            order[kept++] = j;
    }
    memcpy(order + kept, tmp, (size_t)deferred * sizeof *tmp);
}

/* The cell m_up * (n+1) + m_low of the first minimum of the objective */
static int select_cell(int n, const double *sums_up, const double *sums_low,
                       double t_up, double t_low, double w_track, double w_circ)
{
    int best = 0;
    double f_best = INFINITY;
    for (int i = 0, cell = 0; i <= n; i++) {
        double d_up = t_up - sums_up[i];
        for (int j = 0; j <= n; j++, cell++) {
            double d_low = t_low - sums_low[j];
            double f = w_track * fabs(d_low - d_up) + w_circ * fabs(d_low + d_up);
            if (f < f_best) {
                f_best = f;
                best = cell;
            }
        }
    }
    return best;
}

/* The sort of one arm and the selection of one leg, for tests that hold
   them to the scalar sorts and selection on ties */
void mmcsim_sort_arm(int32_t n, const double *key, const int8_t *u, int32_t v1fc,
                     int32_t budget, int32_t *order, int32_t *tmp)
{
    sort_arm(n, key, u, v1fc, budget, order, tmp);
}

int32_t mmcsim_select_cell(int32_t n, const double *sums_up, const double *sums_low,
                           double t_up, double t_low, double w_track, double w_circ)
{
    return select_cell(n, sums_up, sums_low, t_up, t_low, w_track, w_circ);
}

/* Run `steps` steps.  budgets is (steps,), refs (steps, 2, 3) i_ref then
   v_grid; the outputs are the record blocks: currents (steps, 2, 3) i_ac
   then i_circ, v_c (steps, 3, 2n), u (steps, 3, 2n) and, when piline is
   set, v_dc (steps,).

   Returns 0 when the run ends, 1 when the state of phase where[1] turns
   non-finite on step where[0] (its row of currents and v_c is written), 2
   when the bus voltage after step where[0] is not finite and > 0 (*bus
   holds it), and -1 when the work buffers cannot be allocated. */
int mmcsim_run(const double *k, int64_t steps, int32_t n, int32_t v1fc, int32_t piline,
               const int16_t *budgets, const double *refs, double *currents,
               double *v_c, int8_t *u_rec, double *v_dc_rec, int64_t *where, double *bus)
{
    const int n2 = 2 * n;
    const double ts = k[K_TS], c_sm = k[K_C_SM], l_arm_ts = k[K_L_ARM_TS];
    const double l_ac_ts = k[K_L_AC_TS], z_step = k[K_Z_STEP], circ_gain = k[K_CIRC_GAIN];
    const double i_circ_nom = k[K_I_CIRC_NOM], v_dc_nom = k[K_V_DC];
    const double w_track = k[K_W_TRACK], w_circ = k[K_W_CIRC];
    const double l_line = k[K_L_LINE], c_end = k[K_C_END];

    /* the state: capacitor voltages and statuses by phase, upper arm first */
    double *v = malloc(sizeof(double) * (size_t)(PHASES * n2 + 2 * n2 + 2 * (n + 1)));
    int8_t *u = malloc((size_t)(PHASES * n2));
    int32_t *order = malloc(sizeof(int32_t) * (size_t)(n2 + n));
    if (!v || !u || !order) {
        free(v);
        free(u);
        free(order);
        return -1;
    }
    double *v_next = v + PHASES * n2, *key = v_next + n2, *sums = key + n2;
    int32_t *tmp = order + n2;
    for (int j = 0; j < PHASES * n2; j++) {
        v[j] = k[K_V_SM];
        u[j] = 0;
    }
    sums[0] = sums[n + 1] = 0.0;

    double i_ac[PHASES] = {0.0, 0.0, 0.0}, i_circ[PHASES] = {0.0, 0.0, 0.0};
    double v_grid[PHASES] = {k[K_V_GRID0], k[K_V_GRID0 + 1], k[K_V_GRID0 + 2]};
    double v_dc_now = v_dc_nom, i_line = 0.0;
    int code = 0;

    for (int64_t s = 0; s < steps && !code; s++) {
        const double *i_ref = refs + 6 * s, *v_grid_next = i_ref + PHASES;
        double *i_ac_rec = currents + 6 * s, *i_circ_rec = i_ac_rec + PHASES;
        const double half_dc = v_dc_now / 2.0;
        for (int p = 0; p < PHASES; p++) {
            double *v_leg = v + p * n2;
            int8_t *u_leg = u + p * n2;
            /* 1. compute_targets and arm_currents */
            double common = half_dc + l_arm_ts * (i_circ[p] - i_circ_nom);
            double drive = z_step * i_ref[p] + v_grid[p] - l_ac_ts * i_ac[p];
            double half = 0.5 * i_ac[p];
            double i_arm[2] = {i_circ[p] + half, i_circ[p] - half};
            for (int a = 0; a < 2; a++) {
                double inc = ts * i_arm[a] / c_sm;
                double sign = i_arm[a] < 0 ? -1.0 : 1.0;
                double *vn = v_next + a * n, *ky = key + a * n, *sm = sums + a * (n + 1);
                int32_t *ord = order + a * n;
                /* 2. anticipation, every submodule inserted; 3. the sort */
                for (int j = 0; j < n; j++) {
                    vn[j] = v_leg[a * n + j] + inc;
                    ky[j] = vn[j] * sign;
                }
                sort_arm(n, ky, u_leg + a * n, v1fc, budgets[s], ord, tmp);
                /* 4. running sums in sorted order, behind sm[0] = 0.0 */
                double run = 0.0;
                for (int m = 0; m < n; m++) {
                    run += vn[ord[m]];
                    sm[m + 1] = run;
                }
            }
            /* 5. selection over the (n+1) x (n+1) grid */
            int cell = select_cell(n, sums, sums + n + 1, common - drive, common + drive,
                                   w_track, w_circ);
            int chosen[2] = {cell / (n + 1), cell % (n + 1)};
            /* 6. insert the chosen prefixes, then step_phase: inserted
               capacitors integrate, each arm voltage sums the arm in
               submodule order from 0.0, adding 0.0 for a bypassed
               submodule: exact, as the sum is never -0.0 */
            double arm_volts[2];
            for (int a = 0; a < 2; a++) {
                const int32_t *ord = order + a * n;
                const double *vn = v_next + a * n;
                double *va = v_leg + a * n;
                int8_t *ua = u_leg + a * n;
                for (int m = 0; m < n; m++)
                    ua[ord[m]] = m < chosen[a];
                double volts = 0.0;
                for (int j = 0; j < n; j++) {
                    if (ua[j])
                        va[j] = vn[j];
                    volts += ua[j] ? va[j] : 0.0;
                }
                arm_volts[a] = volts;
            }
            double v_up = arm_volts[0], v_low = arm_volts[1];
            i_ac_rec[p] = ((v_low - v_up) / 2.0 - v_grid_next[p] + l_ac_ts * i_ac[p]) / z_step;
            i_circ_rec[p] = circ_gain * (v_dc_now - v_low - v_up) + i_circ[p];
            memcpy(v_c + (s * PHASES + p) * n2, v_leg, sizeof(double) * (size_t)n2);
            memcpy(u_rec + (s * PHASES + p) * n2, u_leg, (size_t)n2);
            if (!(isfinite(i_ac_rec[p]) && isfinite(i_circ_rec[p]))) {
                where[0] = s;
                where[1] = p;
                code = 1;
                break;
            }
        }
        if (code)
            break;
        for (int p = 0; p < PHASES; p++) {
            i_ac[p] = i_ac_rec[p];
            i_circ[p] = i_circ_rec[p];
            v_grid[p] = v_grid_next[p];
        }
        if (piline) {
            /* semi-implicit: current from the old bus voltage, voltage
               from the new current */
            v_dc_rec[s] = v_dc_now;
            i_line += ts / l_line * (v_dc_nom - v_dc_now);
            v_dc_now += ts / c_end * (i_line - (0.0 + i_circ[0] + i_circ[1] + i_circ[2]));
            if (!(isfinite(v_dc_now) && v_dc_now > 0.0)) {
                where[0] = s;
                *bus = v_dc_now;
                code = 2;
            }
        }
    }
    free(v);
    free(u);
    free(order);
    return code;
}

/* out[i] = sin(x[i]) for i < count */
void mmcsim_sin(const double *x, double *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = sin(x[i]);
}

/* a scaled value whose fraction lies this close to 0.5 may be a decimal
   tie, which snprintf decides */
#define G9_TIE 2.5e-7
/* 10^k for k <= 22, each exact in binary64 */
static const double POW10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};
static const char DIGITS2[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* '%.9g' % x as Python writes it, at p; returns the end, and may write
   up to G9_SLACK bytes beyond it.  With e the decimal exponent of |x|,
   s = |x|*10^(8-e) is one correctly rounded multiply or divide by a power
   of ten exact in binary64 (|8-e| <= 22), so it is within half an ulp
   (< 6e-8) of the exact product, and rint(s) is the correctly rounded
   9-digit mantissa unless frac(s) lies within G9_TIE of 0.5.  Those
   possible ties, exponents outside [-14, 30], zeros and subnormals go to
   snprintf, which rounds correctly too; non-finite values are written as
   Python writes them, "nan" whatever the sign bit. */
#define G9_SLACK 16
static char *put_g9(char *p, double x)
{
    if (!isfinite(x)) {
        memcpy(p, x != x ? "nan" : x > 0 ? "inf" : "-inf", 4);
        return p + (x != x || x > 0 ? 3 : 4);
    }
    double a = fabs(x);
    if (!(a >= 1e-14 && a < 1e31))
        goto slow;
    /* floor(log10 a) or a neighbour, from the binary exponent: 78913 / 2^18
       is log10(2) to 8e-7; the loop corrects it */
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    int e = (((int)(bits >> 52) - 1023) * 78913) >> 18;
    double s;
    for (int tries = 0;; tries++) {
        int k = 8 - e;
        if (k > 22 || k < -22 || tries == 3)
            goto slow;
        s = k >= 0 ? a * POW10[k] : a / POW10[-k];
        /* s just under 1e8 is a mantissa rounding up to 1e8 */
        if (s >= 1e9)
            e++;
        else if (s < 1e8 - 1e-6)
            e--;
        else
            break;
    }
    double r = rint(s);
    if (!(fabs(s - r) < 0.5 - G9_TIE))
        goto slow;
    uint32_t m = (uint32_t)r;
    if (m == 1000000000u) { /* 9.9999999995 -> 10 */
        m = 100000000u;
        e++;
    }
    /* the nine digits at dg + 1, behind a byte that may become the "." */
    char dg[24];
    for (int i = 8; i > 1; i -= 2) {
        memcpy(dg + i, DIGITS2 + 2 * (m % 100), 2);
        m /= 100;
    }
    dg[1] = (char)('0' + m);
    int nd = 9; /* the digits left when trailing zeros are dropped */
    while (nd > 1 && dg[nd] == '0')
        nd--;
    *p = '-';
    p += x < 0;
    if (e >= -4 && e <= 8) {
        if (e < 0) {
            memcpy(p, "0.000\0\0", 8);
            p += 1 - e;
            memcpy(p, dg + 1, 9);
            return p + nd;
        }
        /* d..d then ".d..d": the digits after the point move up a byte */
        memcpy(p, dg + 1, 9);
        if (nd <= e + 1)
            return p + e + 1;
        p += e + 1;
        *p = '.';
        memcpy(p + 1, dg + e + 2, 8);
        return p + nd - e;
    }
    dg[0] = dg[1];
    dg[1] = '.';
    memcpy(p, dg, 10);
    p += nd > 1 ? nd + 1 : 1;
    memcpy(p, e < 0 ? "e-" : "e+", 2);
    memcpy(p + 2, DIGITS2 + 2 * (e < 0 ? -e : e), 2);
    return p + 4;
slow:
    return p + snprintf(p, 32, "%.9g", x);
}

/* '%d' % v at p; returns the end */
static char *put_d(char *p, int64_t v)
{
    if (v >= 0 && v <= 9) {
        *p++ = (char)('0' + v);
        return p;
    }
    return p + snprintf(p, 24, "%" PRId64, v);
}

/* the column kinds of mmcsim_format_columns */
enum { COL_TEXT, COL_F64, COL_I8, COL_I16, COL_I64 };

/* Write rows first .. first+rows-1 of a CSV table to out and return the
   bytes written.  The row is `count` fields, each described by three
   int64s (kind, base, stride); row r of a number column is read at byte
   address base + r * stride, in unsigned arithmetic, so a negative
   stride (a reversed column) wraps to the row's address without signed
   overflow:
   - COL_F64, COL_I8, COL_I16, COL_I64: a float64 written as '%.9g', or an
     integer of that width written as '%d';
   - COL_TEXT: the `stride` bytes at base, on every row.
   Fields are separated by "," and each row ends in "\r\n".  A number field
   takes at most 21 bytes with its ",", so out must hold, per row, 21 bytes
   per number field, the fixed text plus one byte per text field, and two,
   and G9_SLACK bytes after the last row. */
int64_t mmcsim_format_columns(int64_t first, int64_t rows, const int64_t *cols, int32_t count,
                              char *out)
{
    char *p = out;
    for (int64_t r = first; r < first + rows; r++) {
        for (int k = 0; k < count; k++) {
            const int64_t *col = cols + 3 * k;
            const char *at = (const char *)(uintptr_t)((uint64_t)col[1] + (uint64_t)r * (uint64_t)col[2]);
            double x;
            int16_t i16;
            int64_t i64;
            if (k)
                *p++ = ',';
            switch (col[0]) {
            case COL_TEXT:
                memcpy(p, (const char *)(uintptr_t)col[1], (size_t)col[2]);
                p += col[2];
                break;
            case COL_F64:
                memcpy(&x, at, sizeof x);
                p = put_g9(p, x);
                break;
            case COL_I8:
                p = put_d(p, *(const int8_t *)at);
                break;
            case COL_I16:
                memcpy(&i16, at, sizeof i16);
                p = put_d(p, i16);
                break;
            case COL_I64:
                memcpy(&i64, at, sizeof i64);
                p = put_d(p, i64);
                break;
            }
        }
        *p++ = '\r';
        *p++ = '\n';
    }
    return p - out;
}
