/* The compiled half of mmcsim, loaded with ctypes by mmcsim.kernel: the
   step loop of run_scenario, the reference sines of scenario._blank_trace
   and the CSV writer of csvtext.write_columns.

   mmcsim_run advances the three phase legs over every step of a run and
   fills the trace blocks of scenario._blank_trace in place.  Each step does
   the work of modulate_phase and then step_phase for the three legs, with
   the float operations of the scalar functions in the same order, so that
   its record is the same bits as their loop's (scenario._run_scalar);
   build it with -ffp-contract=off, so that no a*b + c is fused, and with
   -pthread.

   The record is the one home of the legs' state: a step reads each leg's
   state from the row before it and writes the leg's cells of its own row
   (see step_legs); step 0 reads the start row that scenario._blank_trace
   puts in front of row 0.  On a stiff bus the three legs share nothing
   but the clock, so each of two threads steps a leg and a half: the
   calling thread steps leg c up to half-way and then leg b, and a worker
   thread steps leg a and then leg c's second half, which starts from the
   row the calling thread wrote last.  Each writes only its own legs'
   cells of the record.  The split can so save up to half of the stepping
   time.  A pi-line run stays on the calling thread, as its bus couples
   the legs on every step.  A diverging run reports the leg the scalar
   loop would: the first in step-major order.

   Each second thread that mmcsim starts, the worker and the write
   stage's, first runs off its starter's CPU: see other_cpus.

   - sorts: an insertion sort of each arm's order of the previous step
     under one total order, key (NaN last), then ON first under v1fc, then
     index, and then a stable partition on the deferred flag, which gives
     the order of sort_v1fc's penalty sort; the kept order needs fewer
     comparisons and shifts than index order, except on a step where the
     arm current changes sign and so reverses the order of the keys;
   - selection: brute_force_select's first-minimum scan of the row-major
     (n+1)^2 grid, a NaN cell never winning, skipping the rows and columns
     that a lower bound of the objective shows cannot hold the minimum
     (see select_cell); the two differ only when cell (0, 0) is NaN, which
     the scan keeps.

   BENCH_kernel.json at the repository root holds the measured time per
   phase-step, and BENCH_kernel_counts.json the comparisons per sort and
   cells scored per selection, counted by a one-off copy of this file.

   mmcsim_sin is libm's sin, the function math.sin calls, over an array.
   mmcsim_write_columns writes a whole CSV file to a file descriptor, as
   text byte-identical to Python's '%.9g' and '%d' (see put_g9), reading
   each column in place through its row stride and formatting a block of
   rows at a time into one buffer.  A float with the bits of its field's
   value on the row before is not formatted again: its text is copied.
*/
#ifdef __linux__
#define _GNU_SOURCE /* sched_getcpu and the CPU sets of sched.h and pthread.h */
#else
#define _POSIX_C_SOURCE 200809L /* write(2) under -std=c99 */
#endif

#include <errno.h>
#include <inttypes.h>
#include <math.h>
#include <pthread.h>
#ifdef __linux__
#include <sched.h>
#endif
#include <stdio.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

/* the constants mmcsim.kernel passes, by index */
enum {
    K_TS, K_C_SM, K_L_ARM_TS, K_L_AC_TS, K_Z_STEP, K_CIRC_GAIN, K_I_CIRC_NOM,
    K_V_DC, K_W_TRACK, K_W_CIRC, K_L_LINE, K_C_END
};

enum { PHASES = 3 };

/* a < b, a NaN after every number and equal to a NaN */
static int less(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* a before b in an arm's order: key ascending (see less), then, under
   v1fc, ON first, then index; a total order, so the sort below gives the
   same order from any start */
static int before(const double *key, const int8_t *u, int v1fc, int32_t a, int32_t b)
{
    if (less(key[a], key[b]))
        return 1;
    if (less(key[b], key[a]))
        return 0;
    if (v1fc && u[a] != u[b])
        return u[a] > u[b];
    return a < b;
}

/* Sort perm[0..n), a permutation of the arm's submodules (the order of the
   previous step), in place by `before`, and fill order[0..n) with the
   submodule order: perm, and under v1fc with budget < n, the OFF
   submodules beyond the budget's count of turn-ons moved, in order,
   behind the others (a stable partition). */
static void sort_arm(int n, const double *key, const int8_t *u, int v1fc, int budget,
                     int32_t *perm, int32_t *order)
{
    for (int i = 1; i < n; i++) {
        int32_t x = perm[i];
        int j = i;
        for (; j > 0 && before(key, u, v1fc, x, perm[j - 1]); j--)
            perm[j] = perm[j - 1];
        perm[j] = x;
    }
    if (!v1fc || budget >= n) {
        memcpy(order, perm, sizeof *order * (size_t)n);
        return;
    }
    /* kept counts the submodules that stay in front; each submodule goes
       straight to its place, without a branch on the statuses */
    int off = 0;
    for (int j = 0; j < n; j++)
        off += !u[j];
    const int kept = off > budget ? n - (off - budget) : n;
    int turn_ons = 0, deferred = 0;
    for (int m = 0; m < n; m++) {
        int32_t j = perm[m];
        turn_ons += !u[j];
        int later = !u[j] & (turn_ons > budget);
        order[later ? kept + deferred : m - deferred] = j;
        deferred += later;
    }
}

/* the objective of brute_force_select's _weighted */
static double objective(double w_track, double w_circ, double d_up, double d_low)
{
    return w_track * fabs(d_low - d_up) + w_circ * fabs(d_low + d_up);
}

/* The cell m_up * (n+1) + m_low of the first minimum of the objective in
   row-major order, brute_force_select's cell; d_low holds n+1 doubles.

   For real a = d_low and b = d_up, w_t|a - b| + w_c|a + b| >=
   w(|a - b| + |a + b|) = 2 w max(|a|, |b|) with w = min(w_t, w_c), so no
   cell of a row or column whose d has B = 2 w |d| above the objective f*
   of the first minimum can hold it.  The scan keeps a cut T >= f*: the
   objective of the cell nearest both targets, then each better cell's,
   and skips the rows and columns whose B exceeds T.  B is computed as
   (w |d|) (2 - 2^-49), that is 2 w |d| shrunk by 2^-50 relative, and
   gains at most 2 * 2^-53 in its two roundings; the computed objective
   loses at most 3 * 2^-53 (two roundings in each term, one in the sum).
   So a skipped cell's computed objective is at least its B, above T and
   so above f*: it is not a minimum, and every cell at f* is scored, in
   row-major order, with the same strict <.  T is never below 2^-1000, so a skip needs B > 2^-1000,
   far above the absolute error of an objective that underflows; one that
   overflows is inf, above any finite T.  A NaN B, a zero or negative
   weight and T = inf (a NaN or infinite nearest cell) skip nothing: the
   scan is then the full scan. */
static int select_cell(int n, const double *sums_up, const double *sums_low,
                       double t_up, double t_low, double w_track, double w_circ, double *d_low)
{
    const double w_min = w_track < w_circ ? w_track : w_circ, shrink = 2.0 - 0x1p-49;
    /* the cell nearest both targets, a NaN d never nearest; selects rather
       than branches, as where the target falls changes every step */
    int near_up = 0, near_low = 0;
    double a_up = INFINITY, a_low = INFINITY;
    for (int j = 0; j <= n; j++) {
        d_low[j] = t_low - sums_low[j];
        double a = fabs(d_low[j]);
        int closer = a < a_low;
        near_low = closer ? j : near_low;
        a_low = closer ? a : a_low;
    }
    for (int i = 0; i <= n; i++) {
        double a = fabs(t_up - sums_up[i]);
        int closer = a < a_up;
        near_up = closer ? i : near_up;
        a_up = closer ? a : a_up;
    }
    double cut = objective(w_track, w_circ, t_up - sums_up[near_up], d_low[near_low]);
    cut = !(cut < INFINITY) ? INFINITY : cut < 0x1p-1000 ? 0x1p-1000 : cut;
    int best = 0;
    double f_best = INFINITY;
    for (int i = 0; i <= n; i++) {
        double d_up = t_up - sums_up[i];
        if (w_min * fabs(d_up) * shrink > cut)
            continue;
        for (int j = 0; j <= n; j++) {
            if (w_min * fabs(d_low[j]) * shrink > cut)
                continue;
            double f = objective(w_track, w_circ, d_up, d_low[j]);
            if (f < f_best) {
                f_best = f;
                best = i * (n + 1) + j;
                if (f < cut)
                    cut = f < 0x1p-1000 ? 0x1p-1000 : f;
            }
        }
    }
    return best;
}

/* The sort of one arm from the start perm (sorted in place) and the
   selection of one leg with its n+1 doubles of work, for tests that hold
   them to the scalar sorts and selection on ties */
void mmcsim_sort_arm(int32_t n, const double *key, const int8_t *u, int32_t v1fc,
                     int32_t budget, int32_t *perm, int32_t *order)
{
    sort_arm(n, key, u, v1fc, budget, perm, order);
}

int32_t mmcsim_select_cell(int32_t n, const double *sums_up, const double *sums_low,
                           double t_up, double t_low, double w_track, double w_circ,
                           double *d_low)
{
    return select_cell(n, sums_up, sums_low, t_up, t_low, w_track, w_circ, d_low);
}

/* What mmcsim_run steps, read by both of its threads: the constants (see
   the K_ enum), the budgets and references, and the record blocks, in
   which each leg writes only its own cells. */
struct run {
    const double *k;
    int64_t steps;
    int n, v1fc;
    const int16_t *budgets;
    const double *refs;
    double *currents, *v_c, *v_dc_rec;
    int8_t *u_rec;
};

/* Where a stretch of steps stopped: code 1 when the state of `phase`
   turns non-finite on `step`, 2 when the bus voltage after `step` is not
   finite and > 0 (`bus` holds it), else 0. */
struct stop {
    int64_t step;
    int phase, code;
    double bus;
};

/* keep the stop `s` in *kept when it comes first in step-major order: the
   lower step, then the lower phase */
static void keep_first(struct stop *kept, struct stop s)
{
    if (s.code && (!kept->code || s.step < kept->step || (s.step == kept->step && s.phase < kept->phase)))
        *kept = s;
}

/* One thread's work area: the sort and selection work, the sorted order
   of each arm of the three phases, kept from step to step, and the order
   of each arm this step.  `stop` is the first stop of the thread's
   stretches, and `cpu` the CPU the thread started stepping on, or -1. */
struct legs {
    const struct run *run;
    double *v_next, *key, *sums, *d_low;
    int32_t *perm, *order;
    struct stop stop;
    int cpu;
};

/* the doubles and int32s of one work area, in one block that ends in a
   cache line of its own, so that the two threads' areas share none; each
   cell is written before it is read */
static int legs_alloc(struct legs *w, const struct run *r)
{
    const size_t n = (size_t)r->n, n2 = 2 * n;
    double *block = malloc(sizeof(double) * (2 * n2 + 3 * (n + 1)) + sizeof(int32_t) * (PHASES * n2 + n2) + 64);
    memset(w, 0, sizeof *w);
    w->run = r;
    w->cpu = -1;
    if (!block)
        return 0;
    w->v_next = block;
    w->key = w->v_next + n2;
    w->sums = w->key + n2;
    w->d_low = w->sums + 2 * (n + 1);
    w->perm = (int32_t *)(void *)(w->d_low + n + 1);
    w->order = w->perm + PHASES * n2;
    return 1;
}

/* Step legs [p0, p1) over steps [s0, s1).  Step s reads a leg's state
   from the row before it and from nowhere else: the currents, capacitor
   voltages and statuses from record row s - 1 and the grid voltage from
   refs row s - 1, for step 0 the start row; it writes the leg's cells of
   record row s.  So a stretch starts from any record row as from step 0,
   each arm's kept order in index order (the sort's order is total, so
   that changes the work, not the result).  When piline is set (with every
   leg, from step 0), also step the bus after each step; its voltage and
   line current, not recorded, stay in locals.  At the first leg, in
   step-major order, whose state turns non-finite, or at a bus voltage
   that is not finite and > 0, stop: keep where in w->stop (see
   keep_first) and return 1; else return 0.  Inlined at both calls, so
   that the compiler has the legs and the bus as constants. */
static inline __attribute__((always_inline)) int step_legs(struct legs *w, int p0, int p1, int piline,
                                                           int64_t s0, int64_t s1)
{
    const struct run *r = w->run;
    const double *k = r->k;
    const int n = r->n, n2 = 2 * n, v1fc = r->v1fc;
    const int64_t row = PHASES * n2;
    const double ts = k[K_TS], c_sm = k[K_C_SM], l_arm_ts = k[K_L_ARM_TS];
    const double l_ac_ts = k[K_L_AC_TS], z_step = k[K_Z_STEP], circ_gain = k[K_CIRC_GAIN];
    const double i_circ_nom = k[K_I_CIRC_NOM], v_dc_nom = k[K_V_DC];
    const double w_track = k[K_W_TRACK], w_circ = k[K_W_CIRC];
    const double l_line = k[K_L_LINE], c_end = k[K_C_END];
    double *v_next = w->v_next, *key = w->key, *sums = w->sums;
    int32_t *perm = w->perm, *order = w->order;

    sums[0] = sums[n + 1] = 0.0;
    double v_dc_now = v_dc_nom, i_line = 0.0;
    for (int j = p0 * n2; j < p1 * n2; j++)
        perm[j] = j % n;

    for (int64_t s = s0; s < s1; s++) {
        const double *i_ref = r->refs + 6 * s, *v_grid_next = i_ref + PHASES, *v_grid = v_grid_next - 6;
        double *i_ac_rec = r->currents + 6 * s, *i_circ_rec = i_ac_rec + PHASES;
        double *v_row = r->v_c + s * row;
        int8_t *u_row = r->u_rec + s * row;
        const double *i_before = i_ac_rec - 6, *v_before = v_row - row;
        const int8_t *u_before = u_row - row;
        const double half_dc = v_dc_now / 2.0;
        for (int p = p0; p < p1; p++) {
            const double i_ac = i_before[p], i_circ = i_before[PHASES + p];
            const double *v_leg = v_before + p * n2;
            const int8_t *u_leg = u_before + p * n2;
            /* 1. compute_targets and arm_currents */
            double common = half_dc + l_arm_ts * (i_circ - i_circ_nom);
            double drive = z_step * i_ref[p] + v_grid[p] - l_ac_ts * i_ac;
            double half = 0.5 * i_ac;
            double i_arm[2] = {i_circ + half, i_circ - half};
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
                sort_arm(n, ky, u_leg + a * n, v1fc, r->budgets[s], perm + (p * 2 + a) * n, ord);
                /* 4. running sums in sorted order, behind sm[0] = 0.0 */
                double run = 0.0;
                for (int m = 0; m < n; m++) {
                    run += vn[ord[m]];
                    sm[m + 1] = run;
                }
            }
            /* 5. selection over the (n+1) x (n+1) grid */
            int cell = select_cell(n, sums, sums + n + 1, common - drive, common + drive,
                                   w_track, w_circ, w->d_low);
            int chosen[2] = {cell / (n + 1), cell % (n + 1)};
            /* 6. insert the chosen prefixes, then step_phase, into row s:
               inserted capacitors integrate, bypassed ones keep their
               voltage, each arm voltage sums the arm in submodule order
               from 0.0, adding 0.0 for a bypassed submodule: exact, as
               the sum is never -0.0 */
            double arm_volts[2];
            for (int a = 0; a < 2; a++) {
                const int32_t *ord = order + a * n;
                const double *vn = v_next + a * n, *vb = v_leg + a * n;
                double *va = v_row + p * n2 + a * n;
                int8_t *ua = u_row + p * n2 + a * n;
                for (int m = 0; m < n; m++)
                    ua[ord[m]] = m < chosen[a];
                double volts = 0.0;
                for (int j = 0; j < n; j++) {
                    va[j] = ua[j] ? vn[j] : vb[j];
                    volts += ua[j] ? va[j] : 0.0;
                }
                arm_volts[a] = volts;
            }
            double v_up = arm_volts[0], v_low = arm_volts[1];
            i_ac_rec[p] = ((v_low - v_up) / 2.0 - v_grid_next[p] + l_ac_ts * i_ac) / z_step;
            i_circ_rec[p] = circ_gain * (v_dc_now - v_low - v_up) + i_circ;
            if (!(isfinite(i_ac_rec[p]) && isfinite(i_circ_rec[p]))) {
                keep_first(&w->stop, (struct stop){s, p, 1, 0.0});
                return 1;
            }
        }
        if (piline) {
            /* semi-implicit: current from the old bus voltage, voltage
               from the new current */
            r->v_dc_rec[s] = v_dc_now;
            i_line += ts / l_line * (v_dc_nom - v_dc_now);
            v_dc_now += ts / c_end * (i_line - (0.0 + i_circ_rec[0] + i_circ_rec[1] + i_circ_rec[2]));
            if (!(isfinite(v_dc_now) && v_dc_now > 0.0)) {
                keep_first(&w->stop, (struct stop){s, 0, 2, v_dc_now});
                return 1;
            }
        }
    }
    return 0;
}

/* The CPU this thread runs on, or -1 where that cannot be told. */
static int this_cpu(void)
{
#ifdef __linux__
    return sched_getcpu();
#else
    return -1;
#endif
}

#ifdef __linux__
/* The CPUs a second thread first runs on: those its starter may use, in
   *all, but `cpu`, the one the starter runs on, in *others.  On Linux a
   new thread waits in the queue of its starter's CPU until the starter
   blocks, even with another CPU idle, so the two threads would run one
   after the other.  mmcsim_run creates its worker with *others, and the
   worker takes back *all as its first act, so that only where it starts
   changes (see worker_attr); mmcsim_place_thread gives *others for good
   to a thread that Python started, the write stage's second thread.
   1 when that leaves a CPU; 0 when it leaves none or a call fails, and
   then nothing is to change: the thread starts where the system puts it,
   as it does elsewhere than Linux. */
static int other_cpus(int cpu, cpu_set_t *all, cpu_set_t *others)
{
    if (cpu < 0 || sched_getaffinity(0, sizeof *all, all))
        return 0;
    *others = *all;
    CPU_CLR(cpu, others);
    return CPU_COUNT(others) > 0;
}
#endif

/* A stiff-bus run, split so that each thread steps a leg and a half:
   the calling thread steps leg c over [0, half) and then leg b, the
   worker leg a and then leg c over [half, steps), reading the record row
   the calling thread wrote last.  c_state, guarded by lock and handed,
   is 0 until c's first half is stepped, then 1, or -1 when leg c
   stopped in it, so that the worker does not restart it. */
struct split {
    struct legs w[2]; /* the worker's, the calling thread's */
    int64_t half;
    pthread_mutex_t lock;
    pthread_cond_t handed;
    int c_state;
#ifdef __linux__
    /* the calling thread's CPUs, which the worker takes back, when it was
       started off the calling thread's CPU; else empty */
    cpu_set_t cpus;
#endif
};

/* The attributes to start the worker with: in *attr, the CPUs the calling
   thread may use but `cpu`, the one it runs on (see other_cpus), with
   them all kept in sp->cpus; NULL, the defaults, where that places
   nothing. */
static pthread_attr_t *worker_attr(struct split *sp, int cpu, pthread_attr_t *attr)
{
#ifdef __linux__
    cpu_set_t all, others;
    if (other_cpus(cpu, &all, &others) && pthread_attr_init(attr) == 0) {
        if (pthread_attr_setaffinity_np(attr, sizeof others, &others) == 0) {
            sp->cpus = all;
            return attr;
        }
        pthread_attr_destroy(attr);
    }
#else
    (void)sp;
    (void)cpu;
    (void)attr;
#endif
    return NULL;
}

/* one leg of a stiff-bus run over steps [s0, s1); see step_legs.  Not
   inlined: its four calls share one copy of the loop, which times the
   same as a copy per leg */
static __attribute__((noinline)) int step_leg(struct legs *w, int p, int64_t s0, int64_t s1)
{
    return step_legs(w, p, p + 1, 0, s0, s1);
}

/* the worker's share of a split run: leg a, then the second half of c */
static void step_worker_share(struct split *sp)
{
    const int64_t steps = sp->w[0].run->steps;
    step_leg(&sp->w[0], 0, 0, steps);
    pthread_mutex_lock(&sp->lock);
    while (!sp->c_state)
        pthread_cond_wait(&sp->handed, &sp->lock);
    const int go = sp->c_state > 0;
    pthread_mutex_unlock(&sp->lock);
    if (go)
        step_leg(&sp->w[0], 2, sp->half, steps);
}

/* the worker thread: note the CPU it starts on, take back the calling
   thread's CPUs when it was started off that thread's one (see
   worker_attr), and step its share */
static void *step_worker(void *arg)
{
    struct split *sp = arg;
    sp->w[0].cpu = this_cpu();
#ifdef __linux__
    if (CPU_COUNT(&sp->cpus))
        sched_setaffinity(0, sizeof sp->cpus, &sp->cpus);
#endif
    step_worker_share(sp);
    return NULL;
}

/* Run `steps` steps.  budgets is (steps,), refs (steps, 2, 3) i_ref then
   v_grid; the outputs are the record blocks: currents (steps, 2, 3) i_ac
   then i_circ, v_c (steps, 3, 2n), u (steps, 3, 2n) and, when piline is
   set, v_dc (steps,).  refs, currents, v_c and u each have one readable
   row before the row they point at: the start row, the state before step
   0, which step 0 reads as the row before it.

   On a stiff bus the legs share nothing but the clock, and a step reads
   a leg's state from the record row before it, so each of two threads
   steps a leg and a half (see struct split): this thread hands leg c over
   to the worker at step steps / 2.  The worker starts off this thread's
   CPU (see worker_attr).  The pi-line bus couples the legs on every step, and
   this thread steps them all.  When no thread can be started, this one
   steps the worker's share last.

   Returns 0 when the run ends, 1 when the state of phase where[1] turns
   non-finite on step where[0] (its row of currents and v_c is written), 2
   when the bus voltage after step where[0] is not finite and > 0 (*bus
   holds it), and -1 when the work areas cannot be allocated.  The phase
   reported is the scalar loop's: the first to diverge in its step-major
   order, the lowest step, then the lowest phase, over both threads and
   all four stretches.  where[2] and where[3] are the CPUs this thread and
   the worker started stepping on, -1 for no worker or where the CPU
   cannot be told. */
int mmcsim_run(const double *k, int64_t steps, int32_t n, int32_t v1fc, int32_t piline,
               const int16_t *budgets, const double *refs, double *currents,
               double *v_c, int8_t *u_rec, double *v_dc_rec, int64_t *where, double *bus)
{
    const struct run r = {k, steps, n, v1fc, budgets, refs, currents, v_c, v_dc_rec, u_rec};
    struct split sp = {.half = steps / 2, .lock = PTHREAD_MUTEX_INITIALIZER,
                       .handed = PTHREAD_COND_INITIALIZER};
    struct legs *w = sp.w;
    int ok = legs_alloc(&w[0], &r);
    ok = legs_alloc(&w[1], &r) && ok;
    if (!ok) {
        free(w[0].v_next);
        free(w[1].v_next);
        return -1;
    }
    w[1].cpu = this_cpu();
    if (piline) {
        step_legs(&w[1], 0, PHASES, 1, 0, steps);
    } else {
        pthread_t worker;
        pthread_attr_t placed;
        pthread_attr_t *attr = worker_attr(&sp, w[1].cpu, &placed);
        int threaded = pthread_create(&worker, attr, step_worker, &sp) == 0;
        if (attr)
            pthread_attr_destroy(attr);
        const int c_stopped = step_leg(&w[1], 2, 0, sp.half);
        pthread_mutex_lock(&sp.lock);
        sp.c_state = c_stopped ? -1 : 1;
        pthread_cond_signal(&sp.handed);
        pthread_mutex_unlock(&sp.lock);
        step_leg(&w[1], 1, 0, steps);
        if (threaded)
            pthread_join(worker, NULL);
        else
            step_worker_share(&sp);
    }
    keep_first(&w[0].stop, w[1].stop);
    where[0] = w[0].stop.step;
    where[1] = w[0].stop.phase;
    where[2] = w[1].cpu;
    where[3] = w[0].cpu;
    *bus = w[0].stop.bus;
    free(w[0].v_next);
    free(w[1].v_next);
    pthread_cond_destroy(&sp.handed);
    pthread_mutex_destroy(&sp.lock);
    return w[0].stop.code;
}

/* Place the thread `tid` (a Linux thread id, as Python's
   threading.Thread.native_id), just started by this thread, off the CPU
   this thread runs on (see other_cpus), for the rest of its life.
   Returns that CPU, or -1 when nothing changed: elsewhere than Linux,
   with one CPU allowed, or when a call fails. */
int32_t mmcsim_place_thread(int64_t tid)
{
#ifdef __linux__
    cpu_set_t all, others;
    const int cpu = this_cpu();
    if (other_cpus(cpu, &all, &others) && sched_setaffinity((pid_t)tid, sizeof others, &others) == 0)
        return cpu;
#else
    (void)tid;
#endif
    return -1;
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
/* 10^(e+1) at e + 15 for e = -15 .. 30, the nearest binary64 below 1 */
static const double POW10_ABOVE[46] = {
    1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
    1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22, 1e23, 1e24, 1e25, 1e26, 1e27, 1e28, 1e29, 1e30, 1e31,
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
    /* floor(log10 a) from the binary exponent: 78913 / 2^18 is log10(2) to
       8e-7, which gives it or one less, in [-15, 30] here; a comparison
       with the next power of ten adds the one, without a branch that
       values either side of a power of ten (capacitor voltages about
       10^4) would mispredict; the loop corrects what is left */
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    int e = (((int)(bits >> 52) - 1023) * 78913) >> 18;
    e += a >= POW10_ABOVE[e + 15];
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

/* the column kinds of mmcsim_write_columns */
enum { COL_TEXT, COL_F64, COL_I8, COL_I16, COL_I64 };

/* the bytes a '%.9g' text takes at most ("-1.23456789e-308"), and a '%d'
   text of an int64 ("-9223372036854775808") */
#define G9_MAX 16
#define D_MAX 20

/* a float field's previous value and its text: at, where the text was
   written in this block, or text, its copy when the block was written
   out; copied then, not when formatted, as a load of the bytes just
   stored by put_g9 would wait for those stores */
struct g9_memo {
    uint64_t bits;
    int len; /* -1 before the first row */
    const char *at;
    char text[G9_MAX];
};

/* write the n bytes at p to fd, through partial writes and EINTR: 0, or
   -errno */
static int write_all(int fd, const char *p, size_t n)
{
    while (n) {
        ssize_t done = write(fd, p, n);
        if (done < 0 && errno == EINTR)
            continue;
        if (done <= 0)
            return done < 0 ? -errno : -EIO;
        p += done;
        n -= (size_t)done;
    }
    return 0;
}

/* Write head and then rows 0 .. rows-1 of a CSV table to the file
   descriptor fd, block_rows rows at a time through one buffer, and return
   0 or -errno of the write that failed (-ENOMEM when no buffer can be had).
   The row is `count` fields, each described by three int64s (kind, base,
   stride); row r of a number column is read at byte address
   base + r * stride, in unsigned arithmetic, so a negative stride (a
   reversed column) wraps to the row's address without signed overflow:
   - COL_F64, COL_I8, COL_I16, COL_I64: a float64 written as '%.9g', or an
     integer of that width written as '%d';
   - COL_TEXT: the `stride` bytes at base, on every row.
   Fields are separated by "," and each row ends in "\r\n".  A float64
   with the bits of its field's value on the row before gets that row's
   text again, kept in a memo per field for the whole call: bits, not
   ==, because 0.0 == -0.0 and their texts differ.  One allocation holds
   the memo and then the buffer: head, then block_rows rows of each
   field's most bytes and its ",", and "\r\n", and G9_SLACK bytes. */
int mmcsim_write_columns(int32_t fd, const char *head, int64_t head_len, int64_t rows,
                         int64_t block_rows, const int64_t *cols, int32_t count)
{
    size_t row_max = 2;
    for (const int64_t *col = cols; col < cols + 3 * count; col += 3)
        row_max += 1 + (size_t)(col[0] == COL_TEXT ? col[2] : col[0] == COL_F64 ? G9_MAX : D_MAX);
    size_t block_max = (size_t)(rows < block_rows ? rows : block_rows);
    struct g9_memo *memo = malloc((size_t)count * sizeof *memo + (size_t)head_len + block_max * row_max + G9_SLACK);
    if (!memo)
        return -ENOMEM;
    char *out = (char *)(memo + count);
    for (int k = 0; k < count; k++) {
        memo[k].len = -1;
        memo[k].at = memo[k].text;
    }
    memcpy(out, head, (size_t)head_len);
    char *p = out + head_len;
    int failed = 0;
    int64_t r = 0;
    do { /* a block, the header before the first; a table of no rows is the header */
        for (int64_t end = rows - r < block_rows ? rows : r + block_rows; r < end; r++) {
            for (int k = 0; k < count; k++) {
                const int64_t *col = cols + 3 * k;
                const char *at = (const char *)(uintptr_t)((uint64_t)col[1] + (uint64_t)r * (uint64_t)col[2]);
                struct g9_memo *m = memo + k;
                uint64_t bits;
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
                    memcpy(&bits, at, sizeof bits);
                    if (m->len < 0 || bits != m->bits) {
                        memcpy(&x, &bits, sizeof x);
                        m->bits = bits;
                        m->at = p;
                        m->len = (int)(put_g9(p, x) - p);
                    } else {
                        memmove(p, m->at, G9_MAX); /* overlaps when the row before is shorter */
                    }
                    p += m->len;
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
        for (int k = 0; k < count; k++) {
            memmove(memo[k].text, memo[k].at, G9_MAX);
            memo[k].at = memo[k].text;
        }
        failed = write_all(fd, out, (size_t)(p - out));
        p = out;
    } while (!failed && r < rows);
    free(memo);
    return failed;
}
