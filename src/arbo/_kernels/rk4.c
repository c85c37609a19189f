/* Fixed-step RK4 kernels of the forward-backward sweep.
 *
 * Three entry points: rk4_controlled (the forward state pass),
 * rk4_adjoint (the backward adjoint pass) and sweep_step, one whole
 * sweep iteration: both passes, the control update in one pass over the
 * nodes, then the two change norms, each in one branch-free pass over
 * its finished arrays.  The outputs are written into arrays the caller
 * owns (the iterator of _kernels.sweep reuses them from one iteration to
 * the next).
 *
 * The right-hand side and its state derivative are written in the same
 * operation order as their Python counterparts (model.controlled_field,
 * model.field_vjp), the adjoint right-hand side is built from the
 * derivative as model.adjoint_field is, each loop runs in the same
 * order as ode.rk4_nodes does forward and backward, and the control
 * update follows model.characterize_controls term for term, so that
 * without fused multiply-add the two routes agree to the last bit.  The
 * uncontrolled system is the controlled one with zero controls and zero
 * control efficacies.
 *
 * Arrays are C-contiguous doubles: par, cpar and wts = (D1, D2, D3, D4,
 * B1, ..., B5) in the order model.params_to_array gives ModelParams,
 * ControlParams and model.ObjectiveWeights, states and out as
 * (n_steps + 1) x 10 and the controls u as (n_steps + 1) x 5.
 * Every loop stops at the first node holding a NaN or an infinity and
 * returns its index.  It returns NO_HUMANS when a right-hand side met a
 * zero or negative human total (where the Python right-hand sides raise
 * ZeroPopulationError), and FINITE when all nodes are finite.
 */

#include <math.h>

enum {
    LAM, MUH, A, BHV, BVH, GAMH, DELTA, SIGMA, ETAH, ETAV, MUV, GAMV,
    THETA, MUB, GE, GL, MUE, MUL, MUP, S, L
};
enum { OMEGA, ALPHA1, ALPHA2, CM, ETA1, ETA2 };
enum { SH, EH, IH, RH, SV, EV, IV, EGG, LAR, PUP, NX };
enum { NU = 5 };
enum { FINITE = -1, NO_HUMANS = -2 };

/* The human total and the two forces of infection (model._infection),
 * given the biting rates bite = (a * beta_hv, a * beta_vh), which the
 * node loop of the control update computes once; returns nonzero when
 * the human total is <= 0, as does each right-hand side. */
static int infection(const double *x, const double *p, const double *bite,
                     double *n_h, double *foi_h, double *foi_v)
{
    *n_h = x[SH] + x[EH] + x[IH] + x[RH];
    *foi_h = bite[0] * (p[ETAV] * x[EV] + x[IV]) / *n_h;
    *foi_v = bite[1] * (p[ETAH] * x[EH] + x[IH]) / *n_h;
    return *n_h <= 0.0;
}

static int controlled_rhs(const double *x, const double *u, const double *p,
                          const double *c, double *dx)
{
    const double bite[2] = {p[A] * p[BHV], p[A] * p[BVH]};
    double n_h, foi_h, foi_v;
    int empty = infection(x, p, bite, &n_h, &foi_h, &foi_v);
    double n_v = x[SV] + x[EV] + x[IV];
    double protect = 1.0 - c[ALPHA1] * u[1];
    double foi_h_c = protect * foi_h;
    double foi_v_c = protect * foi_v;
    double mu_v_c = p[MUV] + c[CM] * u[3];
    dx[SH] = p[LAM] - (foi_h_c + p[MUH] + u[0]) * x[SH] + c[OMEGA] * u[0] * x[RH];
    dx[EH] = foi_h_c * x[SH] - (p[MUH] + p[GAMH]) * x[EH];
    dx[IH] = p[GAMH] * x[EH]
             - (p[MUH] + (1.0 - c[ALPHA2] * u[2]) * p[DELTA] + p[SIGMA]
                + c[ALPHA2] * u[2]) * x[IH];
    dx[RH] = (p[SIGMA] + c[ALPHA2] * u[2]) * x[IH] + u[0] * x[SH]
             - (p[MUH] + c[OMEGA] * u[0]) * x[RH];
    dx[SV] = p[THETA] * x[PUP] - foi_v_c * x[SV] - mu_v_c * x[SV];
    dx[EV] = foi_v_c * x[SV] - (p[MUV] + p[GAMV] + c[CM] * u[3]) * x[EV];
    dx[IV] = p[GAMV] * x[EV] - mu_v_c * x[IV];
    dx[EGG] = p[MUB] * (1.0 - x[EGG] / p[GE]) * n_v
              - (p[S] + p[MUE] + c[ETA1] * u[4]) * x[EGG];
    dx[LAR] = p[S] * x[EGG] * (1.0 - x[LAR] / p[GL])
              - (p[L] + p[MUL] + c[ETA2] * u[4]) * x[LAR];
    dx[PUP] = p[L] * x[LAR] - (p[THETA] + p[MUP]) * x[PUP];
    return empty;
}

/* J^T l for the state Jacobian J of controlled_rhs (model.field_vjp). */
static int field_vjp(const double *x, const double *u, const double *l,
                     const double *p, const double *c, double *g)
{
    const double bite[2] = {p[A] * p[BHV], p[A] * p[BVH]};
    double n_h, foi_h, foi_v;
    int empty = infection(x, p, bite, &n_h, &foi_h, &foi_v);
    double n_v = x[SV] + x[EV] + x[IV];
    double protect = 1.0 - c[ALPHA1] * u[1];
    double mu_v_c = p[MUV] + c[CM] * u[3];
    double treat = c[ALPHA2] * u[2];
    double egg_room = p[MUB] * (1.0 - x[EGG] / p[GE]);
    double flux_h = (l[EH] - l[SH]) * protect;
    double flux_v = (l[EV] - l[SV]) * protect;
    double via_n_h = -(flux_h * foi_h * x[SH] + flux_v * foi_v * x[SV]) / n_h;
    g[SH] = via_n_h + flux_h * foi_h - (p[MUH] + u[0]) * l[SH] + u[0] * l[RH];
    g[EH] = via_n_h + flux_v * p[A] * p[BVH] * p[ETAH] * x[SV] / n_h
            - (p[MUH] + p[GAMH]) * l[EH] + p[GAMH] * l[IH];
    g[IH] = via_n_h + flux_v * p[A] * p[BVH] * x[SV] / n_h
            - (p[MUH] + (1.0 - treat) * p[DELTA] + p[SIGMA] + treat) * l[IH]
            + (p[SIGMA] + treat) * l[RH];
    g[RH] = via_n_h + c[OMEGA] * u[0] * l[SH] - (p[MUH] + c[OMEGA] * u[0]) * l[RH];
    g[SV] = flux_v * foi_v - mu_v_c * l[SV] + egg_room * l[EGG];
    g[EV] = flux_h * p[A] * p[BHV] * p[ETAV] * x[SH] / n_h
            - (p[MUV] + p[GAMV] + c[CM] * u[3]) * l[EV] + p[GAMV] * l[IV]
            + egg_room * l[EGG];
    g[IV] = flux_h * p[A] * p[BHV] * x[SH] / n_h - mu_v_c * l[IV]
            + egg_room * l[EGG];
    g[EGG] = -(p[MUB] * n_v / p[GE] + p[S] + p[MUE] + c[ETA1] * u[4]) * l[EGG]
             + p[S] * (1.0 - x[LAR] / p[GL]) * l[LAR];
    g[LAR] = -(p[S] * x[EGG] / p[GL] + p[L] + p[MUL] + c[ETA2] * u[4]) * l[LAR]
             + p[L] * l[PUP];
    g[PUP] = p[THETA] * l[SV] - (p[THETA] + p[MUP]) * l[PUP];
    return empty;
}

/* -dH/dx (model.adjoint_field): minus the running cost's state
 * gradient and J^T l; only the state penalties w[0..3] = D1..D4 enter. */
static int adjoint_rhs(const double *l, const double *x, const double *u,
                       const double *p, const double *c, const double *w,
                       double *d)
{
    const double cost[NX] = {0.0, 0.0, w[0], 0.0, w[1], w[1], w[1],
                             w[2], w[3], 0.0};
    double vjp[NX];
    int empty = field_vjp(x, u, l, p, c, vjp);
    for (int j = 0; j < NX; j++)
        d[j] = -(cost[j] + vjp[j]);
    return empty;
}

static int all_finite(const double *v)
{
    for (int j = 0; j < NX; j++)
        if (!isfinite(v[j]))
            return 0;
    return 1;
}

long rk4_controlled(const double *par, const double *cpar, const double *x0,
                    const double *u, long n_steps, double dt, double *out)
{
    double k1[NX], k2[NX], k3[NX], k4[NX], xs[NX], x[NX], u_mid[NU];
    for (int j = 0; j < NX; j++)
        out[j] = x[j] = x0[j];
    for (long i = 0; i < n_steps; i++) {
        const double *u_lo = u + i * NU, *u_hi = u_lo + NU;
        for (int j = 0; j < NU; j++)
            u_mid[j] = 0.5 * (u_lo[j] + u_hi[j]);
        int empty = controlled_rhs(x, u_lo, par, cpar, k1);
        for (int j = 0; j < NX; j++)
            xs[j] = x[j] + 0.5 * dt * k1[j];
        empty |= controlled_rhs(xs, u_mid, par, cpar, k2);
        for (int j = 0; j < NX; j++)
            xs[j] = x[j] + 0.5 * dt * k2[j];
        empty |= controlled_rhs(xs, u_mid, par, cpar, k3);
        for (int j = 0; j < NX; j++)
            xs[j] = x[j] + dt * k3[j];
        empty |= controlled_rhs(xs, u_hi, par, cpar, k4);
        if (empty)
            return NO_HUMANS;
        for (int j = 0; j < NX; j++)
            x[j] = x[j] + (dt / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
        if (!all_finite(x))
            return i + 1;
        for (int j = 0; j < NX; j++)
            out[(i + 1) * NX + j] = x[j];
    }
    return FINITE;
}

/* Backward from the zero terminal value; the intermediate stages use the
 * average of the two adjacent nodes' states and controls. */
long rk4_adjoint(const double *par, const double *cpar, const double *wts,
                 const double *states, const double *u, long n_steps,
                 double dt, double *out)
{
    double k1[NX], k2[NX], k3[NX], k4[NX], ls[NX], lam[NX];
    double x_mid[NX], u_mid[NU];
    for (int j = 0; j < NX; j++)
        out[n_steps * NX + j] = lam[j] = 0.0;
    for (long i = n_steps - 1; i >= 0; i--) {
        const double *x_lo = states + i * NX, *x_hi = x_lo + NX;
        const double *u_lo = u + i * NU, *u_hi = u_lo + NU;
        for (int j = 0; j < NX; j++)
            x_mid[j] = 0.5 * (x_lo[j] + x_hi[j]);
        for (int j = 0; j < NU; j++)
            u_mid[j] = 0.5 * (u_lo[j] + u_hi[j]);
        int empty = adjoint_rhs(lam, x_hi, u_hi, par, cpar, wts, k1);
        for (int j = 0; j < NX; j++)
            ls[j] = lam[j] - 0.5 * dt * k1[j];
        empty |= adjoint_rhs(ls, x_mid, u_mid, par, cpar, wts, k2);
        for (int j = 0; j < NX; j++)
            ls[j] = lam[j] - 0.5 * dt * k2[j];
        empty |= adjoint_rhs(ls, x_mid, u_mid, par, cpar, wts, k3);
        for (int j = 0; j < NX; j++)
            ls[j] = lam[j] - dt * k3[j];
        empty |= adjoint_rhs(ls, x_lo, u_lo, par, cpar, wts, k4);
        if (empty)
            return NO_HUMANS;
        for (int j = 0; j < NX; j++)
            lam[j] = lam[j] - (dt / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
        if (!all_finite(lam))
            return i;
        for (int j = 0; j < NX; j++)
            out[i * NX + j] = lam[j];
    }
    return FINITE;
}

/* The stationary-point controls at one node (model.characterize_controls):
 * the root of dH/du_j, clamped to [0, 1] as np.clip does (NaN and -0.0
 * pass through), times the strategy mask; two_b = (2 B1, ..., 2 B5). */
static int characterize(const double *x, const double *l, const double *p,
                        const double *c, const double *bite,
                        const double *two_b, const double *mask, double *u)
{
    double n_h, fh, fv;
    int empty = infection(x, p, bite, &n_h, &fh, &fv);
    u[0] = (l[SH] - l[RH]) * (x[SH] - c[OMEGA] * x[RH]) / two_b[0];
    u[1] = c[ALPHA1] * (fh * x[SH] * (l[EH] - l[SH])
                        + fv * x[SV] * (l[EV] - l[SV])) / two_b[1];
    u[2] = c[ALPHA2] * ((1.0 - p[DELTA]) * l[IH] - l[RH]) * x[IH] / two_b[2];
    u[3] = c[CM] * (x[SV] * l[SV] + x[EV] * l[EV] + x[IV] * l[IV]) / two_b[3];
    u[4] = (c[ETA1] * x[EGG] * l[EGG] + c[ETA2] * x[LAR] * l[LAR]) / two_b[4];
    for (int j = 0; j < NU; j++)
        u[j] = (u[j] < 0.0 ? 0.0 : u[j] > 1.0 ? 1.0 : u[j]) * mask[j];
    return empty;
}

/* max|new - old| / max(1, max|new|) over count entries, with Python's
 * max(1.0, NaN) = 1.0 (_kernels._rel_sup_change): NaN when any
 * difference is NaN, as np.max gives.  A NaN flag and plain maxima keep
 * the loop free of branches.  The maximum of values >= +0.0 does not
 * depend on the order they are taken in, so W interleaved maxima, which
 * the compiler can hold in vector registers, give the same value. */
static double rel_change(const double *new, const double *old, long count)
{
    enum { W = 4 };
    double diff[W] = {0.0}, size[W] = {0.0};
    int nan = 0;
    for (long k = 0; k < count; k += W)
        for (int j = 0; j < W && k + j < count; j++) {
            double d = fabs(new[k + j] - old[k + j]), s = fabs(new[k + j]);
            nan |= isnan(d);
            diff[j] = d > diff[j] ? d : diff[j];
            size[j] = s > size[j] ? s : size[j];
        }
    for (int j = 1; j < W; j++) {
        diff[0] = diff[j] > diff[0] ? diff[j] : diff[0];
        size[0] = size[j] > size[0] ? size[j] : size[0];
    }
    return nan ? NAN : diff[0] / (size[0] > 1.0 ? size[0] : 1.0);
}

/* One sweep iteration: the forward pass under u into states, the
 * adjoint pass into adjoints, then at every node the relaxed update
 * u_new = mix * u_char + (1 - mix) * u, and change = (relative sup-norm
 * change of u_new against u, of states against prev_states), each over
 * the finished arrays.  With prev_states NULL the state change is
 * infinite.  Returns as the passes do.  The node loop's invariants
 * (the biting rates, 2 B_j, 1 - mix) are computed once; each is the
 * product the per-node expression would form, so no value moves. */
long sweep_step(const double *par, const double *cpar, const double *wts,
                const double *mask, double mix, const double *x0,
                const double *u, const double *prev_states, long n_steps,
                double dt, double *states, double *adjoints, double *u_new,
                double *change)
{
    long bad = rk4_controlled(par, cpar, x0, u, n_steps, dt, states);
    if (bad == FINITE)
        bad = rk4_adjoint(par, cpar, wts, states, u, n_steps, dt, adjoints);
    if (bad != FINITE)
        return bad;
    const double bite[2] = {par[A] * par[BHV], par[A] * par[BVH]};
    const double *b = wts + 4;
    const double two_b[NU] = {2.0 * b[0], 2.0 * b[1], 2.0 * b[2], 2.0 * b[3],
                              2.0 * b[4]};
    const double keep = 1.0 - mix;
    double u_char[NU];
    for (long i = 0; i <= n_steps; i++) {
        if (characterize(states + i * NX, adjoints + i * NX, par, cpar, bite,
                         two_b, mask, u_char))
            return NO_HUMANS;
        for (int j = 0; j < NU; j++)
            u_new[i * NU + j] = mix * u_char[j] + keep * u[i * NU + j];
    }
    long rows = n_steps + 1;
    change[0] = rel_change(u_new, u, rows * NU);
    change[1] = prev_states ? rel_change(states, prev_states, rows * NX)
                            : INFINITY;
    return FINITE;
}
