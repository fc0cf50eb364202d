"""Weighted max-min power and split allocation via condensed geometric programs.

The per-weight problem (maximize the smallest weighted rate subject to
harvesting demands and box constraints) is a signomial program: every
constraint is a ratio N_i / D_i <= 1 of posynomials in the transmit powers
p, the splitting coefficients eta and the epigraph variable lambda = 2^beta.
Each outer iteration replaces every denominator D_i with its
arithmetic-geometric mean monomial lower bound anchored at the previous
solution (single condensation), which yields a geometric program.  In
secure mode the eavesdropper's covariance determinants are exact
posynomials in the powers (Cauchy-Binet), so 2^{-R_Ek} is a ratio of
posynomials as well and each condensed GP is an inner approximation of the
true problem: started at a feasible point, every GP iterate is feasible for
it and the objective never decreases.  In log variables every row is
log N_i - log D_i <= 0, with D_i the posynomial for the exact problem and
its monomial for the GP, where the row is convex; a GpInstance holds each
of the two row sets once, as a Layout.  One primal-dual interior-point
method solves both: the GPs, and the exact rows after the first GP, which
finishes most solves at once; the condensation loop goes on only where
that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .metrics import legitimate_rates, max_min_objective, secrecy_corner
from .model import (BAD_VALUE, DIMENSION_MISMATCH, ConfigError, DecodingOrder,
                    InfeasibleError, NumericalFailureError, OperatingPoint,
                    SystemConfig, Weights, infeasible_demands,
                    max_deliverable_energy, max_splits)

SECURE = "secure"
RELIABLE = "reliable"
MODES = (SECURE, RELIABLE)

# Outer loop: relative change of the GP optimum that counts as converged and
# the iteration budget.
EPS_CONV = 1e-6
MAX_ITERS = 100
# Positivity floor of each power and split, as a fraction of its cap.
FLOOR_FRAC = 1e-6
# Largest constraint violation a GP solution may keep.
FEAS_TOL = 1e-8
# Interior-point solve of each GP: the Newton-step budget; the duality gap
# and row violation at which it stops; the barrier parameter of a cold start
# and of a start from an earlier GP's multipliers, which also floors each
# starting slack; and how far the KKT error may exceed the barrier parameter
# before that falls.
IPM_MAXITER = 50
IPM_TOL = 1e-10
IPM_MU0 = 1e-3
IPM_MU_WARM = 1e-8
IPM_KAPPA = 300.0


# ---------------------------------------------------------------------------
# Posynomial algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Posynomial:
    """Sum of monomials c_t * prod_i x_i^{a_ti} with positive coefficients.

    coeffs has shape (T,), exponents (T, n).  A single-term posynomial is a
    monomial.
    """

    coeffs: np.ndarray
    exponents: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        e = np.atleast_2d(np.asarray(self.exponents, dtype=float))
        if c.size == 0:
            raise ConfigError([(BAD_VALUE, "coeffs", "posynomial needs at least one term")])
        if np.any(c <= 0) or not np.all(np.isfinite(c)):
            raise ConfigError([(BAD_VALUE, "coeffs", f"must be finite and > 0, got {c}")])
        if e.shape[0] != c.size:
            raise ConfigError([(DIMENSION_MISMATCH, "exponents",
                                f"{e.shape[0]} rows for {c.size} coefficients")])
        c.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "exponents", e)

    @property
    def num_terms(self) -> int:
        return self.coeffs.size

    def term_values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.coeffs * np.exp(self.exponents @ np.log(x))

    def value(self, x) -> float:
        return float(self.term_values(x).sum())


def _log_posynomials(a, b, starts, seg, z):
    """log g_i(exp(z)) for every stacked posynomial g_i, and each term's share
    of its posynomial (the weights of the log-sum-exp gradient)."""
    r = a @ z + b
    m = np.maximum.reduceat(r, starts)
    e = np.exp(r - m[seg])
    s = np.add.reduceat(e, starts)
    return m + np.log(s), e / s[seg]


def _row_jacobian(a, starts, shares, out=None) -> np.ndarray:
    """Gradient of each stacked log-sum-exp row: its exponent rows weighted by
    the term shares of _log_posynomials (written into ``out`` if given)."""
    return np.add.reduceat(shares[:, None] * a, starts, out=out)


def _condense(a, b, starts, seg, y) -> tuple:
    """Exponents and log-coefficients of each stacked posynomial's monomial
    lower bound sum_t f_t >= prod_t (f_t / c_t)^{c_t}, with c_t each term's
    share at x = exp(y), so the bound touches the posynomial there; the
    exponents are the gradient of the log posynomial at y."""
    _, c = _log_posynomials(a, b, starts, seg, y)
    if not np.all(c > 0):
        raise NumericalFailureError(f"term shares must be finite and > 0, got {c}")
    return _row_jacobian(a, starts, c), np.add.reduceat(c * (b - np.log(c)), starts)


class Layout(NamedTuple):
    """Rows N_i / D_i of posynomials, stacked term by term and laid out once
    for every interior-point run over them.  ``m`` is the run's matrix
    M = [A; P; G] without the parts that move: A stacks the numerators' and
    then the denominators' term exponents (filled), P holds each of those
    posynomials' gradient and G = [J; I; -I] the rows' Jacobian J = P_N -
    P_D over the box (only the box filled).  ``b`` holds each term's
    log-coefficient, ``starts`` each posynomial's first term and ``seg``
    each term's posynomial, denominator i as posynomial rows + i.  ``row``
    and ``sign`` give each term and then each posynomial the row it belongs
    to and the sign of its part of that row's Hessian."""
    m: np.ndarray
    b: np.ndarray
    starts: np.ndarray
    seg: np.ndarray
    row: np.ndarray
    sign: np.ndarray

    def part(self, den: bool) -> tuple:
        """The numerators' (den False) or the denominators' terms as the
        (a, b, starts, seg) that _log_posynomials and _condense take, with
        the part's own term and posynomial indices."""
        rows = self.starts.size // 2
        cut = self.starts[rows]
        if den:
            return (self.m[cut:self.b.size], self.b[cut:], self.starts[rows:] - cut,
                    self.seg[cut:] - rows)
        return self.m[:cut], self.b[:cut], self.starts[:rows], self.seg[:cut]


def _layout(num, den) -> Layout:
    """The read-only Layout of the rows num_i / den_i, each side given as
    the (a, b, starts, seg) of Layout.part."""
    (a_num, b_num, starts_num, seg_num), (a_den, b_den, starts_den, seg_den) = num, den
    rows, n = starts_num.size, a_num.shape[1]
    terms = b_num.size + b_den.size
    m = np.zeros((terms + 3 * rows + 2 * n, n))
    m[:terms] = np.vstack([a_num, a_den])
    m[terms + 3 * rows:] = np.vstack([np.eye(n), -np.eye(n)])
    seg = np.concatenate([seg_num, seg_den + rows])
    # H_i = sum_t c_t a_t a_t^T - p p^T for each posynomial, and row i's
    # Hessian is H_Ni - H_Di.
    posy = np.arange(2 * rows)
    layout = Layout(m, np.concatenate([b_num, b_den]),
                    np.concatenate([starts_num, starts_den + b_num.size]), seg,
                    np.concatenate([seg, posy]) % rows,
                    np.concatenate([np.where(seg < rows, 1.0, -1.0),
                                    np.where(posy < rows, -1.0, 1.0)]))
    for array in layout:
        array.setflags(write=False)
    return layout


def _posynomial_layout(nums, dens) -> Layout:
    """_layout of the rows nums_i / dens_i, each posynomial given as its
    (coefficients (T,), exponents (T, n)); every posynomial needs a term,
    and every coefficient must be finite and > 0 before it is logged, or
    NumericalFailureError is raised."""
    parts = []
    for side in (nums, dens):
        coeffs, exponents = zip(*side)
        sizes = [c.size for c in coeffs]
        if 0 in sizes:
            raise NumericalFailureError("every term of a posynomial vanished")
        coeffs = np.concatenate(coeffs)
        bad = ~((coeffs > 0) & np.isfinite(coeffs))
        if bad.any():
            raise NumericalFailureError(f"coefficients must be finite and > 0, "
                                        f"got {coeffs[bad]}")
        parts.append((np.vstack(exponents), np.log(coeffs), np.cumsum([0] + sizes[:-1]),
                      np.repeat(np.arange(len(sizes)), sizes)))
    return _layout(*parts)


def condense(posy: Posynomial, anchor) -> Posynomial:
    """Monomial lower bound of ``posy``, exact at ``anchor``: the one-row case
    of the stacked condensation that GpInstance.recondensed runs."""
    anchor = np.asarray(anchor, dtype=float)
    if np.any(anchor <= 0) or not np.all(np.isfinite(anchor)):
        raise ConfigError([(BAD_VALUE, "anchor", f"must be finite and > 0, got {anchor}")])
    exponents, log_coef = _condense(posy.exponents, np.log(posy.coeffs), np.zeros(1, int),
                                    np.zeros(posy.num_terms, int), np.log(anchor))
    return Posynomial(np.exp(log_coef), exponents)


# ---------------------------------------------------------------------------
# GP construction
# ---------------------------------------------------------------------------

# Variable layout: index 0 is lambda, then the K powers, then the K splits.

def check_problem(cfg: SystemConfig, alpha: Weights, order: Optional[DecodingOrder],
                  mode: str, start: Optional[OperatingPoint] = None) -> None:
    """Raise ConfigError listing every violation unless ``alpha`` and
    ``order`` (unless None) have one entry per user, ``mode`` is one of
    MODES and ``start`` (unless None) one finite power per user: the
    per-call check of a problem, whose config checked itself when made."""
    kk = cfg.num_users
    bad = [(DIMENSION_MISMATCH, name, f"needs {kk} entries, got {size}")
           for name, size in (("alpha", alpha.alpha.size),
                              ("order", kk if order is None else len(order)))
           if size != kk]
    if mode not in MODES:
        bad.append((BAD_VALUE, "mode", f"must be one of {MODES}, got {mode!r}"))
    if start is not None and not (start.powers.size == kk and np.isfinite(start.powers).all()):
        bad.append((BAD_VALUE, "start", f"needs {kk} finite powers, got {start.powers}"))
    if bad:
        raise ConfigError(bad)


def variable_box(cfg: SystemConfig) -> tuple:
    """Floors and caps of x = (lambda, p, eta): each power between FLOOR_FRAC
    times its budget and its budget, and each split at most 1 and at least
    min(FLOOR_FRAC, half its largest value at full power), so every demand
    that some point meets is met inside the box.  Lambda has no floor;
    solve_gp sets it.  Computed once per config and kept with it
    (SystemConfig.cached), so both arrays are read-only."""
    def build():
        pmax = cfg.power_budget
        eta_floors = np.clip(0.5 * max_splits(cfg, pmax), 0.0, FLOOR_FRAC)
        return (np.concatenate([[0.0], FLOOR_FRAC * pmax, eta_floors]),
                np.concatenate([[2.0 ** 64], pmax, np.ones(cfg.num_users)]))
    return cfg.cached("box", build)


@dataclass(frozen=True, eq=False)
class GpInstance:
    """The max-min problem over x = (lambda, p, eta) between ``floors`` and
    ``caps`` (whose logs are ``log_box``): maximize lambda subject to the
    rows N_i(x) / D_i(x) <= 1 of ``exact``.  Condensed at ``anchor``, it is
    the GP of ``condensed``, whose row i is N_i over D_i's monomial lower
    bound exact there; recondensed moves it.  Copies share every array.
    """

    num_users: int
    labels: list
    floors: np.ndarray
    caps: np.ndarray
    log_box: tuple
    exact: Layout
    anchor: Optional[np.ndarray] = None
    condensed: Optional[Layout] = None

    @property
    def constraints(self) -> list:
        """Each condensed row, its numerator over its monomial, as a
        Posynomial, for inspection."""
        a, b, starts, seg = self.condensed.part(False)
        mono_a, mono_b, _, _ = self.condensed.part(True)
        cut = starts[1:]
        return [Posynomial(np.exp(log_coefs), exponents) for exponents, log_coefs in
                zip(np.split(a - mono_a[seg], cut), np.split(b - mono_b[seg], cut))]

    def recondensed(self, anchor: OperatingPoint) -> "GpInstance":
        """The same GP with every denominator condensed at ``anchor``: the
        numerators of ``exact`` laid out over the monomials."""
        x = np.clip(np.concatenate([[1.0], anchor.powers, anchor.splits]),
                    self.floors, self.caps)
        if not np.all(np.isfinite(x) & (x > 0)):
            raise NumericalFailureError(f"anchor must be finite and > 0, got {x}")
        exponents, log_coefs = _condense(*self.exact.part(True), np.log(x))
        rows = np.arange(log_coefs.size)
        return replace(self, anchor=x, condensed=_layout(
            self.exact.part(False), (exponents, log_coefs, rows, rows)))


def _terms(coeffs, exponents) -> tuple:
    """The terms with a nonzero coefficient: a zero gain, offset or minor
    leaves its term out of the row."""
    keep = coeffs != 0.0
    return coeffs[keep], exponents[keep]


def _times(left, right) -> tuple:
    """Terms of the product of two posynomials, row-major over their terms;
    the coefficients are products, logged only by _posynomial_layout."""
    (c1, e1), (c2, e2) = left, right
    return (np.outer(c1, c2).ravel(),
            (e1[:, None, :] + e2[None, :, :]).reshape(c1.size * c2.size, -1))


def build_gp(cfg: SystemConfig, alpha: Weights, order: DecodingOrder,
             anchor: OperatingPoint, mode: str) -> GpInstance:
    """Emit the GP condensed at ``anchor``.

    Per user: the rate/secrecy constraint (skipped when alpha_k = 0) and the
    harvesting constraint (skipped when it is vacuous for every feasible
    point); the box of variable_box bounds the variables.  Each row's terms
    come straight from the gains, noises, harvest offsets and Gram minors.
    User k's secrecy row is lambda^alpha_k A_k E(S + k) <= D_k E(S), where
    R_k = log2(D_k / A_k), S holds the users decoded after k and E is the
    eavesdropper determinant, whose terms are SystemConfig.eve_det_terms.
    The weights are only lambda's exponents in the rate rows, set on the
    cached _weight_free_rows, and the anchor only enters the denominators'
    monomials, which GpInstance.recondensed moves.  Lambda's anchor
    value is 1; solve_gp sets it.  An invalid problem, the anchor checked as
    its start, raises ConfigError (check_problem).
    """
    check_problem(cfg, alpha, order, mode, anchor)
    return _weighted_rows(cfg, alpha, order, mode).recondensed(anchor)


def _weighted_rows(cfg: SystemConfig, alpha: Weights, order: DecodingOrder,
                   mode: str) -> GpInstance:
    """build_gp's GP before it is condensed (no anchor or condensed rows):
    the cached _weight_free_rows with the weights as lambda's exponents,
    written into a read-only copy of their exact layout's matrix."""
    support = alpha.alpha > 0
    unanchored, lam = cfg.cached(
        ("rows", mode, order.users if mode == SECURE else None, support.tobytes()),
        lambda: _weight_free_rows(cfg, support, order, mode))
    m = unanchored.exact.m.copy()
    m[:lam.shape[0], 0] = lam @ alpha.alpha
    m.setflags(write=False)
    return replace(unanchored, exact=unanchored.exact._replace(m=m))


def _weight_free_rows(cfg: SystemConfig, support, order: DecodingOrder,
                      mode: str) -> tuple:
    """build_gp's unanchored GP for the users in ``support`` with lambda's
    exponent 0 in every term, and the 0/1 matrix that maps the weights to
    lambda's exponents: user k's weight in each term of its rate row."""
    kk = cfg.num_users
    unit = np.eye(1 + 2 * kk)
    p_rows, eta_rows = unit[1:kk + 1], unit[kk + 1:]
    none = np.zeros(1 + 2 * kk)
    g = cfg.gain_powers
    c_eh, d_eh = cfg.harvest_offsets

    def eve_det(users):
        terms = cfg.eve_det_terms(users)
        return _terms(np.array([minor for _, minor in terms]),
                      np.array([p_rows[list(t)].sum(axis=0) for t, _ in terms]))

    rows = []   # (numerator, denominator, label, user of a rate row or -1)
    for k in range(kk):
        eta = eta_rows[k]
        if support[k]:
            # D_k = sig^2 + eta_k (rho^2 + sum_j g_kj p_j); A_k lacks j = k.
            others = [j for j in range(kk) if j != k]
            coeffs = np.concatenate([[cfg.processing_noise_vars[k],
                                      cfg.antenna_noise_vars[k]], g[k, others], [g[k, k]]])
            exponents = np.vstack([none, eta, eta + p_rows[others], eta + p_rows[k]])
            num = _terms(coeffs[:-1], exponents[:-1])
            den = _terms(coeffs, exponents)
            if mode == SECURE:
                after = list(order.users[order.users.index(k) + 1:])
                num = _times(num, eve_det(after + [k]))
                den = _times(den, eve_det(after))
            rows.append((num, den, f"rate[{k}]", k))

        # psi <= c + (1 - eta)(T + d)  <=>  (psi - c) + eta d + eta T <= T + d;
        # vacuous whenever psi <= c because eta <= 1.
        psi = cfg.eh_demands[k]
        if psi > c_eh[k]:
            num = _terms(np.concatenate([[psi - c_eh[k], d_eh[k]], g[k]]),
                         np.vstack([none, eta, eta + p_rows]))
            den = _terms(np.append(g[k], d_eh[k]), np.vstack([p_rows, none]))
            rows.append((num, den, f"eh[{k}]", -1))

    nums, dens, labels, users = zip(*rows)
    floors, caps = variable_box(cfg)
    with np.errstate(divide="ignore"):      # a zero floor means no bound
        log_box = (np.log(floors), np.log(caps))
    exact = _posynomial_layout(nums, dens)
    gp = GpInstance(num_users=kk, labels=list(labels), floors=floors, caps=caps,
                    log_box=log_box, exact=exact)
    return gp, (np.array(users)[exact.part(False)[3], None] == np.arange(kk)) * 1.0


# ---------------------------------------------------------------------------
# Log-space solve
# ---------------------------------------------------------------------------

def _log_rows(rows: Layout, y) -> tuple:
    """Each row's log value at y, log N_i(y) - log D_i(y), and each term's
    share of its posynomial (the weights of the log-sum-exp gradient)."""
    f, shares = _log_posynomials(rows.m[:rows.b.size], rows.b, rows.starts,
                                 rows.seg, y)
    nrows = f.size // 2
    return f[:nrows] - f[nrows:], shares


def _exact_lambda(rows: Layout, y) -> tuple:
    """y with log lambda set in closed form, and the largest log row value
    there (the worst violation; every rate row is at most 0), over the rows
    N_i / D_i.

    lambda enters every term of rate row k as lambda^alpha_k and no other
    row or denominator, so the shift makes the tightest rate row exactly
    active, and it moves row i's log value by alpha_i times the shift: the
    rows are evaluated once, at y.  A row with a far sub-rounding weight
    turns rounding noise into a huge shift, so a feasible y is kept when
    the shift costs more.  Every monomial is exact at its anchor, so over
    a GP's condensed rows at y = log(gp.anchor) these are the anchor's
    exact objective and feasibility.
    """
    log_g, _ = _log_rows(rows, y)
    alphas = rows.m[rows.starts[:log_g.size], 0]
    rate = alphas > 0
    tight = y.copy()
    tight[0] -= np.max(log_g[rate] / alphas[rate])
    worst = log_g.max()
    if tight[0] < y[0] - FEAS_TOL and worst <= FEAS_TOL:
        return y, float(worst)
    return tight, float((log_g + alphas * (tight[0] - y[0])).max())


def _newton_matrix(rows: Layout, m, shares, z, d) -> np.ndarray:
    """sum_i z_i (H_Ni - H_Di) + G^T diag(d) G as the one product
    M^T diag(w) M over the run's matrix ``m`` = [A; P; G] of rows' Layout,
    with its gradients and Jacobian filled: each posynomial's Hessian is
    A^T diag(c) A - p p^T over its terms' shares c and its gradient p, so
    a term's weight is its share times its row's multiplier, a gradient's
    its row's multiplier negated, each signed by numerator or denominator,
    and G's rows are weighted by d."""
    w = np.concatenate([rows.sign * z[rows.row], d])
    w[:shares.size] *= shares
    return m.T @ (w[:, None] * m)


def _interior_point(rows: Layout, y, lo, hi, z=None) -> tuple:
    """Maximize y[0] subject to the rows log N_i(y) - log D_i(y) <= 0 and
    lo <= y <= hi, from y; returns the last iterate, its multipliers,
    whether it converged and the number of Newton systems solved.  ``rows``
    lays out the numerators over one denominator per row: the posynomials
    themselves, or a GP's monomials, where every row is convex.

    A primal-dual interior-point method in slack form, g(y) + s = 0 with
    g = [f; y - hi; lo - y], s >= 0 and multipliers z >= 0 (Boyd and
    Vandenberghe, Convex Optimization, 11.7).  Each row's gradient is
    J_N - J_D and its Hessian H_N - H_D, the difference of its numerator's
    and denominator's (a monomial's is 0).  Each Newton step targets
    s_i z_i = mu and solves the n x n system sum_i z_i (H_Ni - H_Di) +
    G^T diag(z/s) G (G the Jacobian of g), plus an absolute 1e-12 ridge
    that keeps a direction no row or bound curves (a split that nothing
    binds) solvable.  The exact rows are not convex, so the system gets the
    inertia correction of Waechter and Biegler (Math. Program. 2006):
    delta I with the first delta of 0, 1e-8, 1e-7, ... at which a Cholesky
    factorisation succeeds, so each step is a direction of ascent of the
    barrier problem (Nocedal and Wright, Numerical Optimization, 19.3); a
    GP's system is positive definite, so delta stays 0 there.  The start
    need not meet the rows or the box.  A cold start sets every pair at
    s_i z_i = mu = IPM_MU0, with s = max(-g, IPM_MU0).  Given the
    multipliers ``z`` of a nearby problem with the same rows (the previous
    GP of a condensation loop, or a neighbouring weight's polish), the run
    starts at mu = IPM_MU_WARM with s = max(-g, mu) and z = max(z, mu / s),
    so it skips the barrier schedule that the earlier problem already went
    through (Yildirim and Wright, SIAM J. Optim. 2002).  The barrier
    parameter mu falls, superlinearly, only once the KKT error is within
    IPM_KAPPA times mu (Waechter and Biegler).  Mehrotra's adaptive target
    (SIAM J. Optim. 1992) lets mu fall faster than a violated row can
    follow: the slacks of the rows collapse while the row is still violated
    and the steps stall, as when a split that only its own harvesting row
    binds sinks towards its floor; floored by this mu, its
    predictor-corrector saved 3 % of the steps at two solves a step, and on
    one GP it cycled.  s and z live in one vector, so one ratio test gives
    both the same fraction of the step to the boundary.  The run converges
    when the duality gap s^T z and every row's violation are at most
    IPM_TOL and the dual residual is at most 1e-8 (a stationary point of
    non-convex rows need not satisfy the dual equations because the gap
    and the rows are small), so y[0] is then within about IPM_TOL of a
    local optimum; it ends unconverged after IPM_MAXITER steps, at a Newton
    matrix that is not finite, or at a Newton system that stays singular
    once its diagonal is raised by 1e-15 times its largest entry.  Every
    bound in lo and hi must be finite.

    The run copies the layout's matrix M = [A; P; G] once; each step writes
    the posynomials' gradients P and the rows' Jacobian J into it and
    assembles the Newton matrix as the one product M^T diag(w) M of
    _newton_matrix.
    """
    n, nrows, terms = y.size, rows.starts.size // 2, rows.b.size
    m = nrows + 2 * n
    mat = rows.m.copy()
    a, grads, jac = mat[:terms], mat[terms:terms + 2 * nrows], mat[terms + 2 * nrows:]

    def constraints(y):
        f, shares = _log_rows(rows, y)
        return np.concatenate([f, y - hi, lo - y]), shares

    g, shares = constraints(y)
    mu = IPM_MU0 if z is None else IPM_MU_WARM
    s = np.maximum(-g, mu)
    sz = np.concatenate([s, mu / s if z is None else np.maximum(z, mu / s)])
    s, z = sz[:m], sz[m:]
    mu_min = 0.1 * IPM_TOL / m
    for solved in range(IPM_MAXITER):
        _row_jacobian(a, rows.starts, shares, out=grads)
        np.subtract(grads[:nrows], grads[nrows:], out=jac[:nrows])
        r_d = jac.T @ z
        r_d[0] -= 1.0                       # the cost is -y[0]
        r_p = g + s
        gap = s * z
        dual = np.abs(r_d).max()
        if gap.sum() <= IPM_TOL and g.max() <= IPM_TOL and dual <= 1e-8:
            return y, z, True, solved
        residual = max(dual, np.abs(r_p).max())
        while mu > mu_min and max(residual, np.abs(gap - mu).max()) <= IPM_KAPPA * mu:
            mu = max(mu_min, min(0.2 * mu, mu ** 1.5))
        d = z / s
        kkt = _newton_matrix(rows, mat, shares, z, d)
        kkt.flat[::n + 1] += 1e-12
        if not _inertia_corrected(kkt):
            return y, z, False, solved
        v = d * r_p - z + mu / s
        rhs = -(jac.T @ v) - r_d
        try:
            dy = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            # A slack that collapsed to ~1e-17 puts a z/s of ~1e17 in the
            # system, which swamps the other entries until elimination meets
            # an exact zero pivot; a ridge at its rounding level removes it.
            kkt.flat[::n + 1] += 1e-15 * np.abs(kkt).max()
            try:
                dy = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                return y, z, False, solved
        jdy = jac @ dy
        dsz = np.concatenate([-(r_p + jdy), v + d * jdy])
        # 1 / max(1, -min(dsz / sz)) is the longest step in (0, 1] that keeps
        # s and z >= 0.
        step = max(0.99, 1.0 - mu) / max(-(dsz / sz).min(), 1.0)
        y = y + step * dy
        sz += step * dsz
        g, shares = constraints(y)
    return y, z, False, IPM_MAXITER


def _inertia_corrected(kkt) -> bool:
    """Add delta I to the symmetric ``kkt`` in place, with the first delta of
    0, 1e-8, 1e-7, ... at which it has a Cholesky factor, so it is positive
    definite; False when it is not finite.  np.linalg.cholesky can factor a
    NaN without raising, but the NaN then reaches every later diagonal entry
    of the factor, the last one included.  A finite delta always exists:
    past the largest absolute row sum the matrix is diagonally dominant."""
    delta = 0.0
    while True:
        try:
            return math.isfinite(np.linalg.cholesky(kkt)[-1, -1])
        except np.linalg.LinAlgError:
            if not np.all(np.isfinite(kkt)):
                return False
            if not delta:       # the first failure: keep the diagonal
                diagonal = kkt.diagonal().copy()
            delta = max(1e-8, 10.0 * delta)
            np.fill_diagonal(kkt, diagonal + delta)


class GpSolution(NamedTuple):
    """solve_gp's result: lambda, the OperatingPoint, the failures, the
    interior-point run's multipliers (None unless it converged), the Newton
    systems it solved and the log of lambda, finite also where lambda
    underflows to 0.0."""
    lam: float
    op: OperatingPoint
    failures: int
    duals: Optional[np.ndarray]
    newton_steps: int
    log_lam: float


def _run(gp: GpInstance, rows: Layout, y, z=None) -> tuple:
    """_interior_point on the GP's ``rows`` (its exact or condensed Layout)
    from the log point y and the multipliers z (cold without them), with
    log lambda floored 1 below y's, which never binds, as the run raises
    lambda: its last iterate clipped to the box with lambda set in closed
    form, the worst row there, the multipliers, whether it converged and
    the Newton steps."""
    lo, hi = gp.log_box
    floors = lo.copy()
    floors[0] = y[0] - 1.0
    y, z, converged, steps = _interior_point(rows, y, floors, hi, z)
    y, worst = _exact_lambda(rows, np.clip(y, lo, hi))
    return y, worst, z, converged, steps


def solve_gp(gp: GpInstance, duals=None) -> GpSolution:
    """Maximize lambda over the GP from its anchor.

    Solved as a smooth convex program in log variables y = log x over the
    GP's rows, each numerator over its monomial, by _run.  Lambda is set in
    closed form at the anchor and at the solver's point, clipped to the
    box; it is 0.0 when the optimum lies below the smallest float, as a
    negative secrecy gap divided by a weight of ~1e-6 puts it, and the
    solution's ``log_lam`` then still holds the optimum.  ``failures`` is 1
    when the interior-point run ended unconverged, and the solve then
    returns to the anchor if the solver's point is worse.  ``duals``, the
    multipliers of a converged solve of a GP with the same rows, starts the
    run from them; the solution carries the run's own, for the next GP.  A
    converged point is the GP's optimum even where it lies below an anchor
    that violates a row by up to FEAS_TOL.  Raises NumericalFailureError
    when the anchor violates a constraint by more than FEAS_TOL, before the
    solver runs, and when the solver leaves one violated.
    """
    y0, worst = _exact_lambda(gp.condensed, np.log(gp.anchor))
    if not worst <= FEAS_TOL:
        raise NumericalFailureError(f"anchor violates a constraint by {worst:.3e}")
    y, worst, z, converged, steps = _run(gp, gp.condensed, y0, duals)
    if not worst <= FEAS_TOL:
        raise NumericalFailureError(
            f"optimizer left constraints violated by {worst:.3e}")
    if not converged and y[0] < y0[0] - 1e-9:
        # An unfinished run never regresses below the starting point.
        y = y0
    y = np.clip(y, *gp.log_box)
    x = np.exp(y)
    kk = gp.num_users
    return GpSolution(float(x[0]), OperatingPoint(x[1:kk + 1], x[kk + 1:]),
                      int(not converged), z if converged else None, steps,
                      float(y[0]))


# ---------------------------------------------------------------------------
# Outer condensation loop
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    """Outcome of one weighted max-min solve.

    The returned point has the powers where the solve ended, the polished
    point when ``polished`` (an exact-row polish ended the solve: from the
    warm start, or after the first GP) and otherwise the last GP's, and
    every split at its best value there (at least max_splits).  ``lam`` is
    recomputed from it through the exact rate formulas (clamped secrecy
    rates in secure mode), so log2(lam) equals the smallest weighted
    effective rate at the point.  ``iterations`` counts the GPs solved and
    ``lam_trace`` holds their raw optima, and ``gaps`` each condensed
    denominator's gap at the last GP's solution; a solve that the polish
    from its start ended solved no GP, so it reports 0 iterations, an empty
    trace and an empty ``gaps``.  Each condensed GP is an inner
    approximation that is exact at its anchor, so in both modes the trace
    never decreases beyond solver tolerance; ``non_monotone`` flags a trace
    that does.  ``optimizer_failures`` sums solve_gp's failures over the
    solve's GPs, ``newton_steps`` the Newton steps of every interior-point
    run, the polishes' included.  ``duals`` holds the multipliers of the
    polish that ended the solve (None when none did), which start the
    polish of a neighbouring weight's solve.
    """

    lam: float
    op: OperatingPoint
    iterations: int
    lam_trace: list
    gaps: np.ndarray
    converged: bool
    non_monotone: bool
    optimizer_failures: int
    order: Optional[DecodingOrder]
    rates: np.ndarray
    newton_steps: int
    polished: bool
    duals: Optional[np.ndarray]

    @property
    def objective(self) -> float:
        """min_k R_eff_k / alpha_k at the returned point, i.e. log2(lam)."""
        return float(np.log2(self.lam))


def _feasible_start(cfg: SystemConfig) -> OperatingPoint:
    """Full power, and each split at min(0.5, max_splits at full power): a
    point that satisfies every constraint, as harvested energy grows with
    every power; computed once per config and kept with it.  A demand that
    is not below max_deliverable_energy raises InfeasibleError."""
    def build():
        short = infeasible_demands(cfg)
        if short.size:
            raise InfeasibleError(
                f"users {short.tolist()} demand {cfg.eh_demands[short]}, not below "
                f"the max_deliverable_energy {max_deliverable_energy(cfg)[short]}")
        splits = max_splits(cfg, cfg.power_budget)
        return OperatingPoint(cfg.power_budget, np.minimum(splits, 0.5))
    return cfg.cached("start", build)


def iterate(cfg: SystemConfig, alpha: Weights, order: Optional[DecodingOrder],
            mode: str, start: Optional[OperatingPoint] = None,
            duals=None) -> SolveReport:
    """Solve for one weight vector: the exact-row polish from a warm start,
    and otherwise the condensation loop.

    A solve given a ``start`` (clipped to variable_box) runs the interior
    point on the exact rows (_polished) straight from it, with lambda set
    in closed form and from ``duals``, the multipliers of the polish that
    ended a neighbouring weight's solve (cold without them).  Where that
    polish is accepted it ends the solve, and no GP is built or solved.
    Otherwise, and for every solve without a start, the condensation loop
    runs from the start or, with none, from the cold start of
    _feasible_start.  The start must meet every constraint within FEAS_TOL;
    each condensed GP is exact at its anchor, so every iterate then stays
    feasible.  After the first GP the interior point runs once more, on the
    exact rows, and ends the solve where it converges to a feasible point
    no worse than the GP's.  Otherwise each later iteration re-condenses
    the GP at the previous solution until the GP optimum is above 0.0 and
    moves by at most EPS_CONV (relative) or MAX_ITERS GPs are solved.
    Every GP after the first starts its interior point from the previous
    GP's multipliers, unless that run did not converge.

    An invalid problem (check_problem, a ``start`` of the wrong length or
    with a power that is not finite included), ``duals`` without a start,
    and ``duals`` that are not one finite value >= 0 per row and per bound
    (rows + 2n) raise ConfigError, and no feasible point at all
    InfeasibleError, before any interior-point run.
    A solve ends in a report, InfeasibleError or NumericalFailureError: the
    latter where a GP term, an anchor (an infeasible start included), an
    exact rate or an eavesdropper covariance breaks down, and chaining any
    ArithmeticError.
    """
    check_problem(cfg, alpha, order, mode, start)
    if order is None:
        order = DecodingOrder(tuple(range(cfg.num_users)))
    try:
        return _solve(cfg, alpha, order, mode, start, duals)
    except ArithmeticError as exc:
        raise NumericalFailureError(f"{type(exc).__name__}: {exc}") from exc


def _log_point(gp: GpInstance, op: OperatingPoint) -> np.ndarray:
    """log x of (1, p, eta) at ``op``, clipped to the GP's box; a zero
    power or split goes to its floor."""
    with np.errstate(divide="ignore"):
        return np.clip(np.log(np.concatenate([[1.0], op.powers, op.splits])),
                       *gp.log_box)


def _polished(gp: GpInstance, y, ref, z=None) -> tuple:
    """Where the solve ends after _run on the GP's exact rows, log N_i -
    log D_i <= 0, from the log point ``y`` and the multipliers ``z`` (cold
    without them): the point and the run's multipliers, or None twice when
    the solve has to go on.  Also the Newton steps the run took.

    ``ref`` is y with lambda set in closed form on the exact rows.  The run
    ends the solve only when it converged, every exact row holds within
    FEAS_TOL at its closed-form lambda, and that log lambda is not below
    ref's by more than IPM_TOL, the run's own accuracy.  The solve then
    ends at the better of the two points: where y is already the optimum,
    the run leaves a power a rounding-level step inside its cap.
    """
    y_end, worst, z, converged, steps = _run(gp, gp.exact, y, z)
    if not (converged and worst <= FEAS_TOL and y_end[0] >= ref[0] - IPM_TOL):
        return None, None, steps
    x = np.exp(np.clip(y_end if y_end[0] > ref[0] else ref, *gp.log_box))
    kk = gp.num_users
    return OperatingPoint(x[1:kk + 1], x[kk + 1:]), z, steps


def _solve(cfg, alpha, order, mode, start, duals) -> SolveReport:
    cold = _feasible_start(cfg)     # raises InfeasibleError, also for a start
    trace, gaps = [], np.empty(0)
    failures = newton_steps = 0
    polished = None
    if duals is not None and start is None:
        raise ConfigError([(BAD_VALUE, "duals", "multipliers need a start")])
    if start is not None:
        # The exact-row polish; the condensation loop rejects a start that
        # violates an exact row by more than FEAS_TOL.
        rows = _weighted_rows(cfg, alpha, order, mode)
        if duals is not None:
            size = len(rows.labels) + 2 * rows.floors.size
            duals = np.asarray(duals, dtype=float)
            if not (duals.shape == (size,) and np.all(np.isfinite(duals) & (duals >= 0))):
                raise ConfigError([(BAD_VALUE, "duals", f"needs {size} finite "
                                    f"multipliers >= 0, got {duals}")])
        y, worst = _exact_lambda(rows.exact, _log_point(rows, start))
        if worst <= FEAS_TOL:
            polished, duals, newton_steps = _polished(rows, y, y, duals)
    converged = polished is not None
    if not converged:
        gp = build_gp(cfg, alpha, order, cold if start is None else start, mode)
        gp_duals = None
        for i in range(MAX_ITERS):
            if i:
                gp = gp.recondensed(point)
            solution = solve_gp(gp, gp_duals)
            point, gp_duals = solution.op, solution.duals
            trace.append(solution.lam)
            failures += solution.failures
            newton_steps += solution.newton_steps
            if not i:
                y = _log_point(gp, point)
                y[0] = solution.log_lam
                ref, _ = _exact_lambda(gp.exact, y)
                polished, duals, steps = _polished(gp, y, ref, gp_duals)
                newton_steps += steps
                if polished is not None:
                    converged = True
                    break
            # Relative also below lambda = 1, where a negative secrecy gap
            # puts it; a lambda that underflowed to 0.0 has not converged.
            if (len(trace) >= 2 and trace[-1] > 0.0
                    and abs(trace[-1] - trace[-2]) <= EPS_CONV * trace[-1]):
                converged = True
                break

        # Each denominator minus its monomial of the last GP, at its
        # solution; lambda enters no denominator.
        y = _log_point(gp, point)
        mono_a, mono_b, _, _ = gp.condensed.part(True)
        gaps = (np.exp(_log_posynomials(*gp.exact.part(True), y)[0])
                - np.exp(mono_a @ y + mono_b))

    if polished is not None:
        point = polished
    # Every split at its best value at the final powers: a user's rate rises
    # with its own split alone and max_splits meets its demand, so no rate
    # falls, while the GP leaves a user that does not bind wherever it stops.
    point = OperatingPoint(point.powers,
                           np.maximum(point.splits, max_splits(cfg, point.powers)))

    # Report with exact rates at the final point.
    if mode == SECURE:
        eff = secrecy_corner(cfg, point, order)
    else:
        eff = legitimate_rates(cfg, point)
    if not np.all(np.isfinite(eff)):
        # The GP is solved in log space, so it can outlast the exact rates.
        raise NumericalFailureError(f"exact rates {eff} at the final point are not finite")
    lam = 2.0 ** float(max_min_objective(eff, alpha))

    non_monotone = any(trace[i + 1] < trace[i] - EPS_CONV * max(1.0, trace[i])
                       for i in range(len(trace) - 1))
    return SolveReport(lam=lam, op=point, iterations=len(trace), lam_trace=trace,
                       gaps=gaps, converged=converged,
                       non_monotone=non_monotone, optimizer_failures=failures,
                       order=order if mode == SECURE else None, rates=eff,
                       newton_steps=newton_steps, polished=polished is not None,
                       duals=duals)
