"""Weighted max-min power and split allocation via condensed geometric programs.

The per-weight problem (maximize the smallest weighted rate subject to
harvesting demands and box constraints) is a signomial program: every rate
constraint is a ratio of posynomials in the transmit powers p, the splitting
coefficients eta and the epigraph variable lambda = 2^beta.  Each outer
iteration replaces the ratio denominators with their arithmetic-geometric
mean monomial lower bounds anchored at the previous solution (single
condensation), which yields a geometric program.  In secure mode the
eavesdropper's covariance determinants are exact posynomials in the powers
(Cauchy-Binet), so 2^{-R_Ek} is a ratio of posynomials as well and each
condensed GP is an inner approximation of the true problem: started at a
feasible point, every GP iterate is feasible for it and the objective never
decreases.  The GP is solved in log-transformed variables, where it is
convex, by a primal-dual interior-point method.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .linalg import NonFiniteError
from .metrics import legitimate_rates, max_min_objective, secrecy_corner
from .model import (BAD_VALUE, ConfigError, DecodingOrder, OperatingPoint,
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
# and row violation at which it stops; the barrier parameter of its start,
# which also floors each starting slack; and how far the KKT error may
# exceed the barrier parameter before that falls.
IPM_MAXITER = 50
IPM_TOL = 1e-10
IPM_MU0 = 1e-3
IPM_KAPPA = 300.0
# Largest SqS3 step length of the outer loop's extrapolated anchors.
EXTRAP_MAX = 4.0


class NonPositiveTermError(ValueError):
    pass


class NonPositiveAnchorError(ValueError):
    pass


class InfeasibleAnchorError(ValueError):
    pass


class InfeasibleError(RuntimeError):
    """An energy demand is not below max_deliverable_energy, so no point
    satisfies the constraints."""


class NumericalFailureError(RuntimeError):
    """The solve broke down numerically: the optimizer left a constraint
    violated, or a value overflowed, underflowed to zero or was not finite
    (the cause is chained)."""


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
            raise NonPositiveTermError("posynomial needs at least one term")
        if np.any(c <= 0) or not np.all(np.isfinite(c)):
            raise NonPositiveTermError(f"coefficients must be finite and > 0, got {c}")
        if e.shape[0] != c.size:
            raise ValueError(f"{c.size} coefficients vs {e.shape[0]} exponent rows")
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

    def __iter__(self):
        # Unpacks as the (coefficients, exponents) pair that _stack stacks.
        return iter((self.coeffs, self.exponents))


class Stack(NamedTuple):
    """Posynomials stacked term by term: exponents a (T, n), log-coefficients
    b (T,), each posynomial's first term (starts) and each term's posynomial
    (seg)."""
    a: np.ndarray
    b: np.ndarray
    starts: np.ndarray
    seg: np.ndarray


def _stack(rows) -> Stack:
    """Stack posynomials given as (coefficients (T,), exponents (T, n))
    pairs; every posynomial needs a term, and every coefficient must be
    finite and > 0 before it is logged."""
    coeffs, exponents = zip(*rows)
    sizes = [c.size for c in coeffs]
    if 0 in sizes:
        raise NonPositiveTermError("all terms vanished; posynomial needs one positive term")
    coeffs = np.concatenate(coeffs)
    bad = ~((coeffs > 0) & np.isfinite(coeffs))
    if bad.any():
        raise NonPositiveTermError(f"coefficients must be finite and > 0, got {coeffs[bad]}")
    return Stack(np.vstack(exponents), np.log(coeffs), np.cumsum([0] + sizes[:-1]),
                 np.repeat(np.arange(len(sizes)), sizes))


def _log_posynomials(a, b, starts, seg, z):
    """log g_i(exp(z)) for every stacked posynomial g_i, and each term's share
    of its posynomial (the weights of the log-sum-exp gradient)."""
    r = a @ z + b
    m = np.maximum.reduceat(r, starts)
    e = np.exp(r - m[seg])
    s = np.add.reduceat(e, starts)
    return m + np.log(s), e / s[seg]


def _row_jacobian(a, starts, shares) -> np.ndarray:
    """Gradient of each stacked log-sum-exp row: its exponent rows weighted by
    the term shares of _log_posynomials."""
    return np.add.reduceat(shares[:, None] * a, starts)


def _condense(stack: Stack, y) -> tuple:
    """Exponents and log-coefficients of each stacked posynomial's monomial
    lower bound sum_t f_t >= prod_t (f_t / c_t)^{c_t}, with c_t each term's
    share at x = exp(y), so the bound touches the posynomial there; the
    exponents are the gradient of the log posynomial at y."""
    _, c = _log_posynomials(*stack, y)
    if not np.all(c > 0):
        raise NonPositiveTermError(f"term shares must be finite and > 0, got {c}")
    return (_row_jacobian(stack.a, stack.starts, c),
            np.add.reduceat(c * (stack.b - np.log(c)), stack.starts))


def condense(posy: Posynomial, anchor) -> Posynomial:
    """Monomial lower bound of ``posy``, exact at ``anchor``: the one-row case
    of the stacked condensation that GpInstance.recondensed runs."""
    anchor = np.asarray(anchor, dtype=float)
    if np.any(anchor <= 0) or not np.all(np.isfinite(anchor)):
        raise NonPositiveAnchorError(f"anchor must be strictly positive, got {anchor}")
    exponents, log_coef = _condense(_stack([posy]), np.log(anchor))
    return Posynomial(np.exp(log_coef), exponents)


# ---------------------------------------------------------------------------
# GP construction
# ---------------------------------------------------------------------------

# Variable layout: index 0 is lambda, then the K powers, then the K splits.

def variable_box(cfg: SystemConfig) -> tuple:
    """Floors and caps of x = (lambda, p, eta): each power between FLOOR_FRAC
    times its budget and its budget, and each split at most 1 and at least
    min(FLOOR_FRAC, half its largest value at full power), so every demand
    that some point meets is met inside the box.  Lambda has no floor;
    solve_gp sets it."""
    pmax = cfg.power_budget
    eta_floors = np.clip(0.5 * max_splits(cfg, pmax), 0.0, FLOOR_FRAC)
    return (np.concatenate([[0.0], FLOOR_FRAC * pmax, eta_floors]),
            np.concatenate([[2.0 ** 64], pmax, np.ones(cfg.num_users)]))


@dataclass(frozen=True, eq=False)
class GpInstance:
    """One condensed geometric program: maximize lambda subject to
    posynomial(x) <= 1 constraints over x = (lambda, p, eta) between
    ``floors`` and ``caps``.  Each row is a ratio: a and b, condensed at
    ``anchor``, share starts and seg with the anchor-free ``numerators``,
    and row i's denominator is the i-th of the ``denominators``, which
    recondensed condenses at a new anchor.
    """

    num_users: int
    labels: list
    floors: np.ndarray
    caps: np.ndarray
    numerators: Stack
    denominators: Stack
    anchor: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None

    @property
    def constraints(self) -> list:
        """Each condensed row as a Posynomial, for inspection."""
        cut = self.numerators.starts[1:]
        return [Posynomial(np.exp(b), a)
                for a, b in zip(np.split(self.a, cut), np.split(self.b, cut))]

    def recondensed(self, anchor: OperatingPoint) -> "GpInstance":
        """The same GP with every denominator condensed at ``anchor``: each
        row's numerator divided by its denominator's monomial."""
        x = np.clip(np.concatenate([[1.0], anchor.powers, anchor.splits]),
                    self.floors, self.caps)
        if not np.all(np.isfinite(x) & (x > 0)):
            raise InfeasibleAnchorError(f"anchor must be finite and > 0, got {x}")
        exponents, log_coefs = _condense(self.denominators, np.log(x))
        num = self.numerators
        return replace(self, anchor=x, a=num.a - exponents[num.seg],
                       b=num.b - log_coefs[num.seg])


def _terms(coeffs, exponents) -> tuple:
    """The terms with a nonzero coefficient: a zero gain, offset or minor
    leaves its term out of the row."""
    keep = coeffs != 0.0
    return coeffs[keep], exponents[keep]


def _times(left, right) -> tuple:
    """Terms of the product of two posynomials, row-major over their terms;
    the coefficients are products, logged only by _stack."""
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
    Only the condensed denominators depend on the anchor;
    GpInstance.recondensed moves it.  User k's secrecy row is lambda^alpha_k
    A_k E(S + k) <= D_k E(S), where R_k = log2(D_k / A_k), S holds the users
    decoded after k and E is the eavesdropper determinant, whose terms are
    SystemConfig.eve_det_terms.  Lambda's anchor value is 1; solve_gp sets
    it.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    kk = cfg.num_users
    unit = np.eye(1 + 2 * kk)
    lam, p_rows, eta_rows = unit[0], unit[1:kk + 1], unit[kk + 1:]
    none = np.zeros_like(lam)
    g = cfg.gain_powers
    c_eh, d_eh = cfg.harvest_offsets

    def eve_det(users):
        terms = cfg.eve_det_terms(users)
        return _terms(np.array([minor for _, minor in terms]),
                      np.array([p_rows[list(t)].sum(axis=0) for t, _ in terms]))

    rows = []   # (numerator, denominator, label)
    for k in range(kk):
        eta = eta_rows[k]
        if alpha.alpha[k] > 0:
            # D_k = sig^2 + eta_k (rho^2 + sum_j g_kj p_j); A_k lacks j = k.
            others = [j for j in range(kk) if j != k]
            coeffs = np.concatenate([[cfg.processing_noise_vars[k],
                                      cfg.antenna_noise_vars[k]], g[k, others], [g[k, k]]])
            exponents = np.vstack([none, eta, eta + p_rows[others], eta + p_rows[k]])
            num = _terms(coeffs[:-1], exponents[:-1] + alpha.alpha[k] * lam)
            den = _terms(coeffs, exponents)
            if mode == SECURE:
                after = list(order.users[order.users.index(k) + 1:])
                num = _times(num, eve_det(after + [k]))
                den = _times(den, eve_det(after))
            rows.append((num, den, f"rate[{k}]"))

        # psi <= c + (1 - eta)(T + d)  <=>  (psi - c) + eta d + eta T <= T + d;
        # vacuous whenever psi <= c because eta <= 1.
        psi = cfg.eh_demands[k]
        if psi > c_eh[k]:
            num = _terms(np.concatenate([[psi - c_eh[k], d_eh[k]], g[k]]),
                         np.vstack([none, eta, eta + p_rows]))
            den = _terms(np.append(g[k], d_eh[k]), np.vstack([p_rows, none]))
            rows.append((num, den, f"eh[{k}]"))

    nums, dens, labels = zip(*rows)
    floors, caps = variable_box(cfg)
    unanchored = GpInstance(num_users=kk, labels=list(labels), floors=floors,
                            caps=caps, numerators=_stack(nums),
                            denominators=_stack(dens))
    return unanchored.recondensed(anchor)


# ---------------------------------------------------------------------------
# Log-space solve
# ---------------------------------------------------------------------------

def _exact_lambda(gp: GpInstance, y) -> tuple:
    """y with log lambda set in closed form, and the largest log row value
    there (the worst violation; every rate row is at most 0).

    lambda enters every term of rate row k as lambda^alpha_k and no other
    row, so the shift makes the tightest rate row exactly active.  A row with
    a far sub-rounding weight turns rounding noise into a huge shift, so a
    feasible y is kept when the shift costs more.  Every condensed row is
    exact at its anchor, so at y = log(gp.anchor) these are the anchor's
    exact objective and feasibility.
    """
    _, _, starts, seg = gp.numerators
    log_g = _log_posynomials(gp.a, gp.b, starts, seg, y)[0]
    alphas = gp.a[starts, 0]
    rate = alphas > 0
    tight = y.copy()
    tight[0] -= np.max(log_g[rate] / alphas[rate])
    if tight[0] < y[0] - FEAS_TOL and log_g.max() <= FEAS_TOL:
        return y, float(log_g.max())
    return tight, float(_log_posynomials(gp.a, gp.b, starts, seg, tight)[0].max())


def _row_hessian(a, seg, shares, jac, weights) -> np.ndarray:
    """sum_i weights_i H_i, with H_i = A_i^T diag(c_i) A_i - g_i g_i^T the
    Hessian of row i: A_i its exponents, c_i its term shares, g_i its
    gradient (the row of ``jac``)."""
    return (a.T @ ((weights[seg] * shares)[:, None] * a)
            - jac.T @ (weights[:, None] * jac))


def _interior_point(a, b, starts, seg, y, lo, hi) -> tuple:
    """Maximize y[0] subject to the stacked rows f(y) <= 0 and lo <= y <= hi,
    from y; returns the last iterate and whether it converged.

    A primal-dual interior-point method in slack form, g(y) + s = 0 with
    g = [f; y - hi; lo - y], s >= 0 and multipliers z >= 0 (Boyd and
    Vandenberghe, Convex Optimization, 11.7).  Each Newton step targets
    s_i z_i = mu and solves the n x n system of sum_i z_i H_i +
    G^T diag(z/s) G plus the bound terms, with an absolute 1e-12 ridge that
    keeps a direction no row or bound curves (a split that nothing binds)
    solvable.  The start need not meet the rows or the box: every pair
    starts at s_i z_i = mu = IPM_MU0, with s = max(-g, IPM_MU0).  The
    barrier parameter mu falls, superlinearly, only once the KKT error is
    within IPM_KAPPA times mu (Waechter and Biegler, Math. Program. 2006).
    Mehrotra's adaptive target (SIAM J. Optim. 1992) lets mu fall faster
    than a violated row can follow: the slacks of the rows collapse while
    the row is still violated and the steps stall, as when a split that
    only its own harvesting row binds sinks towards its floor; floored by
    this mu, its predictor-corrector saved 3 % of the steps at two solves a
    step, and on one GP it cycled.  The primal and dual variables take the
    same fraction of the step to the boundary.  The run converges when the
    duality gap s^T z and every row's violation are at most IPM_TOL, so
    y[0] is then within about IPM_TOL of the optimum; it ends unconverged
    after IPM_MAXITER steps or at a singular Newton system.  Every bound in
    lo and hi must be finite.
    """
    n, rows = y.size, starts.size
    upper, lower = slice(rows, rows + n), slice(rows + n, None)
    diagonal = np.diag_indices(n)

    def constraints(y):
        f, shares = _log_posynomials(a, b, starts, seg, y)
        return np.concatenate([f, y - hi, lo - y]), shares

    def max_step(v, dv):
        # Largest step in (0, 1] that keeps v + step * dv >= 0, for v > 0.
        most = -(dv / v).min()
        return 1.0 if most <= 1.0 else 1.0 / most

    g, shares = constraints(y)
    s = np.maximum(-g, IPM_MU0)
    z = IPM_MU0 / s
    mu, mu_min = IPM_MU0, 0.1 * IPM_TOL / s.size
    for _ in range(IPM_MAXITER):
        jac = _row_jacobian(a, starts, shares)
        zf = z[:rows]
        r_d = jac.T @ zf + z[upper] - z[lower]
        r_d[0] -= 1.0                       # the cost is -y[0]
        r_p = g + s
        sz = s * z
        if sz.sum() <= IPM_TOL and g.max() <= IPM_TOL:
            return y, True
        residual = max(np.abs(r_d).max(), np.abs(r_p).max())
        while mu > mu_min and max(residual, np.abs(sz - mu).max()) <= IPM_KAPPA * mu:
            mu = max(mu_min, min(0.2 * mu, mu ** 1.5))
        d = z / s
        kkt = _row_hessian(a, seg, shares, jac, zf) + jac.T @ (d[:rows, None] * jac)
        kkt[diagonal] += d[upper] + d[lower] + 1e-12
        v = d * r_p - z + mu / s
        try:
            dy = np.linalg.solve(kkt, v[lower] - v[upper] - jac.T @ v[:rows] - r_d)
        except np.linalg.LinAlgError:
            return y, False
        jdy = np.concatenate([jac @ dy, dy, -dy])
        ds, dz = -(r_p + jdy), v + d * jdy
        step = max(0.99, 1.0 - mu) * min(max_step(s, ds), max_step(z, dz))
        y = y + step * dy
        s = s + step * ds
        z = z + step * dz
        g, shares = constraints(y)
    return y, False


def solve_gp(gp: GpInstance) -> tuple:
    """Maximize lambda over the GP from its anchor; returns (lambda,
    OperatingPoint, failures).

    Solved as a smooth convex program in log variables y = log x over the
    GP's stacked rows by _interior_point, which needs a finite floor on log
    lambda as well: its value at the anchor minus 1, which never binds, as
    the solve raises lambda from there.  Lambda is set in closed form at
    the anchor and at the solver's point, clipped to the box.  ``failures``
    is 1 when the interior-point run ended unconverged, and the solve then
    returns to the anchor if the solver's point is worse.  A converged point
    is the GP's optimum even where it lies below an anchor that violates a
    row by up to FEAS_TOL.  Raises InfeasibleAnchorError when the anchor
    violates a constraint by more than FEAS_TOL and NumericalFailureError
    when the solver leaves one violated.
    """
    a, b, (_, _, starts, seg) = gp.a, gp.b, gp.numerators
    with np.errstate(divide="ignore"):      # a zero floor means no bound
        lo, hi = np.log(gp.floors), np.log(gp.caps)

    y0, worst = _exact_lambda(gp, np.log(gp.anchor))
    if not worst <= FEAS_TOL:
        raise InfeasibleAnchorError(f"anchor violates a constraint by {worst:.3e}")

    floors = lo.copy()
    floors[0] = y0[0] - 1.0
    y, converged = _interior_point(a, b, starts, seg, y0, floors, hi)
    y, worst = _exact_lambda(gp, np.clip(y, lo, hi))
    if not worst <= FEAS_TOL:
        raise NumericalFailureError(
            f"optimizer left constraints violated by {worst:.3e}")
    if not converged and y[0] < y0[0] - 1e-9:
        # An unfinished run never regresses below the starting point.
        y = y0
    x = np.exp(np.clip(y, lo, hi))
    kk = gp.num_users
    return float(x[0]), OperatingPoint(x[1:kk + 1], x[kk + 1:]), int(not converged)


# ---------------------------------------------------------------------------
# Outer condensation loop
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    """Outcome of one weighted max-min solve.

    The returned point has the last GP's powers and every split at its best
    value there (at least max_splits).  ``lam`` is recomputed from it through
    the exact rate formulas (clamped secrecy rates in secure mode), so
    log2(lam) equals the smallest weighted effective rate at the point.
    ``lam_trace`` holds the raw per-iteration GP optima, and ``gaps`` each
    condensed denominator's gap at the last GP's solution.  Each condensed
    GP is an inner approximation that is exact at its anchor, so in both
    modes the trace never decreases beyond solver tolerance;
    ``non_monotone`` flags a trace that does.  ``optimizer_failures`` sums solve_gp's failures over the
    solve's GPs, and ``extrapolated`` counts the extrapolated anchors the
    loop accepted.
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
    extrapolated: int

    @property
    def objective(self) -> float:
        """min_k R_eff_k / alpha_k at the returned point, i.e. log2(lam)."""
        return float(np.log2(self.lam))


def _feasible_start(cfg: SystemConfig) -> OperatingPoint:
    """Full power, and each split at min(0.5, max_splits at full power): a
    point that satisfies every constraint, as harvested energy grows with
    every power.  A demand that is not below max_deliverable_energy raises
    InfeasibleError."""
    short = infeasible_demands(cfg)
    if short.size:
        raise InfeasibleError(
            f"users {short.tolist()} demand {cfg.eh_demands[short]}, not below "
            f"the max_deliverable_energy {max_deliverable_energy(cfg)[short]}")
    splits = max_splits(cfg, cfg.power_budget)
    return OperatingPoint(cfg.power_budget.copy(), np.minimum(splits, 0.5))


def iterate(cfg: SystemConfig, alpha: Weights, order: Optional[DecodingOrder],
            mode: str, start: Optional[OperatingPoint] = None) -> SolveReport:
    """Run the condensation loop for one weight vector.

    Starts at ``start`` (clipped to variable_box), or at the cold start of
    _feasible_start when none is given.  A ``start`` of the wrong length or
    with a power that is not finite raises ConfigError, and no feasible
    point at all InfeasibleError, before any GP is built.  The start must
    meet every constraint within FEAS_TOL; each condensed GP is exact at its
    anchor, so every iterate then stays feasible.  Each later iteration
    re-condenses the GP at the previous solution, or after every two GPs at
    the extrapolated anchor that _extrapolated accepts, until the GP
    optimum moves by at most EPS_CONV (relative) or MAX_ITERS GPs are
    solved.  A solve ends in a report, InfeasibleError or
    NumericalFailureError: an overflow, a vanishing or non-finite GP term
    or anchor, an infeasible start or anchor, and exact rates or an
    eavesdropper covariance at the final point that are not finite are
    re-raised as a NumericalFailureError that chains the cause.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if start is not None and not (start.powers.size == cfg.num_users
                                  and np.all(np.isfinite(start.powers))):
        raise ConfigError([(BAD_VALUE, "start", f"needs {cfg.num_users} finite "
                            f"powers, got {start.powers}")])
    if order is None:
        order = DecodingOrder(tuple(range(cfg.num_users)))
    cold = _feasible_start(cfg)
    try:
        return _condensation_loop(cfg, alpha, order, mode,
                                  cold if start is None else start)
    except (ArithmeticError, NonFiniteError, NonPositiveTermError,
            InfeasibleAnchorError) as exc:
        raise NumericalFailureError(f"{type(exc).__name__}: {exc}") from exc


def _extrapolated(gp: GpInstance, thetas) -> tuple:
    """The GP to solve after the anchors theta0 -> theta1 -> theta2 (log
    powers and splits; ``gp`` is condensed at theta2), and whether it is
    condensed at the SqS3 extrapolation of the three instead (Varadhan and
    Roland, Scand. J. Statist. 2008).

    The step length is capped at EXTRAP_MAX, so rounding noise in a
    vanishing second difference cannot blow it up.  The extrapolated anchor
    is kept only when it meets every constraint and its exact lambda is
    strictly above theta2's; otherwise the loop continues from theta2.
    """
    theta0, theta1, theta2 = thetas
    r = theta1 - theta0
    v = theta2 - 2.0 * theta1 + theta0
    norm_v = np.linalg.norm(v)
    step = max(-np.linalg.norm(r) / norm_v, -EXTRAP_MAX) if norm_v > 0 else -EXTRAP_MAX
    if step >= -1.0:
        return gp, False
    kk = gp.num_users
    x = np.exp(np.clip(theta0 - 2.0 * step * r + step ** 2 * v,
                       np.log(gp.floors[1:]), np.log(gp.caps[1:])))
    try:
        candidate = gp.recondensed(OperatingPoint(x[:kk], x[kk:]))
    except (ArithmeticError, NonPositiveTermError, InfeasibleAnchorError):
        return gp, False
    y, worst = _exact_lambda(candidate, np.log(candidate.anchor))
    if worst <= FEAS_TOL and y[0] > _exact_lambda(gp, np.log(gp.anchor))[0][0]:
        return candidate, True
    return gp, False


def _condensation_loop(cfg, alpha, order, mode, start) -> SolveReport:
    gp = build_gp(cfg, alpha, order, start, mode)
    thetas = [np.log(gp.anchor[1:])]
    trace = []
    failures = extrapolated = 0
    converged = False
    for i in range(MAX_ITERS):
        if i:
            gp = gp.recondensed(point)
            thetas.append(np.log(gp.anchor[1:]))
            if len(thetas) == 3:
                gp, accepted = _extrapolated(gp, thetas)
                extrapolated += accepted
                thetas = [np.log(gp.anchor[1:])]
        lam_gp, point, gp_failures = solve_gp(gp)
        trace.append(lam_gp)
        failures += gp_failures
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= EPS_CONV * max(1.0, trace[-1]):
            converged = True
            break

    # Each denominator minus its monomial of the last GP, at its solution;
    # lambda enters no denominator.
    y = np.log(np.clip(np.concatenate([[1.0], point.powers, point.splits]),
                       gp.floors, gp.caps))
    exponents, log_coefs = _condense(gp.denominators, np.log(gp.anchor))
    gaps = (np.exp(_log_posynomials(*gp.denominators, y)[0])
            - np.exp(exponents @ y + log_coefs))

    # Every split at its best value at the final powers: a user's rate rises
    # with its own split alone and max_splits meets its demand, so no rate
    # falls, while the GP leaves a user that does not bind wherever it stops.
    point = OperatingPoint(point.powers,
                           np.maximum(point.splits, max_splits(cfg, point.powers)))

    # Report with exact rates at the final point.
    if mode == SECURE:
        eff = secrecy_corner(cfg, point, order).per_user
    else:
        eff = legitimate_rates(cfg, point)
    if not np.all(np.isfinite(eff)):
        # The GP is solved in log space, so it can outlast the exact rates.
        raise FloatingPointError(f"exact rates {eff} at the final point are not finite")
    lam = 2.0 ** float(max_min_objective(eff, alpha))

    non_monotone = any(trace[i + 1] < trace[i] - EPS_CONV * max(1.0, trace[i])
                       for i in range(len(trace) - 1))
    return SolveReport(lam=lam, op=point, iterations=len(trace), lam_trace=trace,
                       gaps=gaps, converged=converged,
                       non_monotone=non_monotone, optimizer_failures=failures,
                       order=order if mode == SECURE else None, rates=eff,
                       extrapolated=extrapolated)
