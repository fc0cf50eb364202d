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
condensed GP is an inner approximation of the true problem: every GP iterate
is feasible for it and the objective never decreases.  The GP is solved in
log-transformed variables, where it is convex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np
import scipy.optimize

from .metrics import eve_rate_chain, legitimate_rates, secrecy_corner
from .model import DecodingOrder, OperatingPoint, SystemConfig, Weights

SECURE = "secure"
RELIABLE = "reliable"
MODES = (SECURE, RELIABLE)

# Outer loop: relative change of the GP optimum that counts as converged, the
# iteration budget, and the re-anchors allowed after an infeasible GP.
EPS_CONV = 1e-6
MAX_ITERS = 100
REANCHOR_RETRIES = 2
# Positivity floor of each power and split, as a fraction of its cap.
FLOOR_FRAC = 1e-6
# Largest constraint violation a GP solution may keep.
FEAS_TOL = 1e-8
# Iteration budget of each SLSQP run.
SLSQP_MAXITER = 300


class NonPositiveTermError(ValueError):
    pass


class NonPositiveAnchorError(ValueError):
    pass


class InfeasibleAnchorError(ValueError):
    pass


class InfeasibleError(RuntimeError):
    """No point satisfies the constraints (best violation attached)."""

    def __init__(self, message, violation=None, point=None):
        super().__init__(message)
        self.violation = violation
        self.point = point


class NumericalFailureError(RuntimeError):
    pass


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

    @property
    def num_vars(self) -> int:
        return self.exponents.shape[1]

    @property
    def is_monomial(self) -> bool:
        return self.num_terms == 1

    def term_values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.coeffs * np.exp(self.exponents @ np.log(x))

    def value(self, x) -> float:
        return float(self.term_values(x).sum())

    def times(self, other: "Posynomial") -> "Posynomial":
        coeffs = np.outer(self.coeffs, other.coeffs).ravel()
        exps = (self.exponents[:, None, :] + other.exponents[None, :, :])
        return Posynomial(coeffs, exps.reshape(-1, self.num_vars))

    def over_monomial(self, mono: "Posynomial") -> "Posynomial":
        if not mono.is_monomial:
            raise ValueError("divisor must be a monomial")
        return Posynomial(self.coeffs / mono.coeffs[0],
                          self.exponents - mono.exponents[0])


def posynomial(num_vars: int, terms) -> Posynomial:
    """Build a posynomial from (coefficient, {var_index: power}) pairs.

    Terms with zero coefficient are dropped; they come from zero channel
    gains or zero demands and are not part of the algebra.
    """
    coeffs, rows = [], []
    for coef, powers in terms:
        if coef == 0.0:
            continue
        row = np.zeros(num_vars)
        for idx, power in powers.items():
            row[idx] += power
        coeffs.append(coef)
        rows.append(row)
    if not coeffs:
        raise NonPositiveTermError("all terms vanished; posynomial needs one positive term")
    return Posynomial(np.array(coeffs), np.array(rows))


def optimal_condensation_weights(term_values) -> np.ndarray:
    """Weights making the AM-GM monomial bound tight: each term's share of
    the total."""
    t = np.asarray(term_values, dtype=float)
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise NonPositiveTermError(f"term values must be finite and > 0, got {t}")
    return t / t.sum()


def condense(posy: Posynomial, anchor) -> Posynomial:
    """Monomial lower bound of ``posy``, exact at ``anchor``.

    Uses sum_t f_t >= prod_t (f_t / c_t)^{c_t} with c_t chosen from the term
    shares at the anchor, so the bound touches the posynomial there.
    """
    anchor = np.asarray(anchor, dtype=float)
    if np.any(anchor <= 0) or not np.all(np.isfinite(anchor)):
        raise NonPositiveAnchorError(f"anchor must be strictly positive, got {anchor}")
    if posy.is_monomial:
        return posy
    c = optimal_condensation_weights(posy.term_values(anchor))
    log_coef = float(c @ (np.log(posy.coeffs) - np.log(c)))
    exponent = c @ posy.exponents
    return Posynomial(np.array([np.exp(log_coef)]), exponent[None, :])


# ---------------------------------------------------------------------------
# GP construction
# ---------------------------------------------------------------------------

# Variable layout: index 0 is lambda, then the K powers, then the K splits.

def _var_layout(num_users: int):
    lam = 0
    p = lambda k: 1 + k
    eta = lambda k: 1 + num_users + k
    return lam, p, eta


@dataclass(frozen=True, eq=False)
class GpInstance:
    """One condensed geometric program: maximize lambda subject to
    posynomial(x) <= 1 constraints over x = (lambda, p, eta).

    condensations pairs each condensed denominator with its monomial bound so
    approximation gaps can be evaluated later.
    """

    num_users: int
    constraints: list
    labels: list
    anchor: np.ndarray
    floors: np.ndarray
    caps: np.ndarray
    condensations: list = field(default_factory=list)


def _interferers(order: DecodingOrder, k: int) -> list:
    pos = order.users.index(k)
    return list(order.users[pos + 1:])


def _eve_det(cfg: SystemConfig, users, n: int) -> Posynomial:
    """det(I + sum_{j in users} (p_j / sbar) h_j h_j^H) as a posynomial over
    the n GP variables: by Cauchy-Binet, the sum over T in users, |T| <= M,
    of prod_{j in T} (p_j / sbar) det(G_T), with G = conj(H) H^T the Gram
    matrix of the eavesdropper channels.  Its principal minors are >= 0; the
    clamp removes rounding noise from rank-deficient ones.
    """
    _, p_of, _ = _var_layout(cfg.num_users)
    h = cfg.eve_channels
    sbar = cfg.eve_noise_total
    gram = h.conj() @ h.T
    terms = [(1.0, {})]
    for size in range(1, min(len(users), cfg.num_eve_antennas) + 1):
        for t in combinations(users, size):
            minor = np.linalg.det(gram[np.ix_(t, t)]).real
            terms.append((max(minor, 0.0) / sbar ** size,
                          {p_of(j): 1 for j in t}))
    return posynomial(n, terms)


def build_gp(cfg: SystemConfig, alpha: Weights, order: DecodingOrder,
             anchor: OperatingPoint, mode: str) -> GpInstance:
    """Emit the condensed GP for one outer iteration.

    Per user: the rate/secrecy constraint (skipped when alpha_k = 0), the
    harvesting constraint (skipped when it is vacuous for every feasible
    point), and the box constraints.  Denominators are condensed at the
    anchor.  User k's secrecy row is lambda^alpha_k A_k E(S + k) <= D_k E(S),
    where R_k = log2(D_k / A_k), S holds the users decoded after k and E is
    the eavesdropper determinant of _eve_det.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    kk = cfg.num_users
    lam, p_of, eta_of = _var_layout(kk)
    n = 1 + 2 * kk
    g = cfg.gain_powers
    sig2 = cfg.processing_noise_vars
    rho2 = cfg.antenna_noise_vars
    c_eh, d_eh = cfg.harvest_offsets
    pmax = cfg.power_budget

    floors = np.empty(n)
    floors[lam] = 2.0 ** -64
    caps = np.empty(n)
    caps[lam] = 2.0 ** 64
    for k in range(kk):
        floors[p_of(k)] = FLOOR_FRAC * pmax[k]
        caps[p_of(k)] = pmax[k]
        floors[eta_of(k)] = FLOOR_FRAC
        caps[eta_of(k)] = 1.0

    if np.any(~np.isfinite(anchor.powers)) or np.any(~np.isfinite(anchor.splits)):
        raise InfeasibleAnchorError("anchor contains non-finite entries")
    anchor_x = np.empty(n)
    anchor_x[1:kk + 1] = np.clip(anchor.powers, floors[1:kk + 1], caps[1:kk + 1])
    anchor_x[kk + 1:] = np.clip(anchor.splits, floors[kk + 1:], caps[kk + 1:])
    anchor_op = OperatingPoint(anchor_x[1:kk + 1], anchor_x[kk + 1:])

    # Anchor value of lambda: tight against the worst weighted effective
    # rate, so the anchor triple is feasible for its own condensation.
    eff = legitimate_rates(cfg, anchor_op)
    if mode == SECURE:
        eff = eff - eve_rate_chain(cfg, anchor_op.powers, order)
    active = alpha.alpha > 0
    if not np.any(active):
        raise ValueError("alpha must have at least one positive entry")
    beta_anchor = float(np.min(eff[active] / alpha.alpha[active]))
    anchor_x[lam] = np.clip(2.0 ** beta_anchor, floors[lam], caps[lam])

    constraints, labels, condensations = [], [], []

    def add_ratio(numerator, denominator, label):
        mono = condense(denominator, anchor_x)
        constraints.append(numerator.over_monomial(mono))
        labels.append(label)
        condensations.append((denominator, mono))

    for k in range(kk):
        a_terms = [(sig2[k], {}), (rho2[k], {eta_of(k): 1})]
        a_terms += [(g[k, j], {eta_of(k): 1, p_of(j): 1})
                    for j in range(kk) if j != k]
        d_terms = a_terms + [(g[k, k], {eta_of(k): 1, p_of(k): 1})]
        if alpha.alpha[k] > 0:
            a_posy = posynomial(n, a_terms)
            num = a_posy.times(posynomial(n, [(1.0, {lam: alpha.alpha[k]})]))
            den = posynomial(n, d_terms)
            if mode == SECURE:
                inter = _interferers(order, k)
                num = num.times(_eve_det(cfg, inter + [k], n))
                den = den.times(_eve_det(cfg, inter, n))
            add_ratio(num, den, f"rate[{k}]")

        # psi <= c + (1 - eta)(T + d)  <=>  (psi - c) + eta d + eta T <= T + d;
        # vacuous whenever psi <= c because eta <= 1.  Zero terms drop out.
        psi = cfg.eh_demands[k]
        if psi > c_eh[k]:
            received = [(g[k, j], {p_of(j): 1}) for j in range(kk)]
            num = posynomial(n, [(psi - c_eh[k], {}), (d_eh[k], {eta_of(k): 1})]
                             + [(c, {**pw, eta_of(k): 1}) for c, pw in received])
            try:
                den = posynomial(n, received + [(d_eh[k], {})])
            except NonPositiveTermError:
                raise InfeasibleError(
                    f"user {k} demands {psi} but receives no power at all")
            add_ratio(num, den, f"eh[{k}]")

        constraints.append(posynomial(n, [(1.0 / pmax[k], {p_of(k): 1})]))
        labels.append(f"box:p[{k}]")
        constraints.append(posynomial(n, [(1.0, {eta_of(k): 1})]))
        labels.append(f"box:eta[{k}]")

    return GpInstance(num_users=kk, constraints=constraints, labels=labels,
                      anchor=anchor_x, floors=floors, caps=caps,
                      condensations=condensations)


# ---------------------------------------------------------------------------
# Log-space solve
# ---------------------------------------------------------------------------

def _log_posynomials(a, b, starts, z):
    """log g_i(exp(z)) for every stacked posynomial g_i, and each term's share
    of its posynomial (the weights of the log-sum-exp gradient)."""
    r = a @ z + b
    sizes = np.diff(starts, append=r.size)
    m = np.maximum.reduceat(r, starts)
    e = np.exp(r - np.repeat(m, sizes))
    s = np.add.reduceat(e, starts)
    return m + np.log(s), e / np.repeat(s, sizes)


def _slsqp(cost, a, b, starts, z0, bounds, ftol):
    """Minimize cost @ z subject to log g_i(exp(z)) <= 0 for every stacked
    posynomial, posed to SLSQP as one vector-valued inequality."""
    def fun(z):
        return -_log_posynomials(a, b, starts, z)[0]

    def jac(z):
        shares = _log_posynomials(a, b, starts, z)[1]
        return -np.add.reduceat(shares[:, None] * a, starts)

    res = scipy.optimize.minimize(
        lambda z: cost @ z, z0, jac=lambda z: cost, method="SLSQP",
        bounds=bounds, constraints=[{"type": "ineq", "fun": fun, "jac": jac}],
        options={"maxiter": SLSQP_MAXITER, "ftol": ftol})
    return res.x


def solve_gp(gp: GpInstance) -> tuple:
    """Maximize lambda over the GP; returns (lambda, OperatingPoint).

    Solved as a smooth convex program in log variables y = log x, with every
    constraint stacked into one exponent matrix (a), one log-coefficient
    vector (b) and the first term row of each constraint (starts).  Raises
    InfeasibleError when no point satisfies the constraints within FEAS_TOL
    and NumericalFailureError when the optimizer cannot reach a feasible
    point.
    """
    a = np.vstack([posy.exponents for posy in gp.constraints])
    b = np.concatenate([np.log(posy.coeffs) for posy in gp.constraints])
    starts = np.cumsum([0] + [posy.num_terms for posy in gp.constraints[:-1]])
    lo, hi = np.log(gp.floors), np.log(gp.caps)
    n = lo.size

    def violation(y):
        return float(_log_posynomials(a, b, starts, y)[0].max())

    y0 = np.log(gp.anchor)
    if violation(y0) > FEAS_TOL:
        # Phase one is the same program with a slack column s: minimize s
        # subject to g_i(x) e^{-s} <= 1; feasible iff s reaches <= 0.
        slack_cost = np.zeros(n + 1)
        slack_cost[n] = 1.0
        z = _slsqp(slack_cost, np.hstack([a, -np.ones((b.size, 1))]), b, starts,
                   np.append(y0, violation(y0) + 0.1),
                   list(zip(lo, hi)) + [(None, None)], 1e-12)
        y0, slack = np.clip(z[:n], lo, hi), float(z[n])
        if not slack <= FEAS_TOL:
            raise InfeasibleError(
                f"no feasible point; smallest attainable violation {slack:.3e}",
                violation=slack, point=np.exp(y0))

    alphas = a[starts, 0]
    rate = alphas > 0

    def set_lambda(y):
        # lambda enters every term of rate row k as lambda^alpha_k and no
        # other row, so this shift makes the tightest rate row exactly active.
        # A row with a far sub-rounding weight turns rounding noise into a
        # huge shift, so a feasible y is kept when the shift costs more.
        tight = y.copy()
        tight[0] -= np.max(_log_posynomials(a, b, starts, y)[0][rate] / alphas[rate])
        return tight if (tight[0] >= y[0] - FEAS_TOL
                         or not violation(y) <= FEAS_TOL) else y

    lam_cost = np.zeros(n)
    lam_cost[0] = -1.0
    y = set_lambda(_slsqp(lam_cost, a, b, starts, y0, list(zip(lo, hi)), 1e-14))
    if not violation(y) <= FEAS_TOL:
        raise NumericalFailureError(
            f"optimizer left constraints violated by {violation(y):.3e}")
    if y[0] < y0[0] - 1e-9:
        # Never regress below the feasible starting point.
        y = set_lambda(y0)
    x = np.exp(np.clip(y, lo, hi))
    kk = gp.num_users
    return float(x[0]), OperatingPoint(x[1:kk + 1], np.minimum(x[kk + 1:], 1.0))


# ---------------------------------------------------------------------------
# Outer condensation loop
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    """Outcome of one weighted max-min solve.

    ``lam`` is recomputed from the returned operating point through the exact
    rate formulas (clamped secrecy rates in secure mode), so log2(lam) equals
    the smallest weighted effective rate at the point.  ``lam_trace`` holds
    the raw per-iteration GP optima.  Each condensed GP is an inner
    approximation that is exact at its anchor, so in both modes the trace
    never decreases beyond solver tolerance; ``non_monotone`` flags a trace
    that does.
    """

    lam: float
    op: OperatingPoint
    iterations: int
    lam_trace: list
    gaps: np.ndarray
    converged: bool
    clamped: bool
    non_monotone: bool
    mode: str
    alpha: Weights
    order: Optional[DecodingOrder]
    rates: np.ndarray

    @property
    def objective(self) -> float:
        """min_k R_eff_k / alpha_k at the returned point, i.e. log2(lam)."""
        return float(np.log2(self.lam))


def iterate(cfg: SystemConfig, alpha: Weights, order: Optional[DecodingOrder],
            mode: str) -> SolveReport:
    """Run the condensation loop for one weight vector.

    Anchored at full power with half splits; each iteration rebuilds the GP
    at the previous solution until the GP optimum moves by at most EPS_CONV
    (relative) or MAX_ITERS GPs are solved.  An infeasible GP is re-anchored
    at its least-violating point up to REANCHOR_RETRIES times.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if order is None:
        order = DecodingOrder(tuple(range(cfg.num_users)))

    anchor = OperatingPoint(cfg.power_budget.copy(),
                            np.full(cfg.num_users, 0.5))
    trace = []
    converged = False
    gp = None
    point = anchor
    retries = REANCHOR_RETRIES

    it = 0
    while it < MAX_ITERS:
        it += 1
        gp = build_gp(cfg, alpha, order, anchor, mode)
        try:
            lam_gp, point = solve_gp(gp)
        except InfeasibleError as exc:
            if retries > 0 and exc.point is not None:
                # The condensed program can be infeasible even when the true
                # one is not; re-anchor at the least-violating point and retry.
                retries -= 1
                it -= 1
                kk = cfg.num_users
                anchor = OperatingPoint(exc.point[1:kk + 1],
                                        np.minimum(exc.point[kk + 1:], 1.0))
                continue
            raise InfeasibleError(
                f"{mode} solve infeasible for alpha={alpha.alpha}: {exc}",
                violation=exc.violation, point=exc.point) from exc
        trace.append(lam_gp)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= EPS_CONV * max(1.0, trace[-1]):
            converged = True
            break
        anchor = point

    # Report with exact rates at the final point.
    if mode == SECURE:
        corner = secrecy_corner(cfg, point, order)
        eff = corner.per_user
        clamped = bool(np.any(legitimate_rates(cfg, point)
                              - eve_rate_chain(cfg, point.powers, order) < 0))
    else:
        eff = legitimate_rates(cfg, point)
        clamped = False
    active = alpha.alpha > 0
    beta = float(np.min(eff[active] / alpha.alpha[active]))
    lam = 2.0 ** beta

    x_final = np.concatenate([[lam], point.powers, point.splits])
    x_final = np.clip(x_final, gp.floors, gp.caps)
    gaps = np.array([denom.value(x_final) - mono.value(x_final)
                     for denom, mono in gp.condensations])

    non_monotone = any(trace[i + 1] < trace[i] - EPS_CONV * max(1.0, trace[i])
                       for i in range(len(trace) - 1))
    return SolveReport(lam=lam, op=point, iterations=len(trace), lam_trace=trace,
                       gaps=gaps, converged=converged, clamped=clamped,
                       non_monotone=non_monotone, mode=mode, alpha=alpha,
                       order=order if mode == SECURE else None, rates=eff)
