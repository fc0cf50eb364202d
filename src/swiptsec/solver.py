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
convex.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Optional

import numpy as np
import scipy.optimize

from .metrics import (eve_rate_chain, harvested_energy, legitimate_rates,
                      secrecy_corner)
from .model import (DecodingOrder, OperatingPoint, SystemConfig, Weights,
                    max_splits)

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
# Iteration budget of each SLSQP run.
SLSQP_MAXITER = 300


class NonPositiveTermError(ValueError):
    pass


class NonPositiveAnchorError(ValueError):
    pass


class InfeasibleAnchorError(ValueError):
    pass


class InfeasibleError(RuntimeError):
    """An energy demand exceeds what full power and the smallest split
    deliver, so no point satisfies the constraints."""


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
    approximation gaps can be evaluated later.  rows holds what does not
    depend on the anchor: per constraint its numerator and the denominator
    to condense (None for a monomial row), so recondensed moves the anchor
    without rebuilding them.
    """

    num_users: int
    constraints: list
    labels: list
    anchor: np.ndarray
    floors: np.ndarray
    caps: np.ndarray
    condensations: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def recondensed(self, anchor: OperatingPoint) -> "GpInstance":
        """The same GP with every denominator condensed at ``anchor``."""
        if np.any(~np.isfinite(anchor.powers)) or np.any(~np.isfinite(anchor.splits)):
            raise InfeasibleAnchorError("anchor contains non-finite entries")
        x = np.clip(np.concatenate([[1.0], anchor.powers, anchor.splits]),
                    self.floors, self.caps)
        constraints, condensations = [], []
        for num, den in self.rows:
            if den is None:
                constraints.append(num)
                continue
            mono = condense(den, x)
            constraints.append(num.over_monomial(mono))
            condensations.append((den, mono))
        return replace(self, constraints=constraints, anchor=x,
                       condensations=condensations)


def _interferers(order: DecodingOrder, k: int) -> list:
    pos = order.users.index(k)
    return list(order.users[pos + 1:])


def _gram_minors(cfg: SystemConfig) -> dict:
    """det(G_T) / sbar^|T| for every user set T with |T| <= M (1 for the
    empty set), keyed by frozenset, with G = conj(H) H^T the Gram matrix of
    the eavesdropper channels.  Principal minors are >= 0; the clamp removes
    rounding noise from rank-deficient ones."""
    gram = cfg.eve_channels.conj() @ cfg.eve_channels.T
    sbar = cfg.eve_noise_total
    minors = {frozenset(): 1.0}
    for size in range(1, min(cfg.num_users, cfg.num_eve_antennas) + 1):
        for t in combinations(range(cfg.num_users), size):
            minor = np.linalg.det(gram[np.ix_(t, t)]).real
            minors[frozenset(t)] = max(minor, 0.0) / sbar ** size
    return minors


def _eve_det(minors: dict, users, n: int) -> Posynomial:
    """det(I + sum_{j in users} (p_j / sbar) h_j h_j^H) as a posynomial over
    the n GP variables: by Cauchy-Binet, the sum over T in users, |T| <= M,
    of prod_{j in T} (p_j / sbar) det(G_T), with the minors of _gram_minors.
    """
    _, p_of, _ = _var_layout((n - 1) // 2)
    return posynomial(n, [(minors[frozenset(t)], {p_of(j): 1 for j in t})
                          for size in range(len(users) + 1)
                          for t in combinations(users, size)
                          if frozenset(t) in minors])


def build_gp(cfg: SystemConfig, alpha: Weights, order: DecodingOrder,
             anchor: OperatingPoint, mode: str) -> GpInstance:
    """Emit the GP condensed at ``anchor``.

    Per user: the rate/secrecy constraint (skipped when alpha_k = 0), the
    harvesting constraint (skipped when it is vacuous for every feasible
    point), and the box constraints.  Only the condensed denominators depend
    on the anchor; GpInstance.recondensed moves it.  User k's secrecy row is
    lambda^alpha_k A_k E(S + k) <= D_k E(S), where R_k = log2(D_k / A_k), S
    holds the users decoded after k and E is the eavesdropper determinant of
    _eve_det.  Lambda has no floor and its anchor value is 1; solve_gp sets
    it.
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

    floors = np.concatenate([[0.0], FLOOR_FRAC * pmax, np.full(kk, FLOOR_FRAC)])
    caps = np.concatenate([[2.0 ** 64], pmax, np.ones(kk)])

    minors = _gram_minors(cfg) if mode == SECURE else None

    rows, labels = [], []

    def add_row(numerator, denominator, label):
        rows.append((numerator, denominator))
        labels.append(label)

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
                num = num.times(_eve_det(minors, inter + [k], n))
                den = den.times(_eve_det(minors, inter, n))
            add_row(num, den, f"rate[{k}]")

        # psi <= c + (1 - eta)(T + d)  <=>  (psi - c) + eta d + eta T <= T + d;
        # vacuous whenever psi <= c because eta <= 1.  Zero terms drop out.
        psi = cfg.eh_demands[k]
        if psi > c_eh[k]:
            received = [(g[k, j], {p_of(j): 1}) for j in range(kk)]
            num = posynomial(n, [(psi - c_eh[k], {}), (d_eh[k], {eta_of(k): 1})]
                             + [(c, {**pw, eta_of(k): 1}) for c, pw in received])
            den = posynomial(n, received + [(d_eh[k], {})])
            add_row(num, den, f"eh[{k}]")

        add_row(posynomial(n, [(1.0 / pmax[k], {p_of(k): 1})]), None,
                f"box:p[{k}]")
        add_row(posynomial(n, [(1.0, {eta_of(k): 1})]), None, f"box:eta[{k}]")

    unanchored = GpInstance(num_users=kk, constraints=[], labels=labels,
                            anchor=None, floors=floors, caps=caps, rows=rows)
    return unanchored.recondensed(anchor)


# ---------------------------------------------------------------------------
# Log-space solve
# ---------------------------------------------------------------------------

def _log_posynomials(a, b, starts, seg, z):
    """log g_i(exp(z)) for every stacked posynomial g_i, and each term's share
    of its posynomial (the weights of the log-sum-exp gradient).  starts is
    the first term row of each posynomial and seg the posynomial of each
    term row."""
    r = a @ z + b
    m = np.maximum.reduceat(r, starts)
    e = np.exp(r - m[seg])
    s = np.add.reduceat(e, starts)
    return m + np.log(s), e / s[seg]


def solve_gp(gp: GpInstance) -> tuple:
    """Maximize lambda over the GP from its anchor; returns (lambda,
    OperatingPoint, failures).

    Solved as a smooth convex program in log variables y = log x, with every
    constraint stacked into one exponent matrix (a), one log-coefficient
    vector (b) and the first term row of each constraint (starts), and posed
    to SLSQP as one vector-valued inequality.  Lambda is set in closed form
    at the anchor and at the optimizer's point.  ``failures`` counts what
    went wrong without ending the solve: SLSQP reporting no success, and a
    return to the anchor because the optimizer's point was worse.  Raises
    InfeasibleAnchorError when the anchor violates a constraint by more than
    FEAS_TOL and NumericalFailureError when the optimizer leaves one
    violated.
    """
    a = np.vstack([posy.exponents for posy in gp.constraints])
    b = np.concatenate([np.log(posy.coeffs) for posy in gp.constraints])
    sizes = [posy.num_terms for posy in gp.constraints]
    starts = np.cumsum([0] + sizes[:-1])
    seg = np.repeat(np.arange(len(sizes)), sizes)
    with np.errstate(divide="ignore"):      # a zero floor means no bound
        lo, hi = np.log(gp.floors), np.log(gp.caps)

    last = {}

    def evaluated(y):
        # SLSQP asks for the constraint and its Jacobian at the same point.
        key = y.tobytes()
        if key not in last:
            last.clear()
            last[key] = _log_posynomials(a, b, starts, seg, y)
        return last[key]

    def log_g(y):
        return evaluated(y)[0]

    def violation(y):
        return float(log_g(y).max())

    alphas = a[starts, 0]
    rate = alphas > 0

    def set_lambda(y):
        # lambda enters every term of rate row k as lambda^alpha_k and no
        # other row, so this shift makes the tightest rate row exactly active.
        # A row with a far sub-rounding weight turns rounding noise into a
        # huge shift, so a feasible y is kept when the shift costs more.
        tight = y.copy()
        tight[0] -= np.max(log_g(y)[rate] / alphas[rate])
        return tight if (tight[0] >= y[0] - FEAS_TOL
                         or not violation(y) <= FEAS_TOL) else y

    # Every condensed row is exact at the anchor, so this is the anchor's
    # true feasibility.
    y0 = set_lambda(np.log(gp.anchor))
    if not violation(y0) <= FEAS_TOL:
        raise InfeasibleAnchorError(
            f"anchor violates a constraint by {violation(y0):.3e}")

    def jac(y):
        shares = evaluated(y)[1]
        return -np.add.reduceat(shares[:, None] * a, starts)

    cost = np.zeros(lo.size)
    cost[0] = -1.0
    res = scipy.optimize.minimize(
        lambda y: cost @ y, y0, jac=lambda y: cost, method="SLSQP",
        bounds=list(zip(lo, hi)),
        constraints=[{"type": "ineq", "fun": lambda y: -log_g(y), "jac": jac}],
        options={"maxiter": SLSQP_MAXITER, "ftol": 1e-14})
    failures = int(not res.success)
    y = set_lambda(res.x)
    if not violation(y) <= FEAS_TOL:
        raise NumericalFailureError(
            f"optimizer left constraints violated by {violation(y):.3e}")
    if y[0] < y0[0] - 1e-9:
        # Never regress below the feasible starting point.
        y = y0
        failures += 1
    x = np.exp(np.clip(y, lo, hi))
    kk = gp.num_users
    return (float(x[0]), OperatingPoint(x[1:kk + 1], np.minimum(x[kk + 1:], 1.0)),
            failures)


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
    that does.  ``optimizer_failures`` sums solve_gp's failures over the
    solve's GPs.
    """

    lam: float
    op: OperatingPoint
    iterations: int
    lam_trace: list
    gaps: np.ndarray
    converged: bool
    clamped: bool
    non_monotone: bool
    optimizer_failures: int
    mode: str
    alpha: Weights
    order: Optional[DecodingOrder]
    rates: np.ndarray

    @property
    def objective(self) -> float:
        """min_k R_eff_k / alpha_k at the returned point, i.e. log2(lam)."""
        return float(np.log2(self.lam))


def _feasible_start(cfg: SystemConfig) -> OperatingPoint:
    """Full power, and each split at min(0.5, max_splits at full power): a
    point that satisfies every constraint.  Harvested energy grows with
    every power, so full power gives each user its largest split, and a
    user whose largest split is below FLOOR_FRAC raises InfeasibleError."""
    splits = max_splits(cfg, cfg.power_budget)
    short = np.flatnonzero(splits < FLOOR_FRAC)
    if short.size:
        k = int(short[0])
        floor = OperatingPoint(cfg.power_budget, np.full(cfg.num_users, FLOOR_FRAC))
        raise InfeasibleError(
            f"user {k} demands {cfg.eh_demands[k]} but harvests at most "
            f"{harvested_energy(cfg, floor, k)}")
    return OperatingPoint(cfg.power_budget.copy(), np.minimum(splits, 0.5))


def iterate(cfg: SystemConfig, alpha: Weights, order: Optional[DecodingOrder],
            mode: str) -> SolveReport:
    """Run the condensation loop for one weight vector.

    Starts at the feasible point of _feasible_start (InfeasibleError, before
    any GP is built, when there is none); each condensed GP is exact at its
    anchor, so every iterate stays feasible.  The GP is built once, and each
    later iteration re-condenses it at the previous solution, until the GP
    optimum moves by at most EPS_CONV (relative) or MAX_ITERS GPs are
    solved.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if order is None:
        order = DecodingOrder(tuple(range(cfg.num_users)))

    point = _feasible_start(cfg)
    gp = None
    trace = []
    failures = 0
    converged = False
    for _ in range(MAX_ITERS):
        gp = (build_gp(cfg, alpha, order, point, mode) if gp is None
              else gp.recondensed(point))
        lam_gp, point, gp_failures = solve_gp(gp)
        trace.append(lam_gp)
        failures += gp_failures
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= EPS_CONV * max(1.0, trace[-1]):
            converged = True
            break

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
                       non_monotone=non_monotone, optimizer_failures=failures,
                       mode=mode, alpha=alpha,
                       order=order if mode == SECURE else None, rates=eff)
