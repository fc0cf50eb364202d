"""Small dense complex-Hermitian helpers for the eavesdropper covariance algebra.

The covariance matrices are M x M with M typically 2..8, built as scaled
identities plus nonnegative rank-one updates, so plain O(M^3) Cholesky
factorizations are used throughout.
"""

from __future__ import annotations

import numpy as np

from .model import BAD_VALUE, DIMENSION_MISMATCH, ConfigError, NumericalFailureError


def rank_one_update_sum(dim: int, terms) -> np.ndarray:
    """Return I + sum_j coef_j * v_j v_j^H.

    terms is an iterable of (coef, vector) with coef >= 0 and vectors of
    length ``dim``.  The result is exactly Hermitian by construction.
    """
    out = np.eye(dim, dtype=complex)
    for coef, vec in terms:
        v = np.asarray(vec, dtype=complex)
        if v.shape != (dim,):
            raise ConfigError([(DIMENSION_MISMATCH, "vector",
                                f"shape {v.shape}, expected ({dim},)")])
        if coef < 0:
            raise ConfigError([(BAD_VALUE, "coef", f"must be >= 0, got {coef}")])
        out += coef * np.outer(v, v.conj())
    # Fused-multiply-add complex products can leave 1-ulp asymmetries;
    # averaging with the conjugate transpose restores exact Hermitianity.
    return 0.5 * (out + out.conj().T)


def _cho(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of A = L L^H; NumericalFailureError when A,
    a computed covariance, is not finite or not positive definite."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError([(DIMENSION_MISMATCH, "matrix",
                            f"expected a square matrix, got shape {a.shape}")])
    if not np.isfinite(a).all():
        raise NumericalFailureError(f"covariance has {np.sum(~np.isfinite(a))} "
                                    f"non-finite of {a.size} entries")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"covariance factorisation failed: {exc}") from exc


def log2_det(a: np.ndarray) -> float:
    """log2 det(A) for Hermitian positive definite A, via Cholesky."""
    return float(2.0 * np.sum(np.log2(np.real(np.diag(_cho(a))))))


def inv_quadratic_form(a: np.ndarray, v: np.ndarray) -> float:
    """v^H A^{-1} v for Hermitian positive definite A (always >= 0).

    Solves L x = v with the Cholesky factor L of A, so the form is |x|^2,
    instead of forming the inverse.
    """
    v = np.asarray(v, dtype=complex)
    factor = _cho(a)
    if v.shape != (factor.shape[0],):
        raise ConfigError([(DIMENSION_MISMATCH, "vector",
                            f"shape {v.shape}, matrix {factor.shape}")])
    x = np.linalg.solve(factor, v)
    return float(np.real(np.vdot(x, x)))
