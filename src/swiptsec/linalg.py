"""Small dense complex-Hermitian helpers for the eavesdropper covariance algebra.

The covariance matrices are M x M with M typically 2..8, built as scaled
identities plus nonnegative rank-one updates, so plain O(M^3) Cholesky
factorizations are used throughout.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class NotPositiveDefiniteError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class NonFiniteError(ValueError):
    """A value overflowed or is NaN, such as an eavesdropper covariance of a
    badly scaled scenario."""


def rank_one_update_sum(dim: int, terms, base_scale: float = 1.0) -> np.ndarray:
    """Return base_scale * I + sum_j coef_j * v_j v_j^H.

    terms is an iterable of (coef, vector) with coef >= 0 and vectors of
    length ``dim``.  The result is exactly Hermitian by construction.
    """
    out = base_scale * np.eye(dim, dtype=complex)
    for coef, vec in terms:
        v = np.asarray(vec, dtype=complex)
        if v.shape != (dim,):
            raise DimensionMismatchError(f"vector shape {v.shape}, expected ({dim},)")
        if coef < 0:
            raise ValueError(f"rank-one coefficient must be >= 0, got {coef}")
        out += coef * np.outer(v, v.conj())
    # Fused-multiply-add complex products can leave 1-ulp asymmetries;
    # averaging with the conjugate transpose restores exact Hermitianity.
    return 0.5 * (out + out.conj().T)


def _cho(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"covariance has {np.sum(~np.isfinite(a))} "
                             f"non-finite of {a.size} entries")
    try:
        return scipy.linalg.cho_factor(a, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def log2_det(a: np.ndarray) -> float:
    """log2 det(A) for Hermitian positive definite A, via Cholesky."""
    c, _ = _cho(a)
    return float(2.0 * np.sum(np.log2(np.real(np.diag(c)))))


def inv_quadratic_form(a: np.ndarray, v: np.ndarray) -> float:
    """v^H A^{-1} v for Hermitian positive definite A (always >= 0).

    Solves a linear system instead of forming the inverse.
    """
    v = np.asarray(v, dtype=complex)
    factor = _cho(a)
    if v.shape != (factor[0].shape[0],):
        raise DimensionMismatchError(f"vector shape {v.shape}, matrix {factor[0].shape}")
    x = scipy.linalg.cho_solve(factor, v)
    return max(float(np.real(np.vdot(v, x))), 0.0)
