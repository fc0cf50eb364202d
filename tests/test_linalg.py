import numpy as np
import pytest

from swiptsec import (DimensionMismatchError, NonFiniteError,
                      NotPositiveDefiniteError, inv_quadratic_form, log2_det,
                      rank_one_update_sum)


def test_empty_sum_is_identity():
    assert np.array_equal(rank_one_update_sum(3, []), np.eye(3))


def test_axis_aligned_rank_one():
    a = rank_one_update_sum(2, [(2.0, np.array([0.5, 0.0]))])
    assert np.allclose(a, np.diag([1.5, 1.0]))


def test_two_orthogonal_terms():
    a = rank_one_update_sum(2, [(2.0, np.array([0.5, 0.0])),
                                (2.0, np.array([0.0, 0.5]))])
    assert np.allclose(a, np.diag([1.5, 1.5]))


def test_rank_one_exactly_hermitian():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        terms = [(float(rng.uniform(0, 5)),
                  rng.normal(size=m) + 1j * rng.normal(size=m))
                 for _ in range(int(rng.integers(0, 4)))]
        a = rank_one_update_sum(m, terms, base_scale=float(rng.uniform(0.1, 2)))
        assert np.array_equal(a, a.conj().T)


def test_rank_one_rejects_bad_inputs():
    with pytest.raises(DimensionMismatchError):
        rank_one_update_sum(2, [(1.0, np.ones(3))])
    with pytest.raises(ValueError):
        rank_one_update_sum(2, [(-1.0, np.ones(2))])


def test_log2_det_identity_and_diag():
    assert log2_det(np.eye(4)) == pytest.approx(0.0, abs=1e-14)
    assert log2_det(np.diag([1.5, 1.5])) == pytest.approx(2 * np.log2(1.5), abs=1e-12)


def test_log2_det_parallel_rank_one():
    # Two parallel norm-0.5 vectors at unit powers over total noise 0.5:
    # single nonzero eigenvalue 1 + 2 * 0.25 / 0.5 = 2.
    h = np.array([0.5, 0.0], dtype=complex)
    a = rank_one_update_sum(2, [(1 / 0.5, h), (1 / 0.5, h)])
    assert log2_det(a) == pytest.approx(1.0, abs=1e-12)


def test_log2_det_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        log2_det(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_factorizations_reject_non_finite(bad):
    a = np.diag([1.0, bad])
    with pytest.raises(NonFiniteError):
        log2_det(a)
    with pytest.raises(NonFiniteError):
        inv_quadratic_form(a, np.ones(2))


def test_log2_det_scaling_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        a = b @ b.conj().T + np.eye(m)
        s = float(rng.uniform(0.1, 10))
        assert log2_det(s * a) == pytest.approx(m * np.log2(s) + log2_det(a), abs=1e-9)


def test_inv_quadratic_form_examples():
    v = np.array([0.5, 0.0], dtype=complex)
    assert inv_quadratic_form(np.eye(2), v) == pytest.approx(0.25, abs=1e-14)
    a = rank_one_update_sum(2, [(1 / 0.5, v)])
    assert inv_quadratic_form(a, v) == pytest.approx(0.25 / 1.5, abs=1e-12)
    w = np.array([0.0, 0.3], dtype=complex)  # orthogonal to the update
    assert inv_quadratic_form(a, w) == pytest.approx(0.09, abs=1e-14)


def test_inv_quadratic_form_rejects():
    with pytest.raises(DimensionMismatchError):
        inv_quadratic_form(np.eye(2), np.ones(3))
    with pytest.raises(NotPositiveDefiniteError):
        inv_quadratic_form(np.diag([-1.0, 1.0]), np.ones(2))


def test_sherman_morrison_consistency():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        c = float(10 ** rng.uniform(-4, 4))  # covers c in [0, 1e4]
        n2 = float(np.real(np.vdot(v, v)))
        a = rank_one_update_sum(m, [(c, v)])
        assert inv_quadratic_form(a, v) == pytest.approx(n2 / (1 + c * n2), rel=1e-10)
    v = np.array([1.0, 2.0], dtype=complex)
    assert inv_quadratic_form(rank_one_update_sum(2, [(0.0, v)]), v) == pytest.approx(5.0)


def test_chain_split_identity():
    # log2 det(I + c1 v1 v1^H + c2 v2 v2^H)
    #   = log2(1 + c1 v1^H (I + c2 v2 v2^H)^{-1} v1) + log2(1 + c2 |v2|^2)
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(2, 5))
        v1 = rng.normal(size=m) + 1j * rng.normal(size=m)
        v2 = rng.normal(size=m) + 1j * rng.normal(size=m)
        c1, c2 = rng.uniform(0, 3, 2)
        full = rank_one_update_sum(m, [(c1, v1), (c2, v2)])
        inner = rank_one_update_sum(m, [(c2, v2)])
        lhs = log2_det(full)
        rhs = (np.log2(1 + c1 * inv_quadratic_form(inner, v1))
               + np.log2(1 + c2 * np.real(np.vdot(v2, v2))))
        assert lhs == pytest.approx(rhs, abs=1e-9)
