import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from svdflow import matcore
from svdflow.errors import (
    InvalidInputError,
    ProjectionUndefinedError,
    StepFailureError,
)


def square(n, lo=-5.0, hi=5.0):
    return hnp.arrays(np.float64, (n, n),
                      elements=st.floats(lo, hi, allow_nan=False))


class TestSvd:
    def test_identity(self):
        u, s, v = matcore.svd(np.eye(2))
        assert np.array_equal(u, np.eye(2))
        assert np.array_equal(s, np.ones(2))
        assert np.array_equal(v, np.eye(2))

    def test_diagonal(self):
        _, s, _ = matcore.svd(np.diag([3.0, 1.0]))
        assert np.array_equal(s, [3.0, 1.0])

    def test_random_reconstruction(self):
        m = np.random.default_rng(42).standard_normal((3, 3))
        u, s, v = matcore.svd(m)
        assert np.linalg.norm(u @ np.diag(s) @ v.T - m) <= 1e-12

    def test_sign_convention_deterministic(self):
        m = np.random.default_rng(7).standard_normal((4, 4))
        a = matcore.svd(m)
        b = matcore.svd(m.copy())
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        # largest-magnitude entry of every u column is positive
        for j in range(4):
            i = np.argmax(np.abs(a.u[:, j]))
            assert a.u[i, j] > 0

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(InvalidInputError):
            matcore.svd(np.ones((2, 3)))
        with pytest.raises(InvalidInputError):
            matcore.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @given(square(3))
    def test_reconstruction_property(self, m):
        u, s, v = matcore.svd(m)
        scale = max(1.0, np.abs(m).max())
        assert np.linalg.norm(u @ np.diag(s) @ v.T - m) <= 1e-10 * scale
        assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-12
        assert np.all(np.diff(s) <= 0)


class TestCayley:
    def test_zero_generator(self):
        assert np.array_equal(matcore.cayley(np.zeros((3, 3)), 0.5), np.eye(3))

    def test_rotation_generator_orthogonal(self):
        s = np.array([[0.0, 1.3], [-1.3, 0.0]])
        q = matcore.cayley(s, 0.4)
        assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-14
        assert np.isclose(np.linalg.det(q), 1.0, atol=1e-14)

    def test_matches_exponential_to_third_order(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4))
        s = (m - m.T) / 2.0
        gaps = [np.linalg.norm(matcore.cayley(s, h) - scipy.linalg.expm(h * s))
                for h in (0.1, 0.05)]
        # the Cayley map agrees with the exponential to O(h^3), so halving h
        # shrinks the defect by ~8x
        assert 6.0 <= gaps[0] / gaps[1] <= 10.0

    def test_diag_skew_hermitian(self):
        lam = 0.7
        h = 0.3
        q = matcore.cayley(-1j * np.diag([0.0, lam]), h)
        expected = np.diag([1.0, (1 - 1j * h * lam / 2) / (1 + 1j * h * lam / 2)])
        assert np.abs(q - expected).max() <= 1e-14
        assert np.allclose(np.abs(np.diag(q)), 1.0)

    def test_singular_resolvent(self):
        with pytest.raises(StepFailureError):
            matcore.cayley(np.array([[2.0]]), 1.0)  # I - h/2 s == 0

    @given(square(4, -3, 3), st.floats(0.01, 1.0))
    def test_orthogonality_property(self, m, h):
        q = matcore.cayley((m - m.T) / 2.0, h)
        assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-11


class TestCayleyDiag:
    def test_zero_entries_exactly_one(self):
        out = matcore.cayley_diag(np.array([0.0, 0.0]), 0.7)
        assert np.array_equal(out, np.ones(2, dtype=complex))

    def test_matches_matrix_oracle(self):
        lam = np.array([0.0, 0.4, -1.2])
        h = 0.25
        dense = matcore.cayley(-1j * np.diag(lam), h)
        assert np.abs(matcore.cayley_diag(lam, h) - np.diag(dense)).max() <= 1e-14

    def test_argument(self):
        lam, h = 0.9, 0.3
        out = matcore.cayley_diag(np.array([lam]), h)
        assert np.isclose(np.angle(out[0]), -2.0 * np.arctan(h * lam / 2.0))

    @given(hnp.arrays(np.float64, 3, elements=st.floats(-10, 10)),
           st.floats(0.01, 2.0))
    def test_unit_modulus_property(self, lam, h):
        assert np.abs(np.abs(matcore.cayley_diag(lam, h)) - 1.0).max() <= 1e-14


class TestNearestOrthogonal:
    def test_idempotent_on_manifold(self):
        th = 0.77
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert np.abs(matcore.nearest_orthogonal(q) - q).max() <= 1e-12

    def test_positive_diagonal(self):
        assert np.abs(matcore.nearest_orthogonal(np.diag([2.0, 0.5]))
                      - np.eye(2)).max() <= 1e-12

    def test_scaled_rotation(self):
        th = 0.3
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert np.abs(matcore.nearest_orthogonal(1.01 * q) - q).max() <= 1e-12

    def test_rank_deficient(self):
        with pytest.raises(ProjectionUndefinedError):
            matcore.nearest_orthogonal(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_matches_polar_factor_of_signed_svd(self, n):
        # the column signs of matcore.svd cancel in u @ v.T, bit for bit
        rng = np.random.default_rng(40 + n)
        for _ in range(50):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            m = q + 1e-3 * rng.standard_normal((n, n))
            u, _, v = matcore.svd(m)
            assert np.array_equal(matcore.nearest_orthogonal(m), u @ v.T)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            matcore.nearest_orthogonal(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestStacks:
    """cayley and nearest_orthogonal on a (2, n, n) stack, as a measured step
    calls them on U's and V's matrices: bytes and errors of per-member calls."""

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_stack_matches_member_calls(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(20):
            m = rng.standard_normal((2, n, n))
            skews = (m - m.mT) / 2.0
            cays = matcore.cayley(skews, 0.3)
            near = np.linalg.qr(rng.standard_normal((2, n, n)))[0]
            near = near + 1e-3 * rng.standard_normal((2, n, n))
            projected = matcore.nearest_orthogonal(near)
            for k in range(2):
                assert np.array_equal(cays[k], matcore.cayley(skews[k], 0.3))
                assert np.array_equal(projected[k], matcore.nearest_orthogonal(near[k]))

    def test_rank_deficient_member_named(self):
        # member 1 alone is rank-deficient: the error names its singular values
        stack = np.array([np.eye(2), [[3.0, 0.0], [0.0, 0.0]]])
        with pytest.raises(ProjectionUndefinedError) as alone:
            matcore.nearest_orthogonal(stack[1])
        with pytest.raises(ProjectionUndefinedError) as stacked:
            matcore.nearest_orthogonal(stack)
        assert str(stacked.value) == str(alone.value)
        assert "[3. 0.]" in str(stacked.value)
        # both deficient: member 0's values, so U is reported before V
        with pytest.raises(ProjectionUndefinedError, match=r"\[2\. 0\.\]"):
            matcore.nearest_orthogonal(np.array([np.diag([2.0, 0.0]), stack[1]]))

    @pytest.mark.parametrize("bad,error", [
        (np.array([[2.0]]), StepFailureError),        # I - h/2 s == 0
        (np.array([[np.nan]]), InvalidInputError),
        (np.array([[np.inf]]), InvalidInputError),
    ])
    def test_bad_member_raises_the_member_error(self, bad, error):
        with pytest.raises(error) as alone:
            matcore.cayley(bad, 1.0)
        with pytest.raises(error) as stacked:
            matcore.cayley(np.array([np.zeros((1, 1)), bad]), 1.0)
        assert str(stacked.value) == str(alone.value)
        if error is InvalidInputError:
            with pytest.raises(error) as alone:
                matcore.nearest_orthogonal(bad)
            with pytest.raises(error) as stacked:
                matcore.nearest_orthogonal(np.array([np.eye(1), bad]))
            assert str(stacked.value) == str(alone.value)

    def test_svd_takes_one_matrix(self):
        with pytest.raises(InvalidInputError, match="must be square"):
            matcore.svd(np.zeros((2, 2, 2)))
