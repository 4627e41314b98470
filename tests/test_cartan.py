import numpy as np
import pytest

from lorentzdyn import QuadraticForm, boost, kak, lorentz_kak, norm_growth, spatial_rotation
from lorentzdyn.cartan import (_random_rotation, kak_stack, random_lorentz,
                               standardizing_congruence)
from lorentzdyn.errors import (DimensionError, NotIsometryError, PatternMismatchError,
                               SingularMatrixError)


def shear2():
    return np.array([[1.0, 1.0], [0.0, 1.0]])


def shear2_singulars():
    # independent oracle: eigenvalues of A^T A = [[1,1],[1,2]] are (3 +- sqrt 5)/2
    lo = np.sqrt((3 - np.sqrt(5)) / 2)
    hi = np.sqrt((3 + np.sqrt(5)) / 2)
    return lo, hi


class TestKak:
    def test_identity(self):
        f = kak(np.eye(4))
        assert np.allclose(f.D, 1.0)
        assert np.allclose(f.reconstruct(), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        f = kak(np.diag([3.0, 1 / 3.0]))
        assert np.allclose(f.D, [1 / 3.0, 3.0])

    def test_shear_golden_ratio(self):
        lo, hi = shear2_singulars()
        f = kak(shear2())
        assert f.D == pytest.approx([lo, hi], rel=1e-12)
        # the larger singular value is the golden ratio
        assert hi == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-14)

    def test_reconstruction_and_rotations(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=(4, 4))
            if abs(np.linalg.det(a)) < 1e-3:
                continue
            f = kak(a)
            assert np.linalg.norm(f.reconstruct() - a) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.det(f.L) == pytest.approx(1.0, abs=1e-10)
            assert np.allclose(f.L.T @ f.L, np.eye(4), atol=1e-12)
            assert np.allclose(f.R @ f.R.T, np.eye(4), atol=1e-12)
            assert np.all(np.diff(f.D) >= -1e-15)

    def test_inverse_reverses_reciprocals(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
            d = kak(a).D
            d_inv = kak(np.linalg.inv(a)).D
            assert np.allclose(d_inv, (1.0 / d)[::-1], rtol=1e-9)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = rng.normal(size=(4, 4)) + np.eye(4)
            p = _random_rotation(4, rng)
            q = _random_rotation(4, rng)
            assert np.allclose(kak(p @ a @ q).D, kak(a).D, atol=1e-10 * norm_growth(a))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            kak(np.array([[1.0, 0.0], [0.0, 0.0]]))


def _take_along_axis_kak(terms):
    """Reference: the stacked assembly by `take_along_axis` and boolean-mask
    flips that `kak_stack` replaced, on the same batched SVD."""
    u, s, vt = np.linalg.svd(terms)
    order = np.argsort(s, axis=-1)
    L = np.take_along_axis(u, order[:, None, :], axis=2)
    D = np.take_along_axis(s, order, axis=1)
    R = np.take_along_axis(vt, order[:, :, None], axis=1)
    flip = np.linalg.det(L) < 0
    L[flip, :, -1] = -L[flip, :, -1]
    R[flip, -1, :] = -R[flip, -1, :]
    return L, D, R


class TestKakStack:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    def test_equals_take_along_axis_assembly(self, d, ties):
        """Bitwise pin: the take-along-axis assembly, signed zeros included: tied
        stacks hold identities, scaled identities, det < 0 terms and Lorentz terms
        whose middle singular values are 1 exactly (boosts, and rotations fixing e_0)."""
        rng = np.random.default_rng(60 + d)
        flip = np.diag(np.concatenate([[-1.0], np.ones(d - 1)]))
        terms = [rng.normal(size=(d, d)) + np.diag(rng.uniform(1, 3, d)) for _ in range(12)]
        terms += [flip @ t for t in terms[:6]]
        if ties:
            rot = spatial_rotation(d, _random_rotation(d - 1, rng))
            terms += [np.eye(d), 2.0 * np.eye(d), flip, boost(d, 0.7), boost(d, -1.3) @ rot,
                      rot, flip @ boost(d, 2.0), np.diag(np.r_[3.0, np.ones(d - 2), 1 / 3.0])]
        terms = np.array(terms)
        if ties:
            s = np.linalg.svd(terms, compute_uv=False)
            assert np.any(s[:, 1:] == s[:, :-1])
        got = kak_stack(terms)
        for a, b in zip((got.L, got.D, got.R), _take_along_axis_kak(terms)):
            assert a.shape == b.shape
            assert np.ascontiguousarray(a).tobytes() == b.tobytes()
        assert np.all(np.linalg.det(got.L) > 0)
        for i, t in enumerate(terms):  # one term at a time, as `kak` takes it
            one = kak(t)
            for a, b in zip((one.L, one.D, one.R), (got.L[i], got.D[i], got.R[i])):
                assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestNormGrowth:
    def test_identity(self):
        assert norm_growth(np.eye(5)) == 1.0

    def test_diagonal(self):
        assert norm_growth(np.diag([1 / 3.0, 3.0])) == pytest.approx(3.0)

    def test_shear(self):
        _, hi = shear2_singulars()
        assert norm_growth(shear2()) == pytest.approx(hi, rel=1e-12)


class TestLorentzKak:
    def test_identity(self, mink3):
        _, lam = lorentz_kak(mink3, np.eye(3))
        assert lam == 1.0

    @pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
    def test_pure_boost(self, mink4, t):
        fact, lam = lorentz_kak(mink4, boost(4, t))
        assert lam == pytest.approx(np.exp(-t), rel=1e-12)
        assert fact.D == pytest.approx([np.exp(-t), 1.0, 1.0, np.exp(t)], rel=1e-10)

    def test_rotation_fixing_time_axis(self, mink3):
        rot = spatial_rotation(3, np.array([[0.0, -1.0], [1.0, 0.0]]))
        _, lam = lorentz_kak(mink3, rot)
        assert lam == 1.0

    def test_non_isometry_rejected(self, mink3):
        with pytest.raises(NotIsometryError):
            lorentz_kak(mink3, np.diag([2.0, 1.0, 1.0]))

    def test_non_lorentz_form_rejected(self):
        with pytest.raises(PatternMismatchError):
            lorentz_kak(QuadraticForm.from_gram(np.eye(3)), np.eye(3))

    def test_split_form_standardization(self, split3):
        # isometries of x1 x3 + x2^2 go through the congruence to diag(-1,1,1)
        from lorentzdyn import split_boost
        c = standardizing_congruence(split3)
        assert np.allclose(c.T @ split3.gram @ c, np.diag([-1.0, 1, 1]), atol=1e-12)
        fact, lam = lorentz_kak(split3, split_boost(4.0))
        assert lam == pytest.approx(0.25, rel=1e-10)
        assert fact.D == pytest.approx([0.25, 1.0, 4.0], rel=1e-8)

    def test_random_products_have_lorentz_pattern(self):
        # single contracted and single expanded singular value, or compact
        rng = np.random.default_rng(6)
        for d in (3, 4, 5):
            form = QuadraticForm.minkowski(d)
            for _ in range(60):
                a = random_lorentz(d, rng)
                fact, lam = lorentz_kak(form, a)
                assert np.linalg.norm(fact.reconstruct() - a) <= 1e-10 * norm_growth(a)
                mid = fact.D[1:-1]
                assert np.max(np.abs(mid - 1.0)) <= 1e-8
                if lam < 1.0 - 1e-8:
                    assert fact.D[-1] > 1.0 + 1e-8


@pytest.mark.parametrize("axis", [0, 3, -1])
def test_boost_axis_outside_the_spacelike_range(axis):
    # DimensionError is a ValueError, so `except ValueError` still catches it
    with pytest.raises(DimensionError, match="boost axis must be a spacelike index"):
        boost(3, 1.0, axis=axis)
    with pytest.raises(ValueError):
        boost(3, 1.0, axis=axis)
