import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzdyn import (
    CausalType,
    QuadraticForm,
    Subspace,
    causal_type,
    evaluate,
    grassmann_distance,
    is_isometry,
    lightlike_hyperplane,
    orthogonal_complement,
)
from lorentzdyn.errors import DegenerateFormError, NotIsotropicError
from lorentzdyn.minkowski import (
    _dots,
    canonical_ray,
    degenerate_kernel,
    project_to_cone,
    restricted_gram,
)
from lorentzdyn.models import ads_form

from .scenarios import boost_sequence, boost_terms


class TestQuadraticForm:
    def test_minkowski_signature(self):
        f = QuadraticForm.minkowski(4)
        assert f.signature == (1, 3)
        assert f.is_lorentz()

    def test_signature_read_from_gram(self):
        assert QuadraticForm(gram=np.eye(3)).signature == (0, 3)
        assert QuadraticForm(gram=np.diag([-1.0, -1, 1, 1])).signature == (2, 2)
        with pytest.raises(TypeError):
            QuadraticForm(gram=np.eye(3), signature=(0, 3))

    @pytest.mark.parametrize("build", [
        lambda: QuadraticForm(gram=np.diag([-1.0, 1, 1])),
        lambda: QuadraticForm.from_gram([[0.0, 1], [1, 0]]),
        lambda: QuadraticForm.minkowski(4),
    ], ids=["init", "from_gram", "minkowski"])
    def test_one_eigvalsh_per_form(self, build, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        build()
        assert len(calls) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError):
            QuadraticForm.from_gram(np.diag([1.0, 0.0, -1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(DegenerateFormError):
            QuadraticForm.from_gram([[1.0, 0.5], [0.0, 1.0]])


class TestEvaluate:
    def test_minkowski_unit_timelike(self, mink3):
        assert evaluate(mink3, [1, 0, 0], [1, 0, 0]) == -1.0

    def test_split_pairing_through_area_form(self):
        # the (2,2) form pairs the factors through the area form:
        # the value on (e1, e4) is w((1,0), (0,1)) = 1
        q = ads_form()
        assert evaluate(q, [1, 0, 0, 0], [0, 0, 0, 1]) == 1.0

    def test_zero_vector(self, mink3):
        assert evaluate(mink3, [0, 0, 0], [1.0, 2.0, 3.0]) == 0.0

    @given(st.integers(0, 1000))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        g = QuadraticForm.minkowski(3)
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert evaluate(g, u, v) == pytest.approx(evaluate(g, v, u), abs=1e-12)


class TestCausalType:
    @pytest.mark.parametrize("v,expected", [
        ([1, 1, 0], CausalType.LIGHTLIKE),
        ([0, 1, 0], CausalType.SPACELIKE),
        ([2, 1, 1], CausalType.TIMELIKE),
        ([0, 0, 0], CausalType.ZERO),
    ])
    def test_standard_cases(self, mink3, v, expected):
        assert causal_type(mink3, v) is expected

    @given(st.floats(0.01, 1e6), st.integers(0, 100))
    @settings(max_examples=40)
    def test_scale_invariant(self, scale, seed):
        g = QuadraticForm.minkowski(3)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3)
        assert causal_type(g, v) is causal_type(g, scale * v)


class TestIsometry:
    def test_boost_is_isometry(self, mink3):
        from lorentzdyn import boost
        for t in (0.1, 1.0, 5.0):
            assert is_isometry(mink3, boost(3, t))

    def test_diagonal_sl2_preserves_split_form(self):
        # (A, A) block action preserves the (2,2) pairing for any A in SL(2,R)
        q = ads_form()
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            a /= np.sqrt(abs(np.linalg.det(a)))
            if np.linalg.det(a) < 0:
                a = a @ np.diag([1.0, -1.0])
            blk = np.zeros((4, 4))
            blk[:2, :2] = a
            blk[2:, 2:] = a
            assert is_isometry(q, blk)

    def test_scaling_is_not(self, mink3):
        assert not is_isometry(mink3, np.diag([2.0, 1.0, 1.0]))

    def test_is_isometry_is_the_gate_as_a_boolean(self, mink3):
        from lorentzdyn import boost
        big = boost(3, 20.0)  # A^T g A carries roundoff of about eps |A|^2 ~ 50
        assert is_isometry(mink3, big)
        assert not is_isometry(mink3, np.diag([1.0, 1.0 + 1e-6, 1.0]) @ big)
        assert not is_isometry(mink3, np.full((3, 3), np.nan))

    def test_overflowing_defect_fails_the_gate(self, mink3):
        # A^T g A overflows, and so does the roundoff allowance: nothing is checked
        from lorentzdyn.errors import NotIsometryError
        from lorentzdyn.minkowski import require_isometry
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotIsometryError):
                require_isometry(mink3, np.diag([1e300, 1.0, 1e-300]))

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_stacked_gate_matches_per_term_loop(self, d):
        """Bitwise pin: the stacked isometry gate against the one-matrix gate, term by term."""
        from lorentzdyn.cartan import boost, random_lorentz
        from lorentzdyn.errors import NotIsometryError
        from lorentzdyn.minkowski import require_isometry

        def loop_gate(form, terms, tol):
            # the one-matrix gate, run term by term, that the stacked call replaced
            for m in terms:
                op = np.linalg.norm(m, 2)
                allowance = (64.0 * form.dim * np.finfo(float).eps * op * op
                             * np.linalg.norm(form.gram, 2))
                defect = np.linalg.norm(m.T @ form.gram @ m - form.gram)
                if not np.isfinite(defect) or defect > tol * np.linalg.norm(form.gram) + allowance:
                    return False
            return True

        form = QuadraticForm.minkowski(d)
        huge = np.diag([1e300] + [1.0] * (d - 2) + [1e-300])
        outcomes = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            terms = np.array([random_lorentz(d, rng) for _ in range(8)]
                             + [boost(d, 8.0 * seed)])
            stacks = [terms, terms * (1 + 1e-9), np.concatenate([terms, huge[None]])]
            for k in (4, 6, 8, 9, 10, 12):
                bad = terms.copy()
                bad[seed] *= 1 + 10.0 ** -k
                stacks.append(bad)
            for stack in stacks:
                with np.errstate(over="ignore", invalid="ignore"):
                    want = loop_gate(form, stack, 1e-8)
                try:
                    got = require_isometry(form, stack) is not None
                except NotIsometryError:
                    got = False
                assert got == want
                outcomes.append(want)
        assert True in outcomes and False in outcomes

    @staticmethod
    def _svd_gate(form, stack):
        """The gate as it stood with one 2-norm per term: the reference for
        the bound-first gate's verdicts."""
        g = form.gram
        with np.errstate(over="ignore", invalid="ignore"):
            op = (np.linalg.norm(stack, 2, axis=(-2, -1)) if np.isfinite(stack).all()
                  else np.inf)
            allowance = 64.0 * form.dim * np.finfo(float).eps * op * op * np.linalg.norm(g, 2)
            defect = np.linalg.norm(np.swapaxes(stack, -1, -2) @ g @ stack - g, axis=(-2, -1))
        bound = 1e-8 * np.linalg.norm(g) + allowance
        return bool(np.isfinite(defect).all() and not np.any(defect > bound))

    @staticmethod
    def _gate(form, stack):
        from lorentzdyn.errors import NotIsometryError
        from lorentzdyn.minkowski import require_isometry
        try:
            return require_isometry(form, stack) is not None
        except NotIsometryError:
            return False

    @staticmethod
    def _gate_forms():
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        yield QuadraticForm.minkowski(3), None
        yield QuadraticForm.minkowski(5), None
        yield ads_form(), None
        # unequal eigenvalue sizes, so |g|_2 is not |g|_F / sqrt(d)
        yield QuadraticForm(gram=q @ np.diag([-1.0, 2.0, 7.0]) @ q.T), q

    def test_bound_first_gate_matches_svd_route_at_the_allowance(self):
        """Bitwise pin: each term is moved along A(s) = A0 diag(1 + s, 1, ...) to the last s that
        the SVD route passes; there, and a few ulps either side, the defect sits at the
        allowance, where the bounds cannot decide and the verdicts must still be the SVD route's."""
        from lorentzdyn import boost, spatial_rotation
        verdicts = set()
        for form, q in self._gate_forms():
            d = form.dim
            rot = spatial_rotation(d, np.array([[0.0, -1.0], [1.0, 0.0]])) if d == 3 else None
            bases = [np.eye(d)]
            if d == 3 and q is None:
                bases += [boost(3, t) for t in (2.0, 9.0, 17.0, 21.0)] + [rot @ boost(3, 12.0)]
            if d == 5:
                bases += [boost(5, t) for t in (4.0, 16.0)]
            if d == 4:
                bases += [np.kron(np.eye(2), np.diag([e, 1 / e])) for e in (3.0, 1e3, 1e6)]
            if q is not None:  # isometries of q diag(-1, 2, 7) q^T
                scale = np.diag(1 / np.sqrt([1.0, 2.0, 7.0]))
                bases += [q @ scale @ boost(3, t) @ np.linalg.inv(scale) @ q.T
                          for t in (1.0, 10.0)]
            for a0 in bases:
                def term(s):
                    return a0 @ np.diag([1.0 + s] + [1.0] * (d - 1))
                lo, hi = 0.0, 1.0
                assert self._svd_gate(form, term(lo))
                if self._svd_gate(form, term(hi)):
                    # past |A| ~ 6e6 the allowance passes every finite
                    # defect (the gate is vacuous there), and so must the
                    # bounds
                    for s in (1.0, 1e3, -0.5):
                        assert self._gate(form, term(s)), (form.gram, s)
                    continue
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if mid in (lo, hi):
                        break
                    if self._svd_gate(form, term(mid)):
                        lo = mid
                    else:
                        hi = mid
                near = [lo, hi]
                for _ in range(4):
                    near += [np.nextafter(near[-2], -1.0), np.nextafter(near[-1], 2.0)]
                for s in near + [0.0, 0.5 * lo, 2.0 * hi]:
                    want = self._svd_gate(form, term(s))
                    assert self._gate(form, term(s)) == want, (form.gram, s)
                    verdicts.add(want)
                stack = np.array([term(s) for s in near])
                assert self._gate(form, stack) == self._svd_gate(form, stack)
                assert self._gate(form, stack[::2]) == self._svd_gate(form, stack[::2])
        assert verdicts == {True, False}

    def test_bound_first_gate_decides_clear_terms_without_a_2_norm(self, mink3, monkeypatch):
        from lorentzdyn import boost
        norm = np.linalg.norm
        two_norms = []

        def spy(x, ord=None, **kwargs):
            if ord == 2:
                two_norms.append(np.shape(x))
            return norm(x, ord, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        terms = boost_terms(3, 0.5, 40)
        assert self._gate(mink3, terms) and self._gate(mink3, terms[7])
        assert not self._gate(mink3, terms * 1.01)
        assert not self._gate(mink3, np.zeros((3, 3)))
        assert two_norms == []
        near = terms[-1] @ np.diag([1.0 + 1e-9, 1.0, 1.0])  # the defect sits at the allowance
        assert self._gate(mink3, near) == self._svd_gate(mink3, near)
        assert two_norms

    def test_bound_first_gate_with_an_overflowing_frobenius_norm(self):
        """Bitwise pin: |A|_F^2 overflows while |A|_2^2 does not, so the bounds decide nothing; the
        defect 3e139 is over the allowance 3.4e134 of the tiny form."""
        form = QuadraticForm(gram=0.5e-160 * np.fliplr(np.eye(4)))
        a = 2.0 ** 511.7
        for last, want in ((1 / a, True), (1e146, False)):
            term = np.diag([a, a, 1 / a, last])
            with np.errstate(over="ignore"):
                assert np.isinf(np.sum(term * term))
            assert self._svd_gate(form, term) == want
            assert self._gate(form, term) == want

    def test_closure_under_product_and_inverse(self, mink3):
        from lorentzdyn import boost, spatial_rotation
        rot = spatial_rotation(3, np.array([[0.0, -1.0], [1.0, 0.0]]))
        a, b = boost(3, 0.8), rot @ boost(3, -0.3)
        assert is_isometry(mink3, a) and is_isometry(mink3, b)
        assert is_isometry(mink3, a @ b)
        assert is_isometry(mink3, np.linalg.inv(a))


class TestComplement:
    def test_lightlike_complement_contains_ray(self, mink3):
        s = orthogonal_complement(mink3, Subspace.spanned_by([1, 1, 0]))
        assert s.dim == 2
        assert s.contains([1, 1, 0])
        assert s.contains([0, 0, 1])

    def test_full_space_complement_is_zero(self, mink3):
        assert orthogonal_complement(mink3, Subspace.full(3)).dim == 0

    def test_two_lightlike_directions_4d(self, mink4):
        # perpendicularity to (1,1,0,0) and (1,-1,0,0) forces v1 = v2 = 0
        s = orthogonal_complement(
            mink4, Subspace.from_spanning(np.array([[1, 1], [1, -1], [0, 0], [0, 0.0]]))
        )
        assert s == Subspace.spanned_by([0, 0, 1, 0], [0, 0, 0, 1])

    def test_involution(self, mink4):
        rng = np.random.default_rng(11)
        for _ in range(25):
            w = rng.normal(size=(4, 2))
            s = Subspace.from_spanning(w)
            again = orthogonal_complement(mink4, orthogonal_complement(mink4, s))
            assert again.distance(s) < 1e-9


class TestLightlikeHyperplane:
    def test_standard(self, mink3):
        h = lightlike_hyperplane(mink3, [1, 1, 0])
        assert h == Subspace.from_spanning(np.array([[1, 0], [1, 0], [0, 1.0]]))

    def test_timelike_rejected(self, mink3):
        with pytest.raises(NotIsotropicError):
            lightlike_hyperplane(mink3, [1, 0, 0])

    def test_split_form_lightcone_axis(self, split3):
        # for x1 x3 + x2^2 the plane e1-perp is span{e1, e2}
        h = lightlike_hyperplane(split3, [1, 0, 0])
        assert h == Subspace.spanned_by([1, 0, 0], [0, 1, 0])

    def test_restricted_form_rank(self, mink4):
        # on u-perp the form is positive semi-definite with 1-dim kernel
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            ray = np.concatenate([[1.0], u])
            h = lightlike_hyperplane(mink4, ray)
            assert h.dim == 3
            assert h.contains(ray, tol=1e-8)
            eig = np.linalg.eigvalsh(restricted_gram(mink4, h))
            assert np.sum(np.abs(eig) < 1e-9) == 1
            assert np.all(eig > -1e-9)
            assert degenerate_kernel(mink4, h).dim == 1


class TestSubspace:
    def test_equality_tolerance(self):
        a = Subspace.spanned_by([1, 0, 0])
        tilted = Subspace.from_spanning(np.array([[1.0], [1e-9], [0.0]]))
        far = Subspace.from_spanning(np.array([[1.0], [1e-3], [0.0]]))
        assert a == tilted
        assert a != far
        assert a.isclose(far, tol=2e-3)

    def test_dimension_mismatch_distance(self):
        a = Subspace.spanned_by([1, 0, 0])
        b = Subspace.spanned_by([1, 0, 0], [0, 1, 0])
        assert a.distance(b) == pytest.approx(np.pi / 2)

    def test_grassmann_small_angles_not_floored(self):
        # the sine route resolves angles far below the arccos noise floor
        c, s = np.cos(1e-10), np.sin(1e-10)
        a = np.array([[1.0], [0.0]])
        b = np.array([[c], [s]])
        assert grassmann_distance(a, b) == pytest.approx(1e-10, rel=1e-3)

    def test_angle_to_vector(self, mink3):
        s = Subspace.spanned_by([1, 0, 0], [0, 1, 0])
        assert s.angle_to_vector([1, 1, 0]) < 1e-12
        assert s.angle_to_vector([0, 0, 1]) == pytest.approx(np.pi / 2)


class TestRays:
    def test_canonical_ray_sign(self):
        r = canonical_ray([-2.0, 1.0, 0.0])
        assert r[0] > 0
        assert np.linalg.norm(r) == pytest.approx(1.0)

    def test_project_to_cone(self, mink3):
        v = np.array([1.0, 1.0, 0.0]) + 1e-4 * np.array([0.3, -0.2, 0.9])
        r = project_to_cone(mink3, v)
        assert abs(evaluate(mink3, r, r)) < 1e-14
        assert np.arccos(min(1.0, abs(r @ canonical_ray([1, 1, 0])))) < 1e-3

    def test_project_far_vector_rejected(self, mink3):
        with pytest.raises(NotIsotropicError):
            project_to_cone(mink3, [1.0, 0.0, 0.0])


def _per_row_dots(a, b):
    """Reference: `a @ b` on each broadcast pair of 1-D rows."""
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape[:-1])
    for idx in np.ndindex(out.shape):
        out[idx] = a[idx] @ b[idx]
    return out


class TestDots:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 9, 36])
    def test_equals_per_row_matmul(self, d):
        """Bitwise pin: per-row products on the shapes the callers pass: 1-D rows, stacks, a stack
        against one row, all pairs by broadcasting, raveled d x d blocks, reversed and strided
        views, and rows that overflow."""
        rng = np.random.default_rng(20 + d)
        a = rng.normal(size=(30, d)) * 10.0 ** rng.uniform(-8, 8, size=(30, 1))
        b = rng.normal(size=(30, d))
        c = rng.normal(size=(4, 30, d))
        big = np.full((3, d), 1e200)
        big[1, 0] = np.inf
        cases = [(a[0], b[0]), (a, a), (a, b), (a, b[3]), (a[:, None], a[None]),
                 (c, b), (c.reshape(4, -1, 3 * d), c.reshape(4, -1, 3 * d)[:, ::-1]),
                 (a[::-1], b), (a[:, ::-1], b[:, ::-1]), (c[:, ::-2], a[::2]),
                 (np.asfortranarray(a), b), (a[:0], b[:0]), (big, big)]
        for x, y in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = _dots(x, y), _per_row_dots(x, y)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_boost_norms_diverge():
    seq = boost_sequence(3, 0.5, 24)
    norms = [np.linalg.norm(t, 2) for t in seq.terms]
    assert norms == sorted(norms)
    assert norms[-1] > 1e4
