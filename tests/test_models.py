import tracemalloc
import warnings

import numpy as np
import pytest

from lorentzdyn import (
    BoundaryPoint,
    EntireCone,
    HopfModel,
    IsotropicPlane2,
    RationalLorentzForm,
    ads_form,
    ads_pair_orbit,
    ads_plane_family,
    ads_second_factor_action,
    evaluate,
    fixed_isotropic_directions,
    grassmann_distance,
    hopf_return_cocycle,
    integer_isometries,
    mobius_rp1,
    plus_minus_identity_check,
    rp1_distance,
    split_boost,
    split_unipotent,
)
from lorentzdyn import models
from lorentzdyn.errors import (BudgetError, NotIsometryError, NotIsotropicError, NumericalError,
                               PreconditionError)
from lorentzdyn.minkowski import canonical_ray
from lorentzdyn.models import (
    INFINITY,
    diagonal_action,
    rational_ray_diagnostic,
    second_factor_action_matrix,
)
from lorentzdyn.projective import ray_angle

from .scenarios import (INTEGER_MINK3, INTEGER_SPLIT3, hyperbolic_322, integer_unipotent,
                        random_sl2, torus_sweep)


class TestIntegerEnumeration:
    def test_height_one_group(self, int_mink3):
        elems = integer_isometries(int_mink3, 1)
        # the height-1 stabilizer: signed permutations of the spacelike pair
        # crossed with the time sign
        assert len(elems) == 16
        keys = {a.tobytes() for a in elems}
        assert np.eye(3, dtype=np.int64).tobytes() in keys
        for a in elems:
            assert abs(round(np.linalg.det(a.astype(float)))) == 1
            inv = np.rint(np.linalg.inv(a.astype(float))).astype(np.int64)
            assert inv.tobytes() in keys

    def test_height_three_closure_and_hyperbolics(self, int_mink3):
        elems = integer_isometries(int_mink3, 3)
        assert len(elems) == 80
        keys = {a.tobytes() for a in elems}
        hyper = [a for a in elems
                 if np.max(np.abs(np.linalg.eigvals(a.astype(float)))) > 1.0001]
        assert hyper, "height 3 must contain a hyperbolic element"
        assert hyperbolic_322().tobytes() in keys
        for a in elems[:20]:
            for b in elems[:20]:
                prod = a @ b
                if np.max(np.abs(prod)) <= 3:
                    assert prod.tobytes() in keys

    def test_cone_preservation(self, int_mink3):
        elems = integer_isometries(int_mink3, 2)
        g = int_mink3.gram
        cone = [v for v in
                (np.array([i, j, k]) for i in range(-3, 4)
                 for j in range(-3, 4) for k in range(-3, 4))
                if v @ g @ v == 0 and np.any(v != 0)]
        for a in elems:
            for v in cone:
                w = a @ v
                assert w @ g @ w == 0

    def test_dimension_budget(self):
        g5 = np.diag([-1, 1, 1, 1, 1]).astype(np.int64)
        with pytest.raises(BudgetError):
            integer_isometries(RationalLorentzForm(gram=g5), 1)

    def test_split_integer_form(self, int_split3):
        elems = integer_isometries(int_split3, 2)
        keys = {a.tobytes() for a in elems}
        assert integer_unipotent().tobytes() in keys

    @pytest.mark.parametrize("gram", [INTEGER_MINK3, INTEGER_SPLIT3], ids=["mink3", "split3"])
    def test_height_one_is_every_solution_in_depth_first_order(self, gram):
        # all 3^9 matrices with entries in {-1, 0, 1}, their column indices
        # into the meshgrid table of columns running lexicographically, which
        # is the order a depth-first search over the columns visits them in
        table = np.stack(np.meshgrid(*[np.arange(-1, 2)] * 3, indexing="ij"), -1).reshape(-1, 3)
        picks = np.stack(np.meshgrid(*[np.arange(27)] * 3, indexing="ij"), -1).reshape(-1, 3)
        mats = np.swapaxes(table[picks], 1, 2)  # column c of mats[n] is table[picks[n, c]]
        expected = mats[np.all(np.swapaxes(mats, 1, 2) @ gram @ mats == gram, axis=(1, 2))]
        got = integer_isometries(RationalLorentzForm(gram=gram), 1)
        assert all(a.dtype == np.int64 and a.shape == (3, 3) for a in got)
        assert len(got) == len(expected)
        assert np.array_equal(np.array(got), expected)

    def test_int64_overflow_is_refused_up_front(self):
        # d^2 height^2 max|g| bounds every product entry: 9 * 121 * (2**53 - 1)
        # passes 2**63, 9 * 100 * (2**53 - 1) does not
        g = RationalLorentzForm(gram=np.diag([-(2 ** 53 - 1), 1, 1]))
        with pytest.raises(BudgetError, match="could overflow int64"):
            integer_isometries(g, 11)
        elems = integer_isometries(g, 10)
        assert len(elems) == 16
        assert all(np.array_equal(a.T @ g.gram @ a, g.gram) for a in elems)

    def test_column_table_is_built_in_blocks(self):
        # height 20 under diag(1, 1, 1, -1): 41^4 columns, of which only
        # those of norm +-1 are kept; the operation budget still stops the
        # search, and the whole table is never held at once
        g = RationalLorentzForm(gram=np.diag([1, 1, 1, -1]))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="exceeded its operation budget"):
                integer_isometries(g, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_operation_budget_boundary(self, int_mink3, monkeypatch):
        # height 1 under diag(-1, 1, 1): 2 first columns; 2 x 12 products and
        # 8 pairs; 8 x 12 x 2 products and 16 matrices: 242 operations
        monkeypatch.setattr(models, "ENUMERATION_BUDGET", 242)
        assert len(integer_isometries(int_mink3, 1)) == 16
        monkeypatch.setattr(models, "ENUMERATION_BUDGET", 241)
        with pytest.raises(BudgetError, match="exceeded its operation budget"):
            integer_isometries(int_mink3, 1)


class TestIntegerIsometryGate:
    def test_singular_matrix_rejected(self, int_mink3):
        # A^T g A = 0; a float gate at this scale passes it
        a = [[4507073, 4507073, 0], [4507073, 4507073, 0], [0, 0, 1]]
        with pytest.raises(NotIsometryError, match="matrix does not preserve the form"):
            int_mink3.require_isometry(a, "element")

    def test_stack_gate_matches_per_element_gate(self, int_mink3):
        good, rot = hyperbolic_322(), np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]])
        half, wrong, huge = good + 0.5, 2 * good, good * 2 ** 53
        nan = np.where(np.eye(3) > 0, np.nan, good)
        cases = [[good, rot], [good, half, wrong], [good, wrong, half], [rot, huge, wrong],
                 [good, nan], [good, np.eye(2)], [good, np.eye(2), wrong],
                 [good, wrong, np.eye(2)], [np.eye(2)] * 2, [good.tolist(), rot.tolist()],
                 [good, [[1, 0, 0], [0, 1]]], np.stack([rot, good, -good]), [], [True] * 3]

        def outcome(f):
            try:
                mats = f()
            except ValueError as exc:  # a ragged element is numpy's ValueError
                return type(exc).__name__, str(exc)
            assert mats.dtype == np.int64 and not mats.flags.writeable
            return "ok", mats.shape, mats.tobytes()

        def per_element(elements):
            mats = np.array([int_mink3.require_isometry(a, "element") for a in elements],
                            dtype=np.int64).reshape(-1, 3, 3)
            mats.flags.writeable = False
            return mats

        kinds = set()
        for elements in cases:
            want = outcome(lambda: per_element(elements))
            got = outcome(lambda: int_mink3.require_isometries(elements, "element"))
            assert got == want
            kinds.add(want[0])
        assert kinds == {"ok", "PreconditionError", "DimensionError", "NotIsometryError",
                         "ValueError"}


def _fixed_directions_reference(g, elements):
    """The per-element, per-eigenvalue candidate loop that the batched
    `fixed_isotropic_directions` replaced, kept to pin its bits."""
    form = g.to_quadratic_form()
    eye = np.eye(g.dim)
    acting = [np.asarray(a, dtype=float) for a in elements
              if not (np.allclose(a, eye, atol=1e-12) or np.allclose(a, -eye, atol=1e-12))]
    if not acting:
        return EntireCone(form=g)
    candidates = []
    for a in acting:
        w, v = np.linalg.eig(a)
        for i in range(len(w)):
            if abs(w[i].imag) > 1e-8:
                continue
            vec = np.real(v[:, i])
            nv = np.linalg.norm(vec)
            if nv < 1e-8:
                continue
            vec = vec / nv
            if abs(evaluate(form, vec, vec)) > 1e-8:
                continue
            candidates.append(canonical_ray(vec))
    fixed = []
    for ray in candidates:
        if any(ray_angle(ray, r) < 1e-9 for r in fixed):
            continue
        if all(ray_angle(a @ ray, ray) <= 1e-8 for a in acting):
            fixed.append(ray)
    return [BoundaryPoint(ray=r) for r in fixed]


def _ray_bytes(out):
    return "entire-cone" if isinstance(out, EntireCone) else [b.ray.tobytes() for b in out]


class TestFixedDirections:
    @pytest.mark.parametrize("gram, height", [
        (INTEGER_MINK3, 2), (INTEGER_SPLIT3, 2), (np.diag([1, 1, 1, -1]), 1),
        # height 2 holds d = 4 elements whose eigenvector norms change with
        # the memory layout of the rows
        (np.diag([1, 1, 1, -1]), 2),
    ], ids=["mink3-h2", "split3-h2", "mink4-h1", "mink4-h2"])
    def test_equals_per_element_reference_bitwise(self, gram, height):
        """Bitwise pin: fixed rays against the per-element reference."""
        g = RationalLorentzForm(gram=gram)
        elems = integer_isometries(g, height)
        for a in elems:
            assert _ray_bytes(fixed_isotropic_directions(g, [a])) == \
                _ray_bytes(_fixed_directions_reference(g, [a]))
        assert _ray_bytes(fixed_isotropic_directions(g, elems)) == \
            _ray_bytes(_fixed_directions_reference(g, elems))

    @pytest.mark.parametrize("copies", [1, 40])
    def test_commuting_elements_equal_reference_bitwise(self, int_mink3, copies):
        """Bitwise pin: powers of one hyperbolic element share its two rays: they stay fixed through
        every element, and each reappears among the candidates of every element."""
        h = hyperbolic_322()
        h_inv = INTEGER_MINK3 @ h.T @ INTEGER_MINK3
        elems = [np.linalg.matrix_power(m, k) for m in (h, h_inv) for k in (1, 2, 3)] * copies
        out = fixed_isotropic_directions(int_mink3, elems)
        assert len(out) == 2
        assert _ray_bytes(out) == _ray_bytes(_fixed_directions_reference(int_mink3, elems))

    def test_identity_fixes_whole_cone(self, int_mink3):
        out = fixed_isotropic_directions(int_mink3, [np.eye(3)])
        assert isinstance(out, EntireCone)

    def test_hyperbolic_fixes_two_rays(self, int_mink3):
        out = fixed_isotropic_directions(int_mink3, [hyperbolic_322()])
        assert len(out) == 2
        form = int_mink3.to_quadratic_form()
        for b in out:
            assert abs(evaluate(form, b.ray, b.ray)) < 1e-9
            img = hyperbolic_322().astype(float) @ b.ray
            assert ray_angle(img, b.ray) < 1e-8

    def test_disjoint_elements_fix_nothing(self, int_mink3):
        rot = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=np.int64)
        out = fixed_isotropic_directions(int_mink3, [hyperbolic_322(), rot])
        assert out == []


def _sweep_fixed_counts(diag: tuple, kind: str) -> list[int]:
    """How many rays `fixed_isotropic_directions` returns for each element
    of one kind in the torus sweep of the form diag(diag)."""
    return [len(fixed_isotropic_directions(g, [a])) for g, a, k in torus_sweep()
            if k == kind and tuple(np.diag(g.gram)) == diag]


class TestSweepFixedRays:
    """The fixed isotropic rays of single sweep elements, which are known:
    two for a hyperbolic element (its contracted and expanded eigenrays),
    one for a parabolic element (the kernel ray of a power of A - I)."""

    @pytest.mark.parametrize("diag", [(1, 1, 1, -1), (-1, 1, 1)], ids=str)
    def test_hyperbolic_elements_fix_two_rays(self, diag):
        assert set(_sweep_fixed_counts(diag, "hyperbolic")) == {2}

    def test_contracted_ray_found(self, int_mink3):
        a = np.array([[-3, -2, 2], [-2, -2, 1], [-2, -1, 2]])
        assert len(fixed_isotropic_directions(int_mink3, [a])) == 2

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "fixed-ray count: eig's eigenvectors of the Jordan block at 1 are "
        "inexact, so 40 of the 192 parabolic elements of diag(1,1,1,-1) at "
        "height 2 get two to four rays, fixed to the 1e-8 angle test but more "
        "than the 1e-9 dedupe apart"))
    def test_parabolic_elements_fix_one_ray(self):
        assert set(_sweep_fixed_counts((1, 1, 1, -1), "parabolic")) == {1}


class TestPlusMinusIdentity:
    def rays(self):
        form = RationalLorentzForm(gram=INTEGER_MINK3).to_quadratic_form()
        return [BoundaryPoint.from_vector(form, v)
                for v in ([1, 1, 0], [1, -1, 0], [1, 0, 1])]

    def test_identity(self, int_mink3):
        assert plus_minus_identity_check(int_mink3, np.eye(3), self.rays())

    def test_minus_identity(self, int_mink3):
        assert plus_minus_identity_check(int_mink3, -np.eye(3), self.rays())

    def test_unfixed_rays_rejected(self, int_mink3):
        with pytest.raises(PreconditionError):
            plus_minus_identity_check(int_mink3, hyperbolic_322().astype(float),
                                      self.rays())

    def test_non_isometry_rejected(self, int_mink3):
        # 2 I fixes every ray, with multiplier 2, but does not preserve the form
        with pytest.raises(NotIsometryError):
            plus_minus_identity_check(int_mink3, 2 * np.eye(3), self.rays())

    def test_non_isotropic_rays_rejected(self):
        # diag(1, 1, -1) preserves diag(-1, 1, 1) and fixes e0, e1, e2 with
        # multipliers 1, 1, -1, but the three rays are not isotropic
        g = RationalLorentzForm(gram=np.diag([-1, 1, 1]))
        with pytest.raises(NotIsotropicError):
            plus_minus_identity_check(g, np.diag([1, 1, -1]), np.eye(3))
        # a boundary point built without the cone check is checked too
        form = g.to_quadratic_form()
        rays = [BoundaryPoint.from_vector(form, v) for v in ([1, 1, 0], [1, 0, 1])]
        with pytest.raises(NotIsotropicError):
            plus_minus_identity_check(g, np.eye(3), rays + [BoundaryPoint(ray=[0.0, 1.0, 0.0])])

    def test_proportional_rays_rejected(self, int_mink3):
        form = int_mink3.to_quadratic_form()
        r = BoundaryPoint.from_vector(form, [1, 1, 0])
        with pytest.raises(PreconditionError):
            plus_minus_identity_check(int_mink3, np.eye(3), [r, r, r])

    def test_rays_near_a_hyperbolic_eigenray_are_moved(self):
        # three unit rays 3e-9 to 2e-8 off the expanding eigenray of a
        # hyperbolic element (eigenvalue 3 + 2 sqrt 2), pairwise 1e-8 apart:
        # the element moves each of them by more than the 1e-8 angle test
        g = RationalLorentzForm(gram=np.diag([-1, 1, 1]))
        a = np.array([[3.0, 2, 2], [2, 1, 2], [2, 2, 1]])
        rays = [[0.7071067813670164, 0.49999999575076653, 0.5000000039940118],
                [0.7071067808792382, 0.49999998757687103, 0.5000000128577298],
                [0.7071067809505189, 0.500000004426951, 0.4999999959068438]]
        with pytest.raises(PreconditionError, match="matrix does not fix all three rays"):
            plus_minus_identity_check(g, a, rays)

    def test_one_ray_seen_three_times_rejected(self):
        # a parabolic element fixes its ray (1, 0, 1)/sqrt 2 exactly and moves
        # the cone rays (1, cos t, sin t)/sqrt 2 at t = pi/2 +- 1e-7 by under
        # 1e-14: each is fixed and isotropic to the tolerances and they are
        # pairwise 7e-8 apart, but distinct isotropic rays would force
        # multipliers of one sign of 1, and theirs are -1 to 2e-7
        g = RationalLorentzForm(gram=np.diag([-1, 1, 1]))
        a = np.array([[-3.0, -2, 2], [-2, -1, 2], [-2, -2, 1]])
        t = np.pi / 2 + np.array([-1e-7, 0.0, 1e-7])
        rays = np.stack([np.ones(3), np.cos(t), np.sin(t)], axis=1) / np.sqrt(2)
        with pytest.raises(PreconditionError, match="numerically one ray"):
            plus_minus_identity_check(g, a, rays)


class TestHopf:
    def annulus_point(self, model, x):
        x = np.asarray(x, float)
        r = np.linalg.norm(x)
        k = 0
        while model.alpha ** k * r > 1.0:
            k += 1
        while model.alpha ** k * r <= model.alpha:
            k -= 1
        return model.alpha ** k * x

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            HopfModel(alpha=1.5, lam=2.0)

    def test_origin_rejected(self):
        with pytest.raises(PreconditionError):
            hopf_return_cocycle(HopfModel(alpha=0.5, lam=2.0), [0.0, 0.0], 3)

    def test_representative_lands_in_annulus(self):
        model = HopfModel(alpha=0.5, lam=2.0)
        for b in (0.0, 1.0, 0.1, -0.3):
            xt = self.annulus_point(model, (1.0, b))
            for n in (0, 3, 11, 30):
                m, rep = hopf_return_cocycle(model, (1.0, b), n)
                img = rep @ xt
                # half-open annulus: boundary ties resolve in log space
                assert model.alpha * (1 - 1e-12) < np.linalg.norm(img) <= 1.0 + 1e-12

    def test_fixed_axis_diverges(self):
        model = HopfModel(alpha=0.5, lam=2.0)
        norms = [np.linalg.norm(hopf_return_cocycle(model, (1.0, 0.0), n)[1], 2)
                 for n in range(31)]
        assert norms[-1] == 2.0 ** 30
        assert norms == sorted(norms)

    def test_off_axis_bounded_but_not_equicontinuous(self):
        model = HopfModel(alpha=0.5, lam=2.0)
        reps = [hopf_return_cocycle(model, (1.0, 0.1), n)[1] for n in range(31)]
        norms = [np.linalg.norm(r, 2) for r in reps]
        inv_norms = [np.linalg.norm(np.linalg.inv(r), 2) for r in reps]
        assert max(norms) < 20.0
        assert max(inv_norms) > 1e6

    def test_modulus_degrades_as_b_shrinks(self):
        model = HopfModel(alpha=0.5, lam=2.0)
        maxima = []
        for b in (1.0, 0.1, 0.01):
            maxima.append(max(
                np.linalg.norm(hopf_return_cocycle(model, (1.0, b), n)[1], 2)
                for n in range(31)))
        assert maxima[0] < maxima[1] < maxima[2]

    def test_zero_power_is_rescaling(self):
        model = HopfModel(alpha=0.5, lam=2.0)
        m, rep = hopf_return_cocycle(model, (0.7, 0.1), 0)
        assert rep[0, 0] == rep[1, 1]

    @pytest.mark.parametrize("point", [(1e300, 0.0), (1e-300, 1e-300), (-3e-308, 2e-307),
                                       (1.2e308, -1.2e308)],
                             ids=["huge", "tiny", "near-subnormal", "near-max"])
    def test_extreme_points_land_in_annulus(self, point):
        model = HopfModel(alpha=0.5, lam=2.0)
        # alpha = 2^-1: the point scaled into the annulus is an exact ldexp
        xt = np.ldexp(point, -np.frexp(np.hypot(*point))[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (0, 1, 7):
                m, rep = hopf_return_cocycle(model, point, n)
                assert model.alpha < np.linalg.norm(rep @ xt) <= 1.0 + 1e-12

    @pytest.mark.parametrize("point", [(1e-320, 0.0), (1.5e308, 1.5e308)],
                             ids=["subnormal", "norm-overflows"])
    def test_points_past_the_scaling_range(self, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="too near 0 or infinity"):
                hopf_return_cocycle(HopfModel(alpha=0.5, lam=2.0), point, 0)


class TestAdsFamily:
    def test_form_signature_guard(self):
        assert ads_form().signature == (2, 2)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -2.5, INFINITY])
    def test_family_planes_totally_isotropic(self, alpha):
        p = ads_plane_family(alpha)
        g = ads_form().gram
        assert np.max(np.abs(p.basis.T @ g @ p.basis)) < 1e-10 * max(
            1.0, np.max(np.abs(p.basis)) ** 2)

    def test_alpha_one_basis(self):
        p = ads_plane_family(1.0)
        expected = np.array([[1, 0], [0, 1], [1, 0], [0, 1.0]])
        assert grassmann_distance(
            np.linalg.qr(p.basis)[0], np.linalg.qr(expected)[0]) < 1e-12

    def test_diagonal_action_fixes_each_plane(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = random_sl2(rng)
            alpha = float(rng.normal() * 2)
            p = ads_plane_family(alpha)
            img = diagonal_action(m) @ p.basis
            assert grassmann_distance(
                np.linalg.qr(img)[0], np.linalg.qr(p.basis)[0]) < 1e-8

    def test_pair_orbits(self):
        same = ads_pair_orbit(ads_plane_family(0.3), ads_plane_family(0.3))
        transverse = ads_pair_orbit(ads_plane_family(0.0), ads_plane_family(1.0))
        at_infinity = ads_pair_orbit(ads_plane_family(2.0), ads_plane_family(INFINITY))
        assert (same, transverse, at_infinity) == (2, 0, 0)
        # a plane of the other circle (fixed column space) cuts each family
        # plane in a line
        other = IsotropicPlane2(basis=np.array([[1.0, 0], [0, 0], [0, 1], [0, 0]]))
        assert ads_pair_orbit(ads_plane_family(0.5), other) == 1
        assert ads_pair_orbit(ads_plane_family(INFINITY), other) == 1


class TestSecondFactorAction:
    def test_identity(self):
        assert ads_second_factor_action(np.eye(2), 0.8) == pytest.approx(0.8)

    def test_diagonal_scales_quadratically(self):
        mu = 1.7
        out = ads_second_factor_action(np.diag([mu, 1 / mu]), 0.3)
        assert out == pytest.approx(mu * mu * 0.3, rel=1e-12)

    def test_rotation_sends_zero_to_infinity(self):
        out = ads_second_factor_action(ROT90 := np.array([[0.0, -1.0], [1.0, 0.0]]), 0.0)
        assert np.isinf(out)

    def test_matches_mobius_action(self):
        rng = np.random.default_rng(12)
        j = np.diag([1.0, -1.0])
        for _ in range(60):
            h = random_sl2(rng)
            alpha = float(rng.normal() * 2)
            geo = ads_second_factor_action(h, alpha)
            alg = mobius_rp1(j @ h @ j, alpha)
            assert rp1_distance(geo, alg) < 1e-8

    def test_composition_contravariant(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            h1, h2 = random_sl2(rng), random_sl2(rng)
            alpha = float(rng.normal())
            chained = ads_second_factor_action(h2, ads_second_factor_action(h1, alpha))
            combined = ads_second_factor_action(h2 @ h1, alpha)
            assert rp1_distance(chained, combined) < 1e-8

    def test_action_matrix_is_isometry(self):
        rng = np.random.default_rng(14)
        g = ads_form().gram
        for _ in range(20):
            m = second_factor_action_matrix(random_sl2(rng))
            assert np.linalg.norm(m.T @ g @ m - g) < 1e-12

    def test_determinant_enforced(self):
        with pytest.raises(PreconditionError):
            ads_second_factor_action(np.diag([2.0, 1.0]), 0.0)

    def test_integer_determinant_is_exact(self):
        # [[2,1],[1,1]]^12: LU's float determinant is off by 1.4e-7
        h = np.linalg.matrix_power(np.array([[2, 1], [1, 1]]), 12).astype(float)
        assert np.array_equal(h, [[75025, 46368], [46368, 28657]])
        assert abs(np.linalg.det(h) - 1.0) > 1e-8
        second_factor_action_matrix(h)
        diagonal_action(h)
        for bad in (h + np.diag([0.0, 1.0]), np.array([[2.0**52, 1.0], [1.0, 0.0]])):
            with pytest.raises(PreconditionError, match="determinant 1"):
                second_factor_action_matrix(bad)

    def test_float_determinant_allowance_grows_with_the_products(self):
        rng = np.random.default_rng(16)
        for n in (1, 10, 25, 40):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            h = q @ np.diag([np.exp(0.3 * n), np.exp(-0.3 * n)]) @ q.T
            second_factor_action_matrix(h)
        for det in (1.0 + 1e-6, 1.0 - 1e-6, 0.0, -1.0):
            with pytest.raises(PreconditionError, match="determinant 1"):
                second_factor_action_matrix(np.diag([det, 1.0]) @ random_sl2(rng))

    def test_large_parameters_match_mobius_action(self):
        rng = np.random.default_rng(15)
        j = np.diag([1.0, -1.0])
        for _ in range(60):
            h = random_sl2(rng)
            alpha = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 307))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                geo = ads_second_factor_action(h, alpha)
            with np.errstate(over="ignore"):
                alg = mobius_rp1(j @ h @ j, alpha)
            assert rp1_distance(geo, alg) < 1e-8


class TestMobiusHelpers:
    def test_mobius_at_infinity(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert mobius_rp1(m, INFINITY) == pytest.approx(2.0)
        assert np.isinf(mobius_rp1(np.array([[1.0, 1.0], [0.0, 1.0]]), INFINITY))

    @pytest.mark.parametrize("m, t, image", [
        (np.diag([2.0, 0.5]), 1e15, 4e15),  # c t + d tiny next to a t + b
        (np.array([[2.0, 0.0], [1.0, 0.5]]), 1e308, 2.0),  # a t + b overflows
    ], ids=["large-image", "huge-argument"])
    def test_mobius_large_finite_image(self, m, t, image):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mobius_rp1(m, t)
        assert abs(got - image) <= 2 * np.spacing(image)

    def test_mobius_image_past_float_range_is_infinite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mobius_rp1(np.array([[30.0, 0.0], [0.0, 1 / 30]]), 1e307) == INFINITY

    def test_rp1_distance_symmetry(self):
        assert rp1_distance(0.0, INFINITY) == pytest.approx(1.0)
        assert rp1_distance(3.0, 3.0) == 0.0


class TestSplitHelpers:
    def test_unipotent_one_parameter_group(self, split3):
        a, b = 1.3, -0.4
        prod = split_unipotent(a) @ split_unipotent(b)
        assert np.allclose(prod, split_unipotent(a + b), atol=1e-12)
        g = split3.gram
        u = split_unipotent(2.0)
        assert np.linalg.norm(u.T @ g @ u - g) < 1e-12

    def test_boost_isometry(self, split3):
        g = split3.gram
        c = split_boost(3.0)
        assert np.linalg.norm(c.T @ g @ c - g) < 1e-14


def test_rational_diagnostic():
    fracs, err = rational_ray_diagnostic(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
    assert err < 1e-12
    assert str(fracs[0]) == "1"
