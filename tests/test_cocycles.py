import functools

import numpy as np
import pytest

from lorentzdyn import (
    RationalLorentzForm,
    TorusAutomorphism,
    big_lambda,
    cocycle,
    entropy_dichotomy,
    evaluate,
    lyapunov_exponent,
    normal_directions,
)
from lorentzdyn.cocycles import ray_multiplier
from lorentzdyn.errors import (
    BudgetError,
    InsufficientDataError,
    NotHyperbolicError,
    PreconditionError,
)
from lorentzdyn.stability import as_subspace_kak

from .scenarios import (MU, PARABOLIC_4, barning_power, hyperbolic_322, integer_unipotent,
                        torus_sweep)


@functools.lru_cache(maxsize=None)
def parabolic_reports() -> tuple:
    """(automorphism, entropy report) for the 400 parabolic elements of the
    torus sweep."""
    auts = [TorusAutomorphism(matrix=a, form=g) for g, a, kind in torus_sweep()
            if kind == "parabolic"]
    return tuple((aut, entropy_dichotomy(aut)) for aut in auts)


@pytest.fixture
def hyper(int_mink3):
    return TorusAutomorphism(matrix=hyperbolic_322(), form=int_mink3)


@pytest.fixture
def unipotent(int_split3):
    return TorusAutomorphism(matrix=integer_unipotent(), form=int_split3)


@pytest.fixture
def finite_order(int_mink3):
    swap = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=np.int64)
    return TorusAutomorphism(matrix=swap, form=int_mink3)


class TestConstruction:
    def test_non_isometry_rejected(self, int_mink3):
        with pytest.raises(PreconditionError):
            TorusAutomorphism(matrix=np.diag([2, 1, 1]).astype(np.int64),
                              form=int_mink3)

    def test_non_integer_rejected(self, int_mink3):
        with pytest.raises(PreconditionError):
            TorusAutomorphism(matrix=np.eye(3) * 0.5, form=int_mink3)

    def test_large_power_is_exactly_an_isometry(self):
        # entries near 7.7e8: the float determinant does not round to +-1
        form = RationalLorentzForm(gram=np.diag([1, 1, -1]))
        aut = TorusAutomorphism(matrix=barning_power(12), form=form)
        assert aut.matrix.dtype == np.int64 and not aut.matrix.flags.writeable
        assert aut.is_hyperbolic()

    def test_hyperbolic_flag(self, hyper, finite_order, unipotent):
        assert hyper.is_hyperbolic()
        assert not finite_order.is_hyperbolic()
        assert not unipotent.is_hyperbolic()

    def test_hyperbolic_flag_matches_sweep(self):
        kinds = [kind for _, _, kind in torus_sweep()]
        assert [kinds.count(k) for k in ("hyperbolic", "parabolic", "finite")] == [800, 400, 608]
        for g, a, kind in torus_sweep():
            assert TorusAutomorphism(matrix=a, form=g).is_hyperbolic() == (kind == "hyperbolic")

    @pytest.mark.parametrize("d", [5, 6])
    def test_hyperbolic_flag_up_to_d6(self, d):
        # the Barning matrix on the first three axes, the identity elsewhere
        g = RationalLorentzForm(gram=np.diag([1, 1, -1] + [1] * (d - 3)))
        a = np.eye(d, dtype=np.int64)
        a[:3, :3] = barning_power(1)
        assert TorusAutomorphism(matrix=a, form=g).is_hyperbolic()
        swap = np.eye(d, dtype=np.int64)[[0, 1, 2, 4, 3] + list(range(5, d))]
        assert not TorusAutomorphism(matrix=swap, form=g).is_hyperbolic()

    def test_past_d6_refused_before_any_power(self, monkeypatch):
        g = RationalLorentzForm(gram=np.diag([-1, 1, 1, 1, 1, 1, 1]))
        aut = TorusAutomorphism(matrix=np.eye(7, dtype=np.int64)[[0, 2, 1, 3, 4, 5, 6]], form=g)
        def no_power(*args, **kwargs):
            raise AssertionError("a power was formed")
        monkeypatch.setattr(np.linalg, "matrix_power", no_power)
        monkeypatch.setattr(TorusAutomorphism, "power_sequence", no_power)
        with pytest.raises(BudgetError, match="limited to d <= 6, got d = 7"):
            aut.is_hyperbolic()
        with pytest.raises(BudgetError):
            entropy_dichotomy(aut)


class TestNormalDirections:
    def test_isotropic_eigenray_pair(self, hyper, int_mink3):
        contracted, expanded = normal_directions(hyper)
        form = int_mink3.to_quadratic_form()
        a = hyper.matrix.astype(float)
        for ray, mult in ((contracted, 1 / MU), (expanded, MU)):
            assert abs(evaluate(form, ray.ray, ray.ray)) < 1e-10
            assert np.linalg.norm(a @ ray.ray) == pytest.approx(mult, rel=1e-10)
        assert contracted.angle_to(expanded) > 0.5

    def test_elliptic_rejected(self, finite_order):
        with pytest.raises(NotHyperbolicError):
            normal_directions(finite_order)

    def test_parabolic_rejected(self, unipotent):
        with pytest.raises(NotHyperbolicError):
            normal_directions(unipotent)

    def test_jordan_parabolic_rejected(self):
        aut = TorusAutomorphism(matrix=PARABOLIC_4,
                                form=RationalLorentzForm(gram=np.diag([1, 1, 1, -1])))
        with pytest.raises(NotHyperbolicError, match="root of unity"):
            normal_directions(aut)


class TestCocycle:
    def test_at_identity(self, hyper):
        v = cocycle(hyper, 0)
        assert (v.lambda1, v.lambda2) == (1.0, 1.0)

    def test_one_step_multipliers(self, hyper):
        v = cocycle(hyper, 1)
        assert v.lambda1 == pytest.approx(1 / MU, rel=1e-14)
        assert v.lambda2 == pytest.approx(MU, rel=1e-14)

    def test_inverse_step(self, hyper):
        v, w = cocycle(hyper, -1), cocycle(hyper, 1)
        assert v.lambda1 == pytest.approx(1 / w.lambda1, rel=1e-14)
        assert v.lambda2 == pytest.approx(1 / w.lambda2, rel=1e-14)

    def test_multiplicative_identity_machine_exact(self, hyper):
        worst = 0.0
        for n in range(-20, 21):
            for m in range(-20, 21):
                whole = cocycle(hyper, n + m)
                a, b = cocycle(hyper, n), cocycle(hyper, m)
                worst = max(
                    worst,
                    abs(whole.lambda1 - a.lambda1 * b.lambda1) / whole.lambda1,
                    abs(whole.lambda2 - a.lambda2 * b.lambda2) / whole.lambda2,
                )
        assert worst < 1e-13

    def test_volume_constraint(self, hyper):
        # the two multipliers are inverse to each other for this model:
        # the product stays in a fixed interval around 1, here exactly at it
        for n in range(-20, 21):
            v = cocycle(hyper, n)
            assert v.lambda1 * v.lambda2 == pytest.approx(1.0, rel=1e-12)
        assert cocycle(hyper, 3).site is None

    def test_sign_structure_diverges(self, hyper):
        prev_max = 1.0
        for n in range(1, 15):
            v = cocycle(hyper, n)
            assert min(v.lambda1, v.lambda2) < 1.0 < max(v.lambda1, v.lambda2)
            assert max(v.lambda1, v.lambda2) > prev_max
            prev_max = max(v.lambda1, v.lambda2)

    def test_semigroup_of_contracting_times(self, hyper):
        contracting = {n for n in range(1, 21) if cocycle(hyper, n).lambda1 < 0.5}
        for a in contracting:
            for b in contracting:
                if a + b <= 20:
                    assert (a + b) in contracting


class TestLyapunov:
    def test_contracted_negative(self, hyper):
        assert lyapunov_exponent(hyper, 1) == pytest.approx(-np.log(MU), rel=1e-12)
        assert lyapunov_exponent(hyper, 1) < 0

    def test_expanded_positive(self, hyper):
        assert lyapunov_exponent(hyper, 2) == pytest.approx(np.log(MU), rel=1e-12)

    def test_finite_order_rejected(self, finite_order):
        with pytest.raises(NotHyperbolicError):
            lyapunov_exponent(finite_order, 1)

    def test_direction_validated(self, hyper):
        with pytest.raises(PreconditionError):
            lyapunov_exponent(hyper, 3)


class TestBigLambda:
    def test_zero_word(self, hyper):
        assert big_lambda([np.eye(3)], volume=2.0,
                          ray=normal_directions(hyper)[0]) == [0.0]

    def test_power_additivity(self, hyper):
        words = [hyper.matrix.astype(float)]
        words += [np.linalg.matrix_power(hyper.matrix.astype(float), k)
                  for k in (2, 3, -1)]
        lams = big_lambda(words, volume=1.0, ray=normal_directions(hyper)[0])
        assert abs(lams[1] - 2 * lams[0]) < 1e-12
        assert abs(lams[2] - 3 * lams[0]) < 1e-12
        assert abs(lams[3] + lams[0]) < 1e-12

    def test_default_ray_gives_contraction_log(self, hyper):
        out = big_lambda([hyper], volume=2.0)
        assert out[0] == pytest.approx(2.0 * (-np.log(MU)), rel=1e-12)

    def test_unpreserved_ray_rejected(self, hyper, int_mink3):
        rot = np.array([[1.0, 0, 0], [0, 0, -1], [0, 1, 0]])
        with pytest.raises(PreconditionError):
            big_lambda([rot], ray=normal_directions(hyper)[0])

    def test_ray_multiplier_matches_eigenvalue(self, hyper):
        contracted, expanded = normal_directions(hyper)
        assert ray_multiplier(hyper.matrix.astype(float), expanded) == \
            pytest.approx(MU, rel=1e-12)


class TestEntropyDichotomy:
    def test_hyperbolic(self, hyper):
        rep = entropy_dichotomy(hyper)
        assert rep.entropy == pytest.approx(np.log(MU), rel=1e-12)
        assert rep.as_equal is False
        assert rep.p_threshold == 1
        entropy, as_equal = rep
        assert (entropy, as_equal) == (rep.entropy, rep.as_equal)

    def test_finite_order(self, finite_order):
        rep = entropy_dichotomy(finite_order)
        assert rep.entropy == 0.0
        assert rep.as_equal is True
        assert rep.p_threshold is None

    def test_unipotent_split_form(self, unipotent):
        rep = entropy_dichotomy(unipotent)
        assert rep.entropy == pytest.approx(0.0, abs=1e-12)
        assert rep.as_equal is True

    def test_threshold_power_contracts_quickly(self, hyper):
        rep = entropy_dichotomy(hyper)
        p = rep.p_threshold
        for n in range(1, 11):
            v = cocycle(hyper, p * n)
            assert v.lambda1 < 0.5
            assert v.lambda2 > 2.0

    @pytest.mark.parametrize("power, terms", [(2, 4), (3, 2)])
    def test_powers_cut_short_are_refused(self, power, terms):
        # the powers reach the conditioning wall before the trend test has
        # enough terms; two terms used to pass as an equicontinuous sequence
        form = RationalLorentzForm(gram=np.diag([1, 1, -1]))
        aut = TorusAutomorphism(matrix=barning_power(power), form=form)
        assert len(aut.power_sequence()) == terms
        with pytest.raises(InsufficientDataError, match=f"at least 8 terms, got {terms}"):
            entropy_dichotomy(aut)

    def test_eig_runs_once(self, hyper, monkeypatch):
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a) or eig(a))
        entropy_dichotomy(hyper)
        assert len(calls) == 1

    def test_parabolic_sweep_has_zero_entropy(self):
        # eig puts some of these eigenvalues about 1e-5 off the unit circle
        for aut, rep in parabolic_reports():
            assert rep.entropy == 0.0
            assert rep.exponents == (0.0,) * aut.form.dim
            assert rep.p_threshold is None

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "parabolic as_equal: the forward and backward kak limits of a parabolic "
        "element should both be u^perp, but for 96 of the 192 parabolic elements "
        "of each 4-dimensional form they are converged and apart"))
    def test_parabolic_sweep_stable_spaces_agree(self):
        assert all(rep.as_equal for _, rep in parabolic_reports())

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "parabolic as_equal: the forward and backward kak hyperplanes are "
        "converged and 0.071 rad apart"))
    def test_parabolic_forward_backward_limits_agree(self):
        aut = TorusAutomorphism(matrix=PARABOLIC_4,
                                form=RationalLorentzForm(gram=np.diag([1, 1, 1, -1])))
        fwd = as_subspace_kak(aut.power_sequence())
        bwd = as_subspace_kak(aut.power_sequence(inverse=True))
        assert fwd.converged and bwd.converged
        assert fwd.subspace.distance(bwd.subspace) < 1e-4

    def test_dichotomy_equivalence(self, hyper, finite_order, unipotent):
        for aut in (hyper, finite_order, unipotent):
            rep = entropy_dichotomy(aut)
            assert (rep.entropy > 1e-12) == (not rep.as_equal)
