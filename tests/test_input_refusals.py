"""Refusals of bad input, and edge values, that no other test reaches.

Each refusal below is a documented precondition: bad input raises the
package's own error (a PreconditionError, exit code 2 on the command line)
or, for an internal invariant, a NumericalError.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from lorentzdyn import (ASResult, BoundaryPoint, HyperbolicPoint, MatrixSequence,
                        QuadraticForm, RationalLorentzForm, StabilityKind, Subspace,
                        act_boundary, big_lambda, boost, evaluate, hyperbolic_orbit_limit,
                        is_isometry, limit_set, lorentz_as_check, lorentz_kak, mobius_rp1,
                        north_south_certificate, orthogonal_complement, split_boost)
from lorentzdyn.cartan import random_lorentz
from lorentzdyn.cli import main
from lorentzdyn.cocycles import ray_multiplier
from lorentzdyn.errors import (ConvergenceError, DegenerateFormError, DimensionError,
                               NumericalError, PatternMismatchError, PreconditionError)
from lorentzdyn.minkowski import degenerate_kernel
from lorentzdyn.models import IsotropicPlane2, plus_minus_identity_check, rational_ray_diagnostic

from .scenarios import INTEGER_MINK3, alternating_boost_sequence, boost_sequence


def _write(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestRationalLorentzForm:
    def test_non_square_gram(self):
        with pytest.raises(DimensionError, match="Gram matrix must be square"):
            RationalLorentzForm(gram=np.ones((2, 3), dtype=int))

    def test_non_symmetric_gram(self):
        with pytest.raises(DegenerateFormError, match="not symmetric"):
            RationalLorentzForm(gram=np.array([[-1, 1, 0], [0, 1, 0], [0, 0, 1]]))

    @pytest.mark.parametrize("gram", [np.eye(3, dtype=int), np.diag([-1, -1, 1])],
                             ids=["definite", "signature-2-1"])
    def test_non_lorentz_gram(self, gram):
        with pytest.raises(DegenerateFormError, match="Lorentz signature"):
            RationalLorentzForm(gram=gram)


class TestIsotropicPlane2:
    def test_wrong_shape(self):
        with pytest.raises(DimensionError, match="4 x 2"):
            IsotropicPlane2(basis=np.eye(3)[:, :2])

    def test_rank_one(self):
        with pytest.raises(DimensionError, match="rank 2"):
            IsotropicPlane2(basis=np.array([[1.0, 2.0], [0, 0], [0, 0], [0, 0]]))

    def test_not_isotropic(self):
        # <e1, e4> = 1 for the split form
        with pytest.raises(PreconditionError, match="not totally isotropic"):
            IsotropicPlane2(basis=np.eye(4)[:, [0, 3]])


class TestGeometricPoints:
    def test_hyperbolic_point_off_the_hyperboloid(self, mink3):
        with pytest.raises(PreconditionError, match="not on the unit-timelike hyperboloid"):
            HyperbolicPoint(v=np.array([2.0, 0.0, 0.0]), form=mink3)

    def test_boundary_point_with_non_unit_ray(self):
        with pytest.raises(PreconditionError, match="unit vector"):
            BoundaryPoint(ray=np.array([1.0, 1.0, 0.0]))


class TestSubspaces:
    def test_non_orthonormal_columns(self):
        with pytest.raises(DimensionError, match="not orthonormal"):
            Subspace(basis=np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))

    def test_basis_must_be_a_matrix(self):
        with pytest.raises(DimensionError, match="d x k"):
            Subspace(basis=np.array([1.0, 0.0, 0.0]))

    def test_complement_across_dimensions(self, mink3):
        with pytest.raises(DimensionError, match="form's space"):
            orthogonal_complement(mink3, Subspace.spanned_by([1.0, 0.0, 0.0, 0.0]))

    def test_complement_of_the_zero_subspace(self, mink3):
        assert orthogonal_complement(mink3, Subspace.zero(3)) == Subspace.full(3)

    def test_kernel_of_the_zero_subspace(self, mink3):
        assert degenerate_kernel(mink3, Subspace.zero(3)).dim == 0

    def test_one_spanning_vector(self):
        assert Subspace.from_spanning([0.0, 2.0, 0.0]) == Subspace.spanned_by([0, 1, 0])

    def test_zero_vector_and_zero_subspace(self):
        line = Subspace.spanned_by([1, 0, 0])
        assert line.contains([0.0, 0.0, 0.0])
        assert line.angle_to_vector([0.0, 0.0, 0.0]) == 0.0
        assert Subspace.zero(3).angle_to_vector([0.0, 1.0, 0.0]) == np.pi / 2

    def test_equality_with_another_type(self):
        assert (Subspace.full(3) == "R^3") is False


def test_matrix_and_vector_shapes(mink3):
    with pytest.raises(DimensionError, match="expected a matrix"):
        is_isometry(mink3, np.ones(3))
    with pytest.raises(DimensionError, match="dimension 3, got 2"):
        evaluate(mink3, [1.0, 0.0], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("call, match", [
    (lambda f, p, b: hyperbolic_orbit_limit(f, boost_sequence(), p), "dimension 3, got 4"),
    (lambda f, p, b: limit_set(f, [boost(3, 1.2)], p), "dimension 3, got 4"),
    (lambda f, p, b: act_boundary(f, boost(3, 1.2), b), "dimension 3, got 4"),
    (lambda f, p, b: MatrixSequence.from_powers([[1.0, 2.0, 3.0]], 3), "square matrix"),
], ids=["orbit-limit", "limit-set", "act-boundary", "from-powers"])
def test_mismatched_shapes_are_refused_at_entry(mink3, call, match):
    # numpy's own matmul error would otherwise escape the package's errors
    point = HyperbolicPoint(v=[1.0, 0.0, 0.0, 0.0], form=QuadraticForm.minkowski(4))
    ray = BoundaryPoint(ray=np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0))
    with pytest.raises(DimensionError, match=match):
        call(mink3, point, ray)


@pytest.mark.parametrize("call, match", [
    (lambda: MatrixSequence.from_powers(np.eye(2), 0), "count of at least 1, got 0"),
    (lambda: MatrixSequence.from_powers(np.eye(2), -1), "count of at least 1, got -1"),
    (lambda: rational_ray_diagnostic(np.zeros(3)), "the zero vector has no direction"),
], ids=["from-powers-0", "from-powers-negative", "rational-zero-ray"])
def test_empty_input_is_refused_by_name(call, match):
    with pytest.raises(PreconditionError, match=match):
        call()


@pytest.mark.parametrize("word", [np.zeros((3, 3)), np.diag([0.0, 0.0, 1.0])],
                         ids=["zero", "diag-0-0-1"])
def test_a_word_that_kills_the_ray_is_refused(word):
    # refused before the angle is formed: a NaN angle used to pass the
    # preservation test, and the multiplier came back as 0 (log: -inf)
    ray = BoundaryPoint(ray=np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    for call in (lambda: ray_multiplier(word, ray), lambda: big_lambda([word], 1.0, ray)):
        with pytest.raises(PreconditionError, match="maps the chosen ray to zero"):
            call()


def test_plus_minus_identity_check_needs_three_rays():
    g = RationalLorentzForm(gram=INTEGER_MINK3)
    rays = [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]
    with pytest.raises(PreconditionError, match="exactly three rays"):
        plus_minus_identity_check(g, np.eye(3), rays)


def test_mobius_pole():
    assert mobius_rp1([[1.0, 0.0], [1.0, -1.0]], 1.0) == float("inf")


def test_random_lorentz_in_dimension_2():
    a = random_lorentz(2, np.random.default_rng(0))
    assert is_isometry(QuadraticForm.minkowski(2), a)


def test_north_south_needs_converged_stable_spaces(mink3):
    with pytest.raises(ConvergenceError, match="did not converge"):
        north_south_certificate(mink3, alternating_boost_sequence(), 0.1, 0.1)


class TestNorthSouthRefusals:
    """B(0.5 n), n <= 24, is certified from term 4 at 5 degrees / 5 degrees;
    bad angles, grids and dimensions are refused, not answered."""

    ANGLE = np.deg2rad(5.0)

    def test_good_input_is_certified(self, mink3):
        assert north_south_certificate(mink3, boost_sequence(), self.ANGLE, self.ANGLE) == 4

    @pytest.mark.parametrize("bad, match", [
        (dict(grid=0), "at least one point"),
        (dict(grid=-5), "at least one point"),
        (dict(u_angle=np.pi), "outside the U-cone"),
        (dict(u_angle=np.nan), "finite and non-negative"),
        (dict(v_angle=np.nan), "finite and non-negative"),
        (dict(v_angle=-1.0), "finite and non-negative"),
        (dict(u_angle=np.inf), "finite and non-negative"),
    ], ids=["grid-0", "grid-negative", "u-pi", "u-nan", "v-nan", "v-negative", "u-inf"])
    def test_bad_input_is_refused(self, mink3, bad, match):
        args = dict(u_angle=self.ANGLE, v_angle=self.ANGLE) | bad
        with pytest.raises(PreconditionError, match=match):
            north_south_certificate(mink3, boost_sequence(), **args)

    def test_form_and_sequence_dimensions_must_agree(self):
        with pytest.raises(DimensionError, match="dimension 4, the sequence 3"):
            north_south_certificate(QuadraticForm.minkowski(4), boost_sequence(), self.ANGLE,
                                    self.ANGLE)


def test_limit_set_needs_a_generator(mink3):
    # refused before any word is drawn, so no division by 2g = 0 warns
    s = HyperbolicPoint.from_timelike(mink3, [1.0, 0.0, 0.0])
    with pytest.raises(PreconditionError, match="at least one generator"):
        limit_set(mink3, [], s=s)


def test_lorentz_report_is_truthy_when_passed(mink3):
    assert bool(lorentz_as_check(mink3, boost_sequence(3, 0.5, 20))) is True
    assert bool(lorentz_as_check(mink3, alternating_boost_sequence())) is False


def test_split_boost_of_zero():
    with pytest.raises(PreconditionError, match="nonzero"):
        split_boost(0)


def test_big_lambda_without_hyperbolic_word_or_ray():
    with pytest.raises(PreconditionError, match="no invariant ray"):
        big_lambda([np.eye(3)])


def test_converged_result_needs_a_positive_modulus():
    with pytest.raises(NumericalError, match="positive modulus"):
        ASResult(subspace=Subspace.zero(3), kind=StabilityKind.STABLE, modulus=0.0)
    assert ASResult(subspace=Subspace.zero(3), kind=StabilityKind.STABLE, modulus=0.0,
                    converged=False).modulus == 0.0


class TestCommandLine:
    def test_torus_isoms_height_zero(self, tmp_path, capsys):
        gram = _write(tmp_path, "g.json", INTEGER_MINK3.tolist())
        assert main(["model", "torus-isoms", "--gram", gram, "--height", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: height must be >= 1\n" and captured.out == ""

    def test_ads_circle_with_a_3x3_matrix(self, capsys):
        argv = ["model", "ads-circle", "--h", "1,0,0;0,1,0;0,0,1", "--alpha", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: expected a 2 x 2 matrix\n" and captured.out == ""

    def test_limit_set_with_a_spacelike_point(self, tmp_path, capsys):
        form = _write(tmp_path, "g.json", np.diag([-1.0, 1, 1]).tolist())
        gens = _write(tmp_path, "gens.json", [np.eye(3).tolist()])
        assert main(["limit-set", gens, "--form", form, "--point", "0,1,0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: vector is not timelike\n" and captured.out == ""

    @pytest.mark.parametrize("point", [repr(2.0 ** 600), repr(2.0 ** -600)],
                             ids=["2**600", "2**-600"])
    def test_limit_set_point_of_any_scale(self, tmp_path, capsys, point):
        # <v, v> of these points overflows or underflows, but the point is
        # scaled by a power of two first, exactly: the report of (1, 0, 0)
        golden = Path(__file__).parent / "golden"
        argv = ["limit-set", str(golden / "boosts4.gens.json"), "--form",
                str(golden / "mink4.json")]
        reports = []
        for p in ("1,0,0,0", f"{point},0,0,0"):
            assert main(argv + ["--point", p]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            reports.append(captured.out)
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("loader, argv", [
        ("sequence", ["as", "{bad}"]),
        ("matrix", ["kak", "{bad}"]),
        ("form", ["as", "{seq}", "--form", "{bad}"]),
        ("matrices", ["limit-set", "{bad}", "--form", "{gram}"]),
        ("matrices", ["model", "torus-fixed", "--gram", "{gram}", "--elements", "{bad}"]),
    ], ids=["as", "kak", "form", "limit-set", "torus-fixed-elements"])
    def test_integer_past_the_float_range(self, tmp_path, capsys, loader, argv):
        # JSON reads 10**400 as an exact int, which has no float
        huge = np.diag([1, 1, 1]).tolist()
        huge[0][0] = 10 ** 400
        content = {"sequence": {"d": 3, "terms": [huge]}, "matrix": huge, "form": huge,
                   "matrices": [huge]}[loader]
        paths = {"bad": _write(tmp_path, "bad.json", content),
                 "seq": _write(tmp_path, "seq.json", {"d": 3, "terms": [np.eye(3).tolist()]}),
                 "gram": _write(tmp_path, "g.json", INTEGER_MINK3.tolist())}
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {paths['bad']}: expected numeric arrays "
                                "(int too large to convert to float)\n")

    def test_torus_fixed_on_plus_minus_identity(self, tmp_path, capsys):
        gram = _write(tmp_path, "g.json", INTEGER_MINK3.tolist())
        elems = _write(tmp_path, "e.json", [np.eye(3, dtype=int).tolist(),
                                           (-np.eye(3, dtype=int)).tolist()])
        assert main(["model", "torus-fixed", "--gram", gram, "--elements", elems]) == 0
        assert capsys.readouterr().out == '{"fixed": "entire-cone"}\n'


def _doubled_boost():
    """2 B(15.8): |A^T g A - g|_F is 5.19, under the isometry gate's roundoff
    allowance of 9.03 for a matrix of this norm."""
    return 2 * boost(3, 15.8)


def test_a_doubled_boost_is_refused_by_its_singular_values(mink3, tmp_path, capsys):
    # the gate lets it through, so the D-pattern check is what refuses it
    a = _doubled_boost()
    with pytest.raises(PatternMismatchError, match="form/basis mismatch"):
        lorentz_kak(mink3, a)
    argv = ["kak", _write(tmp_path, "a.json", a.tolist()),
            "--form", _write(tmp_path, "g.json", np.diag([-1.0, 1, 1]).tolist())]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: singular values do not match "
                            "diag(lambda, 1, ..., 1, 1/lambda): form/basis mismatch\n")
    assert captured.out == ""


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "isometry gate blind spot: past |A| of about 6e6 the roundoff allowance "
    "64 d eps |A|^2 |g| outgrows the defect of a matrix that does not preserve "
    "the form (CHANGES.md, FOUND on minkowski.require_isometry)"))
def test_the_isometry_gate_refuses_a_doubled_boost(mink3):
    assert not is_isometry(mink3, _doubled_boost())


def test_quadratic_form_needs_a_square_gram():
    with pytest.raises(DimensionError, match="square"):
        QuadraticForm.from_gram(np.ones((2, 3)))
