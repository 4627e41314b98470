"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from lorentzdyn import (
    BoundaryPoint,
    CardinalityClass,
    HyperbolicPoint,
    MatrixSequence,
    QuadraticForm,
    RationalLorentzForm,
    Subspace,
    TorusAutomorphism,
    ads_form,
    ads_pair_orbit,
    ads_plane_family,
    ads_second_factor_action,
    as_all_oracles,
    as_subspace_kak,
    big_lambda,
    boost,
    brute_force_as,
    cocycle,
    entropy_dichotomy,
    evaluate,
    fixed_isotropic_directions,
    grassmann_distance,
    hopf_return_cocycle,
    HopfModel,
    hyperbolic_orbit_limit,
    integer_isometries,
    limit_set,
    lorentz_as_check,
    lorentz_kak,
    lyapunov_exponent,
    mobius_rp1,
    normal_directions,
    north_south_certificate,
    plus_minus_identity_check,
    rp1_distance,
    spas_subspace,
    spatial_rotation,
    split_boost,
    split_form_3d,
    split_unipotent,
)
from lorentzdyn.cartan import random_lorentz
from lorentzdyn.cli import main
from lorentzdyn.models import INFINITY, diagonal_action, second_factor_action_matrix
from lorentzdyn.projective import ray_angle, sphere_points

from .conftest import (
    INTEGER_MINK3,
    INTEGER_SPLIT3,
    chaos_sequence,
    fundamental_sequence,
    fundamental_term,
    hyperbolic_322,
    hyperboloid_point,
    integer_unipotent,
    random_divergent_sequence,
)

E12 = Subspace.spanned_by([1, 0, 0], [0, 1, 0])
E1 = Subspace.spanned_by([1, 0, 0])
MU = 3.0 + 2.0 * np.sqrt(2.0)


def report(n, text):
    print(f"\n[acceptance] criterion {n:02d}: PASS - {text}")


def test_criterion_01_fundamental_example():
    started = time.perf_counter()
    seq = fundamental_sequence(40)
    results = as_all_oracles(seq)
    subs = [r.subspace for r in results.values()]
    for name, r in results.items():
        assert r.converged
        assert r.subspace.distance(E12) < 1e-5, name
    for i in range(3):
        for j in range(i + 1, 3):
            assert subs[i].distance(subs[j]) < 1e-5
    strongly = spas_subspace(seq)
    assert strongly.subspace.distance(E1) < 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"three stable-subspace detectors and the strongly stable line "
              f"agree with the worked unipotent example in {elapsed:.2f}s")


def test_criterion_02_planar_jordan_case():
    seq = MatrixSequence.from_terms(
        [np.array([[1.0, n], [0.0, 1.0]]) for n in range(1, 41)])
    res = as_subspace_kak(seq)
    err = res.subspace.distance(Subspace.spanned_by([1, 0]))
    assert err < 1e-6
    report(2, f"planar shear sequence reduces to the first axis "
              f"(angular error {err:.1e})")


def test_criterion_03_chaos_example():
    split3 = split_form_3d()
    seq = chaos_sequence(40)
    rep = lorentz_as_check(split3, seq)
    assert rep.passed, rep.failures
    assert rep.stable.subspace.distance(E12) < 1e-5
    assert rep.strongly_stable.subspace.contains([1, 0, 0], tol=1e-5)
    # the strongly stable direction nevertheless has divergent images
    # |A_n e1| = n; with the stated growth n it crosses 1e3 at n = 1001
    # (at n = 40 the value is 40, so the threshold is checked where the
    # same formula reaches it)
    norms = [np.linalg.norm(t @ np.array([1.0, 0, 0])) for t in seq.terms]
    assert norms == pytest.approx(list(range(1, 41)))
    far = split_boost(1001.0) @ split_unipotent(1001.0)
    assert np.linalg.norm(far @ np.array([1.0, 0, 0])) > 1e3
    report(3, "chaos product sequence: stable plane and strongly stable "
              "line verified while |A_n e1| = n diverges past 1e3")


def test_criterion_04_lorentz_hyperplane_property():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    passed = 0
    for trial in range(100):
        d = 3 if trial < 50 else 4
        seq, _, _ = random_divergent_sequence(d, rng)
        rep = lorentz_as_check(QuadraticForm.minkowski(d), seq)
        assert rep.passed, (trial, rep.failures)
        assert rep.stable.subspace.dim == d - 1
        assert rep.kernel_dim == 1
        assert rep.modulus > 0
        passed += 1
    assert passed == 100
    # brute-force spot agreement on 10 seeded trials
    rng = np.random.default_rng(77)
    for trial in range(10):
        seq, _, _ = random_divergent_sequence(3, rng)
        rep = lorentz_as_check(QuadraticForm.minkowski(3), seq)
        bf = brute_force_as(seq, directions=96, radii=(0.3, 0.1))
        hyper = rep.stable.subspace
        for k in range(96):
            score = bf.scores[k, -1]
            ang = hyper.angle_to_vector(bf.directions[k])
            assert not (score < 5.0 and ang > 0.30)
            assert not (score > 50.0 and ang < 0.05)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, f"100/100 random divergent isometry sequences in SO(1,2) and "
              f"SO(1,3) give lightlike stable hyperplanes; brute force "
              f"spot-agrees on 10 trials in {elapsed:.1f}s total")


def test_criterion_05_kak_pattern():
    rng = np.random.default_rng(5)
    count = 0
    for d in (3, 4, 5):
        form = QuadraticForm.minkowski(d)
        for _ in range(334):
            a = random_lorentz(d, rng)
            fact, lam = lorentz_kak(form, a)
            assert np.linalg.norm(fact.reconstruct() - a) <= \
                1e-10 * max(1.0, np.linalg.norm(a))
            assert abs(fact.D[0] * fact.D[-1] - 1.0) <= 1e-8
            assert np.max(np.abs(fact.D[1:-1] - 1.0)) <= 1e-8
            below = int(np.sum(fact.D < 1.0 - 1e-8))
            above = int(np.sum(fact.D > 1.0 + 1e-8))
            assert (below, above) in {(0, 0), (1, 1)}
            count += 1
    assert count >= 1000
    report(5, f"{count} random Lorentz group elements reconstruct to 1e-10 "
              f"with the diag(lambda, 1, ..., 1, 1/lambda) pattern at 1e-8")


def test_criterion_06_north_south_certificate():
    form = QuadraticForm.minkowski(3)
    seq = MatrixSequence.from_terms([boost(3, 0.5 * n) for n in range(1, 25)])
    u_angle = v_angle = np.deg2rad(5.0)
    n_star = north_south_certificate(form, seq, u_angle, v_angle, grid=2000)
    assert 0 <= n_star < len(seq)
    # independent verification of the certificate on the same grid
    src = as_subspace_kak(seq).subspace
    dst = as_subspace_kak(seq.inverse()).subspace
    pts = sphere_points(3, 2000)
    outside = [p for p in pts if src.angle_to_vector(p) > u_angle]
    assert outside
    for i in range(n_star, len(seq)):
        imgs = np.array(outside) @ seq.terms[i].T
        imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
        angles = np.arccos(np.minimum(1.0, np.linalg.norm(imgs @ dst.basis, axis=1)))
        assert np.all(angles <= v_angle)
    report(6, f"north-south certificate N = {n_star} verified on a "
              f"2000-point projective grid at 5 degrees")


def test_criterion_07_limit_set_cardinalities():
    mink3 = QuadraticForm.minkowski(3)
    split3 = split_form_3d()
    s_mink = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
    s_split = HyperbolicPoint(v=np.array([1.0, 0.0, -1.0]), form=split3)
    rot = spatial_rotation(3, np.array([[0.0, -1.0], [1.0, 0.0]]))
    schottky = [boost(3, 1.2), rot @ boost(3, 1.2) @ np.linalg.inv(rot)]
    for seed in (0, 1, 2):
        est = limit_set(mink3, [boost(3, 1.2)], depth=8, samples=2000,
                        s=s_mink, seed=seed)
        assert est.cardinality_class is CardinalityClass.TWO, seed
        est = limit_set(split3, [split_unipotent(5.0)], depth=8, samples=2000,
                        s=s_split, seed=seed)
        assert est.cardinality_class is CardinalityClass.ONE, seed
        est = limit_set(mink3, schottky, depth=8, samples=2000,
                        s=s_mink, seed=seed)
        assert est.cardinality_class is CardinalityClass.LARGE, seed
    report(7, "limit-set cardinalities two/one/large for hyperbolic cyclic, "
              "unipotent cyclic and Schottky generators, stable over 3 seeds")


def test_criterion_08_section_independence():
    mink3 = QuadraticForm.minkowski(3)
    seq = MatrixSequence.from_terms([boost(3, 0.5 * n) for n in range(1, 29)])
    rng = np.random.default_rng(7)
    limits = [hyperbolic_orbit_limit(mink3, seq, hyperboloid_point(mink3, rng))
              for _ in range(10)]
    worst = max(limits[0].angle_to(other) for other in limits[1:])
    assert worst < 1e-5
    report(8, f"orbit boundary limit agrees across 10 random sections "
              f"(max angle {worst:.1e})")


def test_criterion_09_hopf_cocycle():
    model = HopfModel(alpha=0.5, lam=2.0)
    maxima = []
    for b in (1.0, 0.1, 0.01):
        reps = [hopf_return_cocycle(model, (1.0, b), n)[1] for n in range(31)]
        maxima.append(max(np.linalg.norm(r, 2) for r in reps))
    assert maxima[0] < maxima[1] < maxima[2]
    diverging = [np.linalg.norm(hopf_return_cocycle(model, (1.0, 0.0), n)[1], 2)
                 for n in range(31)]
    assert diverging == sorted(diverging)
    assert diverging[-1] >= 2.0 ** 30
    report(9, f"Hopf representative norms bounded with maxima "
              f"{maxima[0]:.0f} < {maxima[1]:.0f} < {maxima[2]:.0f} as b shrinks; "
              f"divergent on the fixed axis")


def test_criterion_10_integer_isometries():
    g = RationalLorentzForm(gram=INTEGER_MINK3)
    elems = integer_isometries(g, 3)
    keys = {a.tobytes() for a in elems}
    for a in elems:
        inv = np.rint(np.linalg.inv(a.astype(float))).astype(np.int64)
        assert np.max(np.abs(inv)) <= 3 and inv.tobytes() in keys
        for b in elems:
            prod = a @ b
            if np.max(np.abs(prod)) <= 3:
                assert prod.tobytes() in keys
    cone = [v for v in
            (np.array([i, j, k]) for i in range(-3, 4) for j in range(-3, 4)
             for k in range(-3, 4))
            if np.any(v != 0) and v @ g.gram @ v == 0]
    for a in elems:
        for v in cone:
            w = a @ v
            assert w @ g.gram @ w == 0
    hyper = [a for a in elems
             if np.max(np.abs(np.linalg.eigvals(a.astype(float)))) > 1.0001]
    assert hyper
    report(10, f"height-3 enumeration of {len(elems)} integer isometries is "
               f"closed under inverse and in-range products, preserves the "
               f"integer cone, and contains {len(hyper)} hyperbolic elements")


def test_criterion_11_plus_minus_identity():
    g = RationalLorentzForm(gram=INTEGER_MINK3)
    form = g.to_quadratic_form()
    elems = integer_isometries(g, 3)
    cone_rays = [BoundaryPoint.from_vector(form, v)
                 for v in ([1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1])]
    checked = 0
    for a in elems:
        af = a.astype(float)
        fixed = [r for r in cone_rays if ray_angle(af @ r.ray, r.ray) < 1e-9]
        if len(fixed) < 3:
            continue
        for i in range(len(fixed)):
            for j in range(i + 1, len(fixed)):
                for k in range(j + 1, len(fixed)):
                    assert plus_minus_identity_check(
                        g, af, [fixed[i], fixed[j], fixed[k]])
                    checked += 1
    assert checked >= 8  # +-identity each fix all four rays: 2 * C(4,3)
    report(11, f"every enumerated element fixing three isotropic rays acts "
               f"as +-identity on their span ({checked} triples checked)")


def test_criterion_12_ads_suite():
    rng = np.random.default_rng(123)
    gram = ads_form().gram

    def rand_sl2():
        m = rng.normal(size=(2, 2))
        m /= np.sqrt(abs(np.linalg.det(m)))
        if np.linalg.det(m) < 0:
            m = m @ np.diag([1.0, -1.0])
        return m

    # total isotropy and diagonal invariance
    for alpha in (0.0, 1.0, -3.7, 0.2, INFINITY):
        p = ads_plane_family(alpha)
        scale = max(1.0, np.max(np.abs(p.basis)) ** 2)
        assert np.max(np.abs(p.basis.T @ gram @ p.basis)) < 1e-10 * scale
    for _ in range(50):
        m = diagonal_action(rand_sl2())
        alpha = float(rng.normal() * 2)
        p = ads_plane_family(alpha)
        assert grassmann_distance(np.linalg.qr(m @ p.basis)[0],
                                  np.linalg.qr(p.basis)[0]) < 1e-8
    # the pair-orbit invariant is constant on random group translates
    representative_pairs = [
        (ads_plane_family(0.4), ads_plane_family(0.4), 2),
        (ads_plane_family(0.0), ads_plane_family(1.0), 0),
        (ads_plane_family(0.5), None, 1),
    ]
    from lorentzdyn.models import IsotropicPlane2
    other_circle = IsotropicPlane2(
        basis=np.array([[1.0, 0], [0, 0], [0, 1], [0, 0]]))
    for idx, (p1, p2, expected) in enumerate(representative_pairs):
        if p2 is None:
            p2 = other_circle
        assert ads_pair_orbit(p1, p2) == expected
        for _ in range(100):
            g_elt = diagonal_action(rand_sl2()) @ second_factor_action_matrix(rand_sl2())
            t1 = IsotropicPlane2(basis=g_elt @ p1.basis)
            t2 = IsotropicPlane2(basis=g_elt @ p2.basis)
            assert ads_pair_orbit(t1, t2) == expected, idx
    # circle action matches the Mobius action and composes contravariantly
    j = np.diag([1.0, -1.0])
    for _ in range(50):
        h = rand_sl2()
        alpha = float(rng.normal() * 2)
        geo = ads_second_factor_action(h, alpha)
        assert rp1_distance(geo, mobius_rp1(j @ h @ j, alpha)) < 1e-8
    for _ in range(20):
        h1, h2 = rand_sl2(), rand_sl2()
        alpha = float(rng.normal())
        chained = ads_second_factor_action(h2, ads_second_factor_action(h1, alpha))
        assert rp1_distance(chained, ads_second_factor_action(h2 @ h1, alpha)) < 1e-8
    report(12, "anti-de Sitter suite: isotropic family planes, diagonal "
               "invariance, 3 pair orbits stable on 100 translates each, "
               "Mobius circle action with the composition law")


def test_criterion_13_cocycles_and_entropy():
    g = RationalLorentzForm(gram=INTEGER_MINK3)
    hyper = TorusAutomorphism(matrix=hyperbolic_322(), form=g)
    # cocycle identity at machine accuracy over n, m in [-20, 20]
    for n in range(-20, 21):
        for m in range(-20, 21):
            whole = cocycle(hyper, n + m)
            a, b = cocycle(hyper, n), cocycle(hyper, m)
            assert abs(whole.lambda1 - a.lambda1 * b.lambda1) <= 1e-13 * whole.lambda1
            assert abs(whole.lambda2 - a.lambda2 * b.lambda2) <= 1e-13 * whole.lambda2
    assert lyapunov_exponent(hyper, 1) == pytest.approx(-np.log(MU), abs=1e-9)
    assert lyapunov_exponent(hyper, 2) == pytest.approx(np.log(MU), abs=1e-9)
    ray = normal_directions(hyper)[0]
    powers = [np.linalg.matrix_power(hyperbolic_322().astype(float), k)
              for k in (1, 2, 3, 5, -1)]
    lam = big_lambda(powers, volume=1.0, ray=ray)
    assert abs(lam[1] - 2 * lam[0]) <= 1e-12
    assert abs(lam[2] - 3 * lam[0]) <= 1e-12
    assert abs(lam[3] - 5 * lam[0]) <= 1e-9
    assert abs(lam[4] + lam[0]) <= 1e-12
    rep = entropy_dichotomy(hyper)
    assert rep.entropy == pytest.approx(np.log(MU), rel=1e-12)
    assert rep.as_equal is False
    swap = TorusAutomorphism(
        matrix=np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=np.int64), form=g)
    rep2 = entropy_dichotomy(swap)
    assert (rep2.entropy, rep2.as_equal) == (0.0, True)
    uni = TorusAutomorphism(matrix=integer_unipotent(),
                            form=RationalLorentzForm(gram=INTEGER_SPLIT3))
    rep3 = entropy_dichotomy(uni)
    assert rep3.entropy == pytest.approx(0.0, abs=1e-12)
    assert rep3.as_equal is True
    report(13, "cocycle identity machine-exact, Lyapunov exponents +-log mu "
               "to 1e-9, volume-weighted log additive on powers, entropy "
               "dichotomy on hyperbolic/finite-order/unipotent elements")


def test_criterion_14_cli_determinism(tmp_path):
    files = {}
    files["mink3"] = str(tmp_path / "mink3.json")
    Path(files["mink3"]).write_text(json.dumps(np.diag([-1.0, 1, 1]).tolist()))
    files["gram"] = str(tmp_path / "gram.json")
    Path(files["gram"]).write_text(json.dumps(INTEGER_MINK3.tolist()))
    files["fund"] = str(tmp_path / "fund.json")
    Path(files["fund"]).write_text(json.dumps(fundamental_term(3).tolist()))
    files["boost"] = str(tmp_path / "boost.json")
    Path(files["boost"]).write_text(json.dumps(boost(3, 0.8).tolist()))
    files["hyper"] = str(tmp_path / "hyper.json")
    Path(files["hyper"]).write_text(json.dumps(hyperbolic_322().tolist()))
    files["gens"] = str(tmp_path / "gens.json")
    Path(files["gens"]).write_text(json.dumps([boost(3, 1.2).tolist()]))
    from lorentzdyn import jsonio
    files["seq"] = str(tmp_path / "seq.json")
    Path(files["seq"]).write_text(
        jsonio.dumps(jsonio.sequence_to_dict(fundamental_sequence(40))))

    invocations = [
        ["kak", files["fund"]],
        ["kak", files["boost"], "--form", files["mink3"]],
        ["as", files["seq"], "--oracle", "all"],
        ["as", files["seq"], "--oracle", "brute", "--directions", "16", "--seed", "2"],
        ["limit-set", files["gens"], "--form", files["mink3"],
         "--point", "1,0,0", "--seed", "3"],
        ["model", "torus-isoms", "--gram", files["gram"], "--height", "2"],
        ["model", "torus-fixed", "--gram", files["gram"], "--height", "2"],
        ["model", "hopf", "--alpha", "0.5", "--lambda", "2",
         "--point", "1,0.1", "--n", "30"],
        ["model", "ads-orbit", "--alpha1", "0", "--alpha2", "1"],
        ["model", "ads-circle", "--h", "0,-1;1,0", "--alpha", "0"],
        ["entropy", files["hyper"], "--gram", files["gram"]],
    ]
    for idx, args in enumerate(invocations):
        out1 = str(tmp_path / f"run_{idx}_a.out")
        out2 = str(tmp_path / f"run_{idx}_b.out")
        assert main(args + ["--output", out1]) == 0, args
        assert main(args + ["--output", out2]) == 0, args
        first = Path(out1).read_bytes()
        second = Path(out2).read_bytes()
        assert first == second, args
        assert first.endswith(b"\n")
    report(14, f"{len(invocations)} CLI invocations, each byte-identical "
               f"across seeded reruns")
