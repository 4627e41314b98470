"""The four benchmark workloads.

Each workload builds, from the seed, a fixed pool of items.  An item is one
call into the package, timed from raw term arrays or files, plus a check of
its output against an analytic reference from `inputs`.  The timed loop
runs the pool round after round.

Package functions are looked up through their module at call time, never
bound here, so the traced run sees every call.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs as gen

# Reference tolerances, in sine of the largest principal angle.  They are
# the package's own acceptance tolerances for the same examples.
TOL_FUNDAMENTAL = 1e-5      # criterion 1
TOL_SHEAR = 1e-6            # criterion 2
TOL_LORENTZ = 1e-5          # AGREEMENT_TOL of the Lorentz check
TOL_ORBIT = 1e-5            # criterion 8 agreement across sections
# Limit-set points are cluster centroids, resolved to the clustering angle.
TOL_LIMIT_POINT = np.sin(np.deg2rad(5.0))


class Miss(Exception):
    """The item's output does not match its reference."""


@dataclass(frozen=True)
class Item:
    """`run()` is timed; `check(output)` returns the answer error (sine
    distance to the reference, or None when the answer is not a subspace)
    and raises Miss when the reference is missed."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], float | None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (package, seed, workdir) -> list[Item]


def _require(cond: bool, what: str):
    if not cond:
        raise Miss(what)


def _within(err: float, tol: float, what: str) -> float:
    _require(err < tol, f"{what}: error {err:.3e} >= {tol:.0e}")
    return err


# ---------------------------------------------------------------------------
# tail-long: MatrixSequence.from_terms -> as_all_oracles -> spas_subspace


def _tail_item(ld, kind, terms, stable_ref, spas_ref, tol) -> Item:
    def run():
        seq = ld.stability.MatrixSequence.from_terms(terms)
        return ld.stability.as_all_oracles(seq), ld.stability.spas_subspace(seq)

    def check(out):
        oracles, spas = out
        errs = []
        for name, res in oracles.items():
            _require(res.converged, f"{name} did not converge")
            errs.append(_within(gen.sine_distance(res.subspace.basis, stable_ref), tol, name))
        errs.append(_within(gen.sine_distance(spas.subspace.basis, spas_ref), tol, "spas"))
        return max(errs)

    return Item(kind, run, check)


def build_tail_long(ld, seed: int, workdir: str) -> list[Item]:
    """200-term rotation conjugates of the fundamental example (twice) and of
    the planar shear (once)."""
    rng = np.random.default_rng(seed)
    items = []
    for kind in ("fundamental200", "shear200", "fundamental200"):
        if kind == "fundamental200":
            c = gen.rotation(3, rng)
            terms = gen.conjugated(gen.fundamental_term, 200, c)
            items.append(_tail_item(ld, kind, terms, c[:, :2], c[:, :1], TOL_FUNDAMENTAL))
        else:
            c = gen.rotation(2, rng)
            terms = gen.conjugated(gen.shear_term, 200, c)
            items.append(_tail_item(ld, kind, terms, c[:, :1], c[:, :1], TOL_SHEAR))
    return items


# ---------------------------------------------------------------------------
# lorentz-short: in-process `lorentzdyn as SEQ --form G --output OUT`


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cli_item(ld, kind, case: gen.LorentzCase, workdir: str, idx: int) -> Item:
    seq_path = os.path.join(workdir, f"seq{idx}.json")
    form_path = os.path.join(workdir, f"form{idx}.json")
    out_path = os.path.join(workdir, f"report{idx}.json")
    d = case.terms.shape[1]
    _write(seq_path, json.dumps({"d": d, "terms": case.terms.tolist()}))
    _write(form_path, json.dumps(case.gram.tolist()))
    hyperplane = gen.g_orthogonal(case.gram, case.ray)
    argv = ["as", seq_path, "--form", form_path, "--output", out_path]

    def run():
        return ld.cli.main(argv)

    def check(code):
        _require(code == 0, f"exit code {code}")
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        lc = report["lorentz_check"]
        _require(lc["passed"], f"lorentz check failed: {lc['failures']}")
        basis = lambda r: np.array(r["subspace"]["basis"], dtype=float).reshape(d, -1)
        return max(
            _within(gen.sine_distance(basis(lc["stable"]), hyperplane), TOL_LORENTZ,
                    "stable hyperplane"),
            _within(gen.sine_distance(basis(report["strongly_stable"]), case.ray[:, None]),
                    TOL_LORENTZ, "strongly stable line"),
        )

    return Item(kind, run, check)


def build_lorentz_short(ld, seed: int, workdir: str) -> list[Item]:
    """Four random divergent SO(1, d-1) sequences for each d = 3..6 (9-20
    terms) and the 40-term chaos sequence in the split form."""
    rng = np.random.default_rng(seed)
    cases = [(f"lorentz-d{d}", gen.lorentz_case(d, t, rng))
             for d in (3, 4, 5, 6) for t in gen.rapidity_grid(4)]
    cases.append(("chaos40", gen.LorentzCase(terms=gen.chaos_terms(40),
                                             ray=np.array([1.0, 0.0, 0.0]),
                                             gram=gen.split_gram())))
    return [_cli_item(ld, kind, case, workdir, i) for i, (kind, case) in enumerate(cases)]


# ---------------------------------------------------------------------------
# brute-cap: brute_force_as, checked by the rule of acceptance criterion 4


def _brute_item(ld, kind, terms, hyperplane, directions, radii, seed) -> Item:
    def run():
        seq = ld.stability.MatrixSequence.from_terms(terms)
        return ld.stability.brute_force_as(seq, directions=directions, radii=radii, seed=seed)

    def check(bf):
        _require(bf.complete, "budget ran out")
        scores = bf.scores[:, -1]
        cosines = np.minimum(1.0, np.linalg.norm(bf.directions @ hyperplane, axis=1))
        angles = np.arccos(cosines)
        _require(not np.any((scores < 5.0) & (angles > 0.30)),
                 "low score far from the hyperplane")
        _require(not np.any((scores > 50.0) & (angles < 0.05)),
                 "high score next to the hyperplane")
        return None

    return Item(kind, run, check)


def build_brute_cap(ld, seed: int, workdir: str) -> list[Item]:
    """Three random isometry sequences each for d = 3 and d = 4 (96
    directions, radii 0.3/0.1) and the 40-term fundamental example (16
    directions, default radii)."""
    rng = np.random.default_rng(seed)
    items = []
    for d in (3, 4):
        for t in gen.rapidity_grid(3):
            case = gen.lorentz_case(d, t, rng)
            items.append(_brute_item(ld, f"brute-d{d}", list(case.terms),
                                     gen.g_orthogonal(case.gram, case.ray), 96,
                                     (0.3, 0.1), seed))
    fund = [gen.fundamental_term(n) for n in range(1, 41)]
    items.append(_brute_item(ld, "brute-fundamental40", fund, np.eye(3)[:, :2], 16,
                             (0.3, 0.1, 0.03, 0.01), seed))
    return items


# ---------------------------------------------------------------------------
# group-boundary: limit sets, boundary dynamics, integer models, cocycles


def _limit_item(ld, kind, gram, gens, base, expected, rays, seed) -> Item:
    def run():
        form = ld.minkowski.QuadraticForm.from_gram(gram)
        s = ld.projective.HyperbolicPoint(v=base, form=form)
        return ld.projective.limit_set(form, gens, depth=8, samples=2000, s=s, seed=seed)

    def check(est):
        _require(est.cardinality_class.value == expected,
                 f"cardinality {est.cardinality_class.value}, expected {expected}")
        if not rays:
            return None
        points = [p.ray[:, None] for p in est.points]
        errs = []
        for ref in rays:
            errs.append(min(gen.sine_distance(p, ref[:, None]) for p in points))
            _within(errs[-1], TOL_LIMIT_POINT, "limit point")
        return max(errs)

    return Item(kind, run, check)


def _north_south_item(ld) -> Item:
    terms = [gen.boost(3, 0.5 * n) for n in range(1, 25)]
    angle = np.deg2rad(5.0)
    # analytic stable hyperplane of the sequence and of its inverse
    g = gen.minkowski_gram(3)
    src = gen.g_orthogonal(g, gen.unit([1.0, -1.0, 0.0]))
    dst = gen.g_orthogonal(g, gen.unit([1.0, 1.0, 0.0]))
    pts = ld.stability.sphere_points(3, 2000)
    probes = pts[np.linalg.norm(pts @ src, axis=1) < np.cos(angle)]

    def run():
        form = ld.minkowski.QuadraticForm.minkowski(3)
        seq = ld.stability.MatrixSequence.from_terms(terms)
        return ld.projective.north_south_certificate(form, seq, angle, angle, grid=2000)

    def check(n_star):
        _require(0 <= n_star < len(terms), f"certificate {n_star} out of range")
        for t in terms[n_star:]:
            img = probes @ t.T
            img /= np.linalg.norm(img, axis=1, keepdims=True)
            _require(np.all(np.linalg.norm(img @ dst, axis=1) >= np.cos(angle)),
                     f"certificate {n_star} does not trap the grid")
        return None

    return Item("north-south24", run, check)


def _orbit_item(ld, base) -> Item:
    terms = [gen.boost(3, 0.5 * n) for n in range(1, 29)]
    expanded = gen.unit([1.0, 1.0, 0.0])

    def run():
        form = ld.minkowski.QuadraticForm.minkowski(3)
        seq = ld.stability.MatrixSequence.from_terms(terms)
        s = ld.projective.HyperbolicPoint(v=base, form=form)
        return ld.projective.hyperbolic_orbit_limit(form, seq, s)

    def check(b):
        return _within(gen.sine_distance(b.ray[:, None], expanded[:, None]), TOL_ORBIT,
                       "orbit limit")

    return Item("orbit-limit28", run, check)


def _integer_item(ld) -> Item:
    gram = np.diag([-1, 1, 1]).astype(np.int64)
    expected = gen.integer_isometries_reference(gram, 3)

    def run():
        g = ld.models.RationalLorentzForm(gram=gram)
        return ld.models.integer_isometries(g, 3)

    def check(found):
        got = {np.asarray(a, dtype=np.int64).tobytes() for a in found}
        _require(len(found) == len(got) and got == expected,
                 f"{len(got)} isometries, expected {len(expected)}")
        return None

    return Item("integer-isometries3", run, check)


def _entropy_item(ld) -> Item:
    matrix = np.array([[3, 2, 2], [2, 1, 2], [2, 2, 1]], dtype=np.int64)
    log_mu = np.log(3.0 + 2.0 * np.sqrt(2.0))

    def run():
        g = ld.models.RationalLorentzForm(gram=np.diag([-1, 1, 1]).astype(np.int64))
        return ld.cocycles.entropy_dichotomy(ld.cocycles.TorusAutomorphism(matrix=matrix, form=g))

    def check(rep):
        _require(abs(rep.entropy - log_mu) <= 1e-12 * log_mu, f"entropy {rep.entropy}")
        _require(rep.as_equal is False, "forward and backward stable spaces agree")
        _require(np.allclose(rep.exponents, [-log_mu, 0.0, log_mu], rtol=0, atol=1e-9),
                 f"exponents {rep.exponents}")
        return None

    return Item("entropy322", run, check)


def build_group_boundary(ld, seed: int, workdir: str) -> list[Item]:
    """Limit sets of the cyclic boost, split unipotent and Schottky groups,
    the north-south certificate and orbit limit of the boost sequences,
    integer isometries at height 3 and one entropy dichotomy."""
    rng = np.random.default_rng(seed)
    word_seeds = rng.integers(0, 2**31, size=3)
    mink, split = gen.minkowski_gram(3), gen.split_gram()
    b = gen.boost(3, 1.2)
    quarter = gen.spatial(3, np.array([[0.0, -1.0], [1.0, 0.0]]))
    schottky = [b, quarter @ b @ quarter.T]
    origin = np.array([1.0, 0.0, 0.0])
    return [
        _limit_item(ld, "limit-cyclic", mink, [b], origin, "two",
                    [gen.unit([1.0, 1.0, 0.0]), gen.unit([1.0, -1.0, 0.0])], word_seeds[0]),
        _limit_item(ld, "limit-unipotent", split, [gen.split_unipotent(5.0)],
                    np.array([1.0, 0.0, -1.0]), "one", [origin], word_seeds[1]),
        _limit_item(ld, "limit-schottky", mink, schottky, origin, "large", [], word_seeds[2]),
        _north_south_item(ld),
        _orbit_item(ld, gen.hyperboloid_point(rng)),
        _integer_item(ld),
        _entropy_item(ld),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload("tail-long",
                 "200-term tails: quadratic clustering and extrapolation in stability dominate",
                 build_tail_long),
        Workload("lorentz-short",
                 "many short Lorentz tails through the CLI: per-term factorization, "
                 "call overhead and JSON I/O dominate",
                 build_lorentz_short),
        Workload("brute-cap",
                 "the brute-force cap solver, which no other workload exercises",
                 build_brute_cap),
        Workload("group-boundary",
                 "limit sets, boundary dynamics, integer models and cocycles; "
                 "stability is used lightly",
                 build_group_boundary),
    )
}
