"""Command line surface.

Every analysis is exposed with file-based input and deterministic output;
exit code 0 on success, 2 on a precondition violation, 3 on numerical
failure.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import cocycles, jsonio, models, projective, stability
from .cartan import is_standard_lorentz, kak, lorentz_kak, norm_growth
from .errors import NumericalError, PreconditionError
from .minkowski import QuadraticForm
from .projective import HyperbolicPoint


# Options that must be positive, on the subcommands that have them.
_TOLERANCES = ("bound_threshold", "cluster_angle", "divergence_threshold")


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_inline_matrix(text: str) -> np.ndarray:
    rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
    return np.array(rows)


def _parse_inline_vector(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


# ---------------------------------------------------------------------------
# subcommands


def cmd_kak(args) -> int:
    a = jsonio.load_matrix(args.matrix)
    report = {"input": a.tolist(), "norm_growth": norm_growth(a)}
    if args.form:
        form = jsonio.load_form(args.form)
        fact, lam = lorentz_kak(form, a)
        report["lambda"] = lam
        report["standardized"] = not is_standard_lorentz(form)
    else:
        fact = kak(a)
    report["L"] = fact.L.tolist()
    report["D"] = fact.D.tolist()
    report["R"] = fact.R.tolist()
    _emit(args, jsonio.dumps(report))
    return 0


def cmd_as(args) -> int:
    seq = jsonio.load_sequence(args.sequence)
    report: dict = {"n_terms": len(seq), "d": seq.dim}
    if args.form:
        # preconditions first; the oracles and SPAS reuse the check's limits
        check = stability.lorentz_as_check(jsonio.load_form(args.form), seq,
                                           bound_threshold=args.bound_threshold)
        report["lorentz_check"] = jsonio.lorentz_report_to_dict(check)
    if args.oracle == "all":
        results = stability.as_all_oracles(seq, bound_threshold=args.bound_threshold)
        report["oracles"] = {k: jsonio.as_result_to_dict(v) for k, v in results.items()}
    elif args.oracle == "brute":
        scores = stability.brute_force_as(seq, directions=args.directions,
                                          seed=args.seed)
        report["brute_force"] = jsonio.brute_to_dict(scores)
    else:
        op = {
            "kak": stability.as_subspace_kak,
            "ellipsoid": stability.as_subspace_ellipsoid,
            "graph": stability.as_subspace_graph,
        }[args.oracle]
        if args.oracle == "graph":
            result = op(seq)
        else:
            result = op(seq, bound_threshold=args.bound_threshold)
        report["oracles"] = {args.oracle: jsonio.as_result_to_dict(result)}
    if args.oracle != "brute":
        spas = stability.spas_subspace(seq, bound_threshold=args.bound_threshold)
        report["strongly_stable"] = jsonio.as_result_to_dict(spas)
    _emit(args, jsonio.dumps(report))
    return 0


def cmd_limit_set(args) -> int:
    form = jsonio.load_form(args.form)
    gens = jsonio.load_matrices(args.generators)
    if args.point:
        s = HyperbolicPoint.from_timelike(form, _parse_inline_vector(args.point))
    else:
        s = _default_base_point(form)
    trace: list | None = [] if args.trace else None
    estimate = projective.limit_set(
        form, gens, depth=args.depth, samples=args.samples, s=s,
        cluster_angle=np.deg2rad(args.cluster_angle), seed=args.seed,
        divergence_threshold=args.divergence_threshold, trace=trace,
    )
    classification = projective.classify_elementary(estimate)
    report = {
        "cardinality_class": estimate.cardinality_class.value,
        "classification": classification.value,
        "words_sampled": estimate.words_sampled,
        "divergent_words": estimate.divergent_words,
        "min_intercluster_gap": estimate.min_intercluster_gap,
        "clusters": [
            {
                "centroid": c.centroid.ray.tolist(),
                "weight": c.weight,
                "angular_radius": c.angular_radius,
            }
            for c in estimate.clusters
        ],
    }
    if args.trace:
        d = form.dim
        header = ["word_length"] + [f"ray_{i}" for i in range(d)] + ["growth"]
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(jsonio.csv_lines(header, trace))
    _emit(args, jsonio.dumps(report))
    return 0


def _default_base_point(form: QuadraticForm) -> HyperbolicPoint:
    # pick the most timelike eigendirection of the Gram matrix
    w, v = np.linalg.eigh(form.gram)
    vec = v[:, 0]
    if vec[0] < 0:
        vec = -vec
    return HyperbolicPoint.from_timelike(form, vec)


def cmd_model(args) -> int:
    if args.model_command == "torus-isoms":
        g = models.RationalLorentzForm(gram=jsonio.load_matrix(args.gram))
        elems = models.integer_isometries(g, args.height)
        _emit(args, jsonio.dumps({
            "count": len(elems),
            "height": args.height,
            "elements": [a.tolist() for a in elems],
        }))
    elif args.model_command == "torus-fixed":
        g = models.RationalLorentzForm(gram=jsonio.load_matrix(args.gram))
        if args.elements:
            elems = jsonio.load_matrices(args.elements)
        else:
            elems = models.integer_isometries(g, args.height)
        fixed = models.fixed_isotropic_directions(g, elems)
        if isinstance(fixed, models.EntireCone):
            _emit(args, jsonio.dumps({"fixed": "entire-cone"}))
        else:
            rays = []
            for b in fixed:
                fracs, err = models.rational_ray_diagnostic(b)
                rays.append({
                    "ray": b.ray.tolist(),
                    "rational_approximation": [str(f) for f in fracs],
                    "rational_error": err,
                })
            _emit(args, jsonio.dumps({"fixed": rays}))
    elif args.model_command == "hopf":
        model = models.HopfModel(alpha=args.alpha, lam=getattr(args, "lambda"))
        x = _parse_inline_vector(args.point)
        rows = []
        for n in range(args.n + 1):
            m, rep = models.hopf_return_cocycle(model, x, n)
            rows.append((n, m, rep[0, 0], rep[1, 1], float(np.linalg.norm(rep, 2))))
        _emit(args, jsonio.csv_lines(["n", "m", "rep_00", "rep_11", "norm"], rows))
    elif args.model_command == "ads-orbit":
        p1 = models.ads_plane_family(args.alpha1)
        p2 = models.ads_plane_family(args.alpha2)
        _emit(args, jsonio.dumps({
            "intersection_dim": models.ads_pair_orbit(p1, p2),
        }))
    elif args.model_command == "ads-circle":
        h = _parse_inline_matrix(getattr(args, "h"))
        alpha = float("inf") if args.alpha in ("inf", "infinity") else float(args.alpha)
        out = models.ads_second_factor_action(h, alpha)
        _emit(args, jsonio.dumps({
            "alpha": alpha,
            "alpha_image": out,
        }))
    else:
        raise PreconditionError(f"unknown model subcommand {args.model_command!r}")
    return 0


def cmd_entropy(args) -> int:
    g = models.RationalLorentzForm(gram=jsonio.load_matrix(args.gram))
    aut = cocycles.TorusAutomorphism(matrix=jsonio.load_matrix(args.matrix), form=g)
    report = cocycles.entropy_dichotomy(aut)
    _emit(args, jsonio.dumps({
        "eigenvalues": [list(z) for z in report.eigenvalues],
        "exponents": list(report.exponents),
        "entropy": report.entropy,
        "p_threshold": report.p_threshold,
        "as_equal": report.as_equal,
    }))
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `lorentzdyn` parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog="lorentzdyn",
        description="Approximate stability analyses of Lorentz and linear "
                    "dynamical systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("kak", help="Cartan factorization of a matrix file")
    p.add_argument("matrix", help="JSON matrix (array of rows)")
    p.add_argument("--form", help="Gram matrix file: check the Lorentz pattern")
    common(p)

    p = sub.add_parser("as", help="approximately stable subspaces of a sequence")
    p.add_argument("sequence", help="JSON sequence file {d, terms, generator_spec?}")
    p.add_argument("--oracle", choices=["kak", "ellipsoid", "graph", "brute", "all"],
                   default="all")
    p.add_argument("--form", help="Gram matrix file: adds the Lorentz structure check")
    p.add_argument("--bound-threshold", type=float, default=stability.BOUND_THRESHOLD)
    p.add_argument("--directions", type=int, default=64,
                   help="sampled directions for the brute-force oracle")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the brute-force directions in d >= 4 (default 0)")
    common(p)

    p = sub.add_parser("limit-set", help="limit set estimate of a generated group")
    p.add_argument("generators", help="JSON array of generator matrices")
    p.add_argument("--form", required=True, help="Gram matrix file")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--cluster-angle", type=float, default=5.0,
                   help="clustering angle in degrees")
    p.add_argument("--divergence-threshold", type=float,
                   default=projective.WORD_DIVERGENCE_THRESHOLD)
    p.add_argument("--point", help="base point on the hyperboloid, e.g. '1,0,0'")
    p.add_argument("--trace", help="also write the orbit trace CSV here")
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled words (default 0)")
    common(p)

    p = sub.add_parser("model", help="model-space computations")
    msub = p.add_subparsers(dest="model_command", required=True)

    q = msub.add_parser("torus-isoms", help="enumerate O(g, Z) up to an entry height")
    q.add_argument("--gram", required=True)
    q.add_argument("--height", type=int, required=True)
    common(q)

    q = msub.add_parser("torus-fixed", help="commonly fixed isotropic directions")
    q.add_argument("--gram", required=True)
    q.add_argument("--height", type=int, default=1)
    q.add_argument("--elements", help="JSON array of elements (else enumerate)")
    common(q)

    q = msub.add_parser("hopf", help="return-map derivative cocycle trace (CSV)")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--lambda", dest="lambda", type=float, required=True)
    q.add_argument("--point", required=True, help="'a,b' off the origin")
    q.add_argument("--n", type=int, default=30)
    common(q)

    q = msub.add_parser("ads-orbit", help="orbit invariant of a pair of family planes")
    q.add_argument("--alpha1", type=float, required=True)
    q.add_argument("--alpha2", type=float, required=True)
    common(q)

    q = msub.add_parser("ads-circle", help="second-factor circle action on the family")
    q.add_argument("--h", required=True, help="SL(2,R) matrix 'a,b;c,d'")
    q.add_argument("--alpha", required=True, help="family parameter or 'inf'")
    common(q)

    p = sub.add_parser("entropy", help="entropy dichotomy of a torus automorphism")
    p.add_argument("matrix", help="integer matrix file")
    p.add_argument("--gram", required=True, help="integer Gram matrix file")
    common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if any(not getattr(args, name, 1.0) > 0 for name in _TOLERANCES):  # NaN fails too
            raise PreconditionError("tolerance overrides must be positive")
        if getattr(args, "directions", 1) < 1:
            raise PreconditionError("--directions must be at least 1")
        # looked up per call, not stored in the cached parser, so a rebound
        # `cmd_*` (wrapped or patched) is the handler that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
