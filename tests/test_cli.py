import argparse
import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lorentzdyn import boost, cli, jsonio, stability
from lorentzdyn.cartan import random_lorentz
from lorentzdyn.cli import build_parser, main

from .conftest import INTEGER_MINK3, fundamental_sequence, hyperbolic_322

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return str(p)

    write("mink3.json", np.diag([-1.0, 1, 1]).tolist())
    write("split3.json", [[0, 0, 0.5], [0, 1, 0], [0.5, 0, 0]])
    write("gram.json", INTEGER_MINK3.tolist())
    write("fund.json", [[1.0, 1, 0.5], [0, 1, -1], [0, 0, 1]])
    write("hyper.json", hyperbolic_322().tolist())
    write("boost_gen.json", [boost(3, 1.2).tolist()])
    write("singular.json", [[1.0, 0.0], [0.0, 0.0]])
    seq = fundamental_sequence(40)
    p = tmp_path / "fund_seq.json"
    p.write_text(jsonio.dumps(jsonio.sequence_to_dict(seq)))
    paths["fund_seq.json"] = str(p)
    rot = [[1.0, 0, 0], [0, np.cos(1.0), -np.sin(1.0)], [0, np.sin(1.0), np.cos(1.0)]]
    rot_seq = {"d": 3, "terms": [np.linalg.matrix_power(np.array(rot), k).tolist()
                                 for k in range(1, 13)]}
    write("rot_seq.json", rot_seq)
    paths["dir"] = str(tmp_path)
    return paths


def run_to_file(args, out_path):
    rc = main(args + ["--output", out_path])
    text = Path(out_path).read_text(encoding="utf-8")
    return rc, text


class TestKakCommand:
    def test_fundamental_matrix(self, files, tmp_path):
        rc, text = run_to_file(["kak", files["fund.json"]], str(tmp_path / "o.json"))
        assert rc == 0
        rep = json.loads(text)
        d = rep["D"]
        assert d == sorted(d)
        recon = np.array(rep["L"]) @ np.diag(d) @ np.array(rep["R"])
        assert np.allclose(recon, json.loads(Path(files["fund.json"]).read_text()), atol=1e-10)

    def test_identity_with_form(self, files, tmp_path):
        p = tmp_path / "eye.json"
        p.write_text(json.dumps(np.eye(3).tolist()))
        rc, text = run_to_file(["kak", str(p), "--form", files["mink3.json"]],
                               str(tmp_path / "o.json"))
        assert rc == 0
        rep = json.loads(text)
        assert rep["lambda"] == 1.0
        assert rep["D"] == [1.0, 1.0, 1.0]

    def test_singular_exit_code(self, files):
        assert main(["kak", files["singular.json"]]) == 2

    def test_near_standard_form_reports_standardization(self, tmp_path):
        # lorentz_kak conjugates by the standardizing congruence unless the
        # Gram matrix is diag(-1, 1, 1) to 1e-12; the report must say so
        eye, gram = tmp_path / "eye.json", tmp_path / "gram.json"
        eye.write_text(json.dumps(np.eye(3).tolist()))
        gram.write_text(json.dumps(np.diag([-1.0, 1.0 + 1e-7, 1.0]).tolist()))
        rc, text = run_to_file(["kak", str(eye), "--form", str(gram)], str(tmp_path / "o.json"))
        assert rc == 0
        assert json.loads(text)["standardized"] is True

    @pytest.mark.parametrize("command, content", [
        ("kak", "[[1, 0, 0], [0, 1, 0]]"),
        ("kak", "[[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]"),
        ("limit-set", "[[[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]]"),
        ("limit-set", "[[[1, 0, 0], [0, 1, 0], [0, 0, Infinity]]]"),
    ], ids=["kak-non-square", "kak-nan", "limit-set-nan", "limit-set-inf"])
    def test_malformed_matrix_exit_code(self, files, tmp_path, capsys, command, content):
        path = tmp_path / "m.json"
        path.write_text(content)
        argv = [command, str(path)]
        if command == "limit-set":
            argv += ["--form", files["mink3.json"]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestAsCommand:
    def test_all_oracles_agree(self, files, tmp_path):
        rc, text = run_to_file(["as", files["fund_seq.json"], "--oracle", "all"],
                               str(tmp_path / "o.json"))
        assert rc == 0
        rep = json.loads(text)
        assert set(rep["oracles"]) == {"kak", "ellipsoid", "graph"}
        for data in rep["oracles"].values():
            assert data["subspace"]["dimension"] == 2
            assert data["converged"]
            assert all(v < 1e-5 for v in data["oracle_agreement"].values())
        assert rep["strongly_stable"]["subspace"]["dimension"] == 1

    def test_equicontinuous_exit_code(self, files):
        assert main(["as", files["rot_seq.json"], "--oracle", "kak"]) == 2

    @pytest.mark.parametrize("args", [
        ["as", "fund_seq.json", "--bound-threshold", "0"],
        ["as", "fund_seq.json", "--bound-threshold", "-1"],
        ["limit-set", "boost_gen.json", "--form", "mink3.json", "--cluster-angle", "0"],
        ["limit-set", "boost_gen.json", "--form", "mink3.json",
         "--divergence-threshold", "-2"],
    ])
    def test_non_positive_tolerance_exit_code(self, files, capsys, args):
        argv = [files.get(a, a) for a in args]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: tolerance overrides must be positive\n"
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ["limit-set", "boost_gen.json", "--form", "mink3.json", "--divergence-threshold", "nan"],
        ["as", "fund_seq.json", "--bound-threshold", "nan", "--oracle", "kak"],
        ["limit-set", "boost_gen.json", "--form", "mink3.json", "--cluster-angle", "nan"],
    ], ids=["divergence-threshold", "bound-threshold", "cluster-angle"])
    def test_nan_tolerance_exit_code(self, files, capsys, args):
        assert main([files.get(a, a) for a in args]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: tolerance overrides must be positive\n"
        assert captured.out == ""

    @pytest.mark.parametrize("name, content", [
        ("missing.json", None),
        ("bad_json.json", "{not json"),
        ("non_numeric.json", json.dumps({"d": 2, "terms": [[["a", 0], [0, 1]]] * 8})),
        ("ragged.json", json.dumps({"terms": [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]] * 4})),
        ("nan.json", json.dumps({"terms": [[[float("nan"), 0], [0, 1]]] * 8})),
    ], ids=["missing", "invalid-json", "non-numeric", "ragged", "nan"])
    def test_malformed_input_exit_code(self, tmp_path, capsys, name, content):
        # bad input files are a precondition failure: exit 2, one error line
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        assert main(["as", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_chaos_with_form_reports_lightlike(self, files, tmp_path):
        from lorentzdyn import split_boost, split_unipotent
        terms = [(split_boost(n) @ split_unipotent(n)).tolist() for n in range(1, 41)]
        p = tmp_path / "chaos_seq.json"
        p.write_text(json.dumps({"d": 3, "terms": terms}))
        rc, text = run_to_file(
            ["as", str(p), "--form", files["split3.json"]], str(tmp_path / "o.json"))
        assert rc == 0
        rep = json.loads(text)
        assert rep["lorentz_check"]["passed"] is True
        assert rep["lorentz_check"]["kernel_dim"] == 1

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_non_positive_directions_exit_code(self, files, capsys, count):
        argv = ["as", files["fund_seq.json"], "--oracle", "brute", "--directions", count]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --directions must be at least 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("oracle, code", [
        ("ellipsoid", 3), ("all", 3), ("brute", 3), ("kak", 0), ("graph", 0),
    ])
    def test_overflowing_gram_exit_code(self, tmp_path, capsys, oracle, code):
        # entries of 1e160 overflow A^T A; the SVD and QR routes do not form it
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"d": 3, "terms": (fundamental_sequence(40).terms
                                                      * 1e160).tolist()}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["as", str(path), "--oracle", oracle]) == code
        err = capsys.readouterr().err
        assert err == ("numerical failure: a term's Gram matrix A^T A overflows the "
                       "floating-point range\n" if code else "")

    def test_brute_oracle(self, files, tmp_path):
        rc, text = run_to_file(
            ["as", files["fund_seq.json"], "--oracle", "brute", "--directions", "16"],
            str(tmp_path / "o.json"))
        assert rc == 0
        rep = json.loads(text)
        assert len(rep["brute_force"]["scores"]) == 16
        assert rep["brute_force"]["complete"] is True


class TestAsFormContract:
    def test_structure_violation_is_reported_not_raised(self, files, tmp_path, capsys):
        # the paper's central case, Lorentz-conjugated boosts k B(0.12 i) k^-1:
        # whatever the clauses find, they come back as the library's report
        k = random_lorentz(3, np.random.default_rng(0))
        terms = [(k @ boost(3, 0.12 * i) @ np.linalg.inv(k)).tolist() for i in range(1, 41)]
        path = tmp_path / "conjugated.json"
        path.write_text(json.dumps({"d": 3, "terms": terms}))
        out = tmp_path / "o.json"
        assert main(["as", str(path), "--form", files["mink3.json"], "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        check = stability.lorentz_as_check(jsonio.load_form(files["mink3.json"]),
                                           jsonio.load_sequence(str(path)))
        want = json.loads(jsonio.dumps(jsonio.lorentz_report_to_dict(check)))
        assert json.loads(out.read_text())["lorentz_check"] == want

    def test_non_lorentz_form_is_refused_as_kak_refuses_it(self, tmp_path, capsys):
        # boosts of the (e0, e2) plane preserve diag(-1, -1, 1, 1), signature (2, 2)
        terms = [boost(4, 0.5 * i, axis=2).tolist() for i in range(1, 17)]
        for name, obj in (("g.json", np.diag([-1.0, -1, 1, 1]).tolist()),
                          ("seq.json", {"d": 4, "terms": terms}), ("a.json", terms[0])):
            (tmp_path / name).write_text(json.dumps(obj))
        form = ["--form", str(tmp_path / "g.json")]
        for command, path in (("as", "seq.json"), ("kak", "a.json")):
            assert main([command, str(tmp_path / path)] + form) == 3
            captured = capsys.readouterr()
            assert captured.err == ("numerical failure: form has signature (2, 2), "
                                    "expected Lorentz (1, d-1)\n")
            assert captured.out == ""

    @pytest.mark.parametrize("oracle", ["all", "kak", "ellipsoid", "graph", "brute"])
    def test_non_isometric_sequence_exit_code(self, capsys, oracle):
        argv = ["as", str(GOLDEN / "fundamental40.json"), "--form",
                str(GOLDEN / "mink3.json"), "--oracle", oracle]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: matrix does not preserve the form\n"
        assert captured.out == ""


class TestOneAnalysisPass:
    @pytest.mark.parametrize("args, passes", [
        (["chaos40.json", "--form", "split3.json"], 4),
        (["lorentz4.json", "--form", "mink4.json", "--oracle", "kak"], 2),
    ], ids=["all-oracles", "kak-oracle"])
    def test_each_subspace_limit_runs_once(self, monkeypatch, tmp_path, args, passes):
        # one pass per detector plus one for the strongly stable space; the
        # Lorentz check reads the Cartan-route passes already made
        calls = []
        limit = stability._subspace_limit
        monkeypatch.setattr(stability, "_subspace_limit",
                            lambda *a: calls.append(a) or limit(*a))
        argv = ["as"] + [str(GOLDEN / a) if a.endswith(".json") else a for a in args]
        assert main(argv + ["--output", str(tmp_path / "o.json")]) == 0
        assert len(calls) == passes

    @pytest.mark.parametrize("oracle", ["all", "kak", "ellipsoid", "graph", "brute"])
    def test_refused_form_runs_no_analysis(self, monkeypatch, capsys, oracle):
        # the form and isometry preconditions come before every detector
        calls = []
        for name in ("_subspace_limit", "_cap_scores"):
            monkeypatch.setattr(stability, name, lambda *a, f=getattr(stability, name):
                                calls.append(f) or f(*a))
        argv = ["as", str(GOLDEN / "fundamental40.json"), "--form",
                str(GOLDEN / "mink3.json"), "--oracle", oracle]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: matrix does not preserve the form\n"
        assert calls == []

    def test_parser_is_built_once_and_shared(self, tmp_path):
        build_parser.cache_clear()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["as", str(GOLDEN / "chaos40.json"), "--form",
                     str(GOLDEN / "split3.json"), "--output", str(first)]) == 0
        assert main(["as", str(GOLDEN / "fundamental40.json"), "--output", str(second)]) == 0
        assert build_parser.cache_info().misses == 1
        assert "lorentz_check" in json.loads(first.read_text())
        assert "lorentz_check" not in json.loads(second.read_text())
        assert second.read_bytes() == (GOLDEN / "fundamental40.as.json").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["kak", "m.json"],
        ["as", "seq.json", "--oracle", "kak"],
        ["limit-set", "gens.json", "--form", "g.json"],
        ["model", "ads-orbit", "--alpha1", "0", "--alpha2", "1"],
        ["entropy", "m.json", "--gram", "g.json"],
    ], ids=lambda argv: argv[0])
    def test_handler_is_looked_up_after_the_parser_is_cached(self, monkeypatch, argv):
        # the cached parser pins no handler, so a rebound `cmd_*` (a wrapper
        # that times it, say) is the one that runs
        build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"),
                            lambda args: seen.append(args.command) or 7)
        assert main(argv) == 7
        assert seen == [argv[0]]


class TestLimitSetCommand:
    def test_boost_generator(self, files, tmp_path):
        rc, text = run_to_file(
            ["limit-set", files["boost_gen.json"], "--form", files["mink3.json"],
             "--point", "1,0,0"],
            str(tmp_path / "o.json"))
        assert rc == 0
        rep = json.loads(text)
        assert rep["cardinality_class"] == "two"
        assert rep["classification"] == "elementary_hyperbolic"
        assert rep["divergent_words"] == sum(c["weight"] for c in rep["clusters"])

    def test_trace_csv(self, files, tmp_path):
        trace = tmp_path / "trace.csv"
        rc, _ = run_to_file(
            ["limit-set", files["boost_gen.json"], "--form", files["mink3.json"],
             "--point", "1,0,0", "--trace", str(trace)],
            str(tmp_path / "o.json"))
        assert rc == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "word_length,ray_0,ray_1,ray_2,growth"
        assert len(lines) > 100

    @pytest.mark.parametrize("generator, depth, code, err", [
        # so large that the isometry gate's roundoff allowance admits it
        ([[4507073.0, 0, 0], [4507073.0, 0, 0], [0, 0, 0]], 8, 2,
         "error: a generator is singular\n"),
        (boost(3, 15.0).tolist(), 60, 3,
         "numerical failure: a word of length 52 overflows the floating-point range\n"),
    ], ids=["singular", "overflow"])
    def test_unusable_generator_exit_code(self, files, tmp_path, capsys,
                                          generator, depth, code, err):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps([generator]))
        argv = ["limit-set", str(path), "--form", files["mink3.json"],
                "--depth", str(depth), "--samples", "50"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == code
        assert capsys.readouterr().err == err


    def test_overflowing_image_exit_code(self, files, tmp_path, capsys):
        # every word's growth is finite, but the Euclidean norm of one image is not
        path = tmp_path / "gens.json"
        path.write_text(json.dumps([boost(3, 15.0).tolist()]))
        argv = ["limit-set", str(path), "--form", files["mink3.json"],
                "--depth", "40", "--samples", "50"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        assert capsys.readouterr().err == ("numerical failure: the image of a word of length "
                                           "35 overflows the floating-point range\n")

    @pytest.mark.parametrize("option, value", [
        ("--depth", "0"), ("--depth", "-1"), ("--samples", "0"),
    ])
    def test_non_positive_depth_or_samples_exit_code(self, files, capsys, option, value):
        argv = ["limit-set", files["boost_gen.json"], "--form", files["mink3.json"],
                option, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: depth and samples must be at least 1\n"
        assert captured.out == ""


class TestModelCommands:
    def test_torus_isoms(self, files, tmp_path):
        rc, text = run_to_file(
            ["model", "torus-isoms", "--gram", files["gram.json"], "--height", "1"],
            str(tmp_path / "o.json"))
        assert rc == 0
        rep = json.loads(text)
        assert rep["count"] == 16

    def test_torus_fixed(self, files, tmp_path):
        p = tmp_path / "elems.json"
        p.write_text(json.dumps([hyperbolic_322().tolist()]))
        rc, text = run_to_file(
            ["model", "torus-fixed", "--gram", files["gram.json"],
             "--elements", str(p)],
            str(tmp_path / "o.json"))
        assert rc == 0
        rep = json.loads(text)
        assert len(rep["fixed"]) == 2

    def test_hopf_trace(self, files, tmp_path):
        rc, text = run_to_file(
            ["model", "hopf", "--alpha", "0.5", "--lambda", "2", "--point", "1,0.1",
             "--n", "30"],
            str(tmp_path / "o.csv"))
        assert rc == 0
        lines = text.strip().split("\n")
        assert lines[0] == "n,m,rep_00,rep_11,norm"
        assert len(lines) == 32
        norms = [float(l.split(",")[4]) for l in lines[1:]]
        assert max(norms) < 20.0

    def test_ads_circle_rotation(self, files, tmp_path):
        rc, text = run_to_file(
            ["model", "ads-circle", "--h", "0,-1;1,0", "--alpha", "0"],
            str(tmp_path / "o.json"))
        assert rc == 0
        rep = json.loads(text)
        assert rep["alpha_image"] == float("inf")

    def test_ads_orbit(self, files, tmp_path):
        rc, text = run_to_file(
            ["model", "ads-orbit", "--alpha1", "0", "--alpha2", "1"],
            str(tmp_path / "o.json"))
        assert rc == 0
        assert json.loads(text)["intersection_dim"] == 0

    def test_torus_fixed_element_of_another_size_exit_code(self, files, tmp_path, capsys):
        elements = tmp_path / "elements.json"
        elements.write_text(json.dumps([[[1, 0], [0, 1]]]))
        argv = ["model", "torus-fixed", "--gram", files["gram.json"],
                "--elements", str(elements)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: matrix dimension does not match the form\n"


class TestEntropyCommand:
    def test_hyperbolic_report(self, files, tmp_path):
        rc, text = run_to_file(
            ["entropy", files["hyper.json"], "--gram", files["gram.json"]],
            str(tmp_path / "o.json"))
        assert rc == 0
        rep = json.loads(text)
        assert rep["entropy"] == pytest.approx(np.log(3 + 2 * np.sqrt(2)), rel=1e-12)
        assert rep["as_equal"] is False
        assert rep["p_threshold"] == 1


    def test_matrix_and_gram_dimensions_must_match(self, files, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([[2, 1], [1, 1]]))
        assert main(["entropy", str(path), "--gram", files["gram.json"]]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: matrix dimension does not match the form\n"
        assert captured.out == ""


class TestIntegerInputs:
    @pytest.mark.parametrize("argv, what", [
        (["entropy", "non_integer.json", "--gram", "gram.json"], "automorphism"),
        (["entropy", "huge.json", "--gram", "gram.json"], "automorphism"),
        (["model", "torus-isoms", "--gram", "non_integer_gram.json", "--height", "1"], "Gram"),
        (["model", "torus-isoms", "--gram", "huge_gram.json", "--height", "1"], "Gram"),
        (["model", "torus-fixed", "--gram", "non_integer_gram.json"], "Gram"),
    ], ids=["entropy-fraction", "entropy-huge", "isoms-fraction", "isoms-huge",
            "fixed-fraction"])
    def test_non_integer_or_huge_entries_exit_code(self, files, tmp_path, capsys, argv, what):
        # the CLI used to round these to int64 and report on another matrix
        for name, m in [("non_integer.json", np.diag([1.4, 1.0, 1.0])),
                        ("huge.json", np.diag([1e300, 1.0, 1.0])),
                        ("non_integer_gram.json", np.diag([-1.4, 1.0, 1.0])),
                        ("huge_gram.json", np.diag([-1e300, 1.0, 1.0]))]:
            files[name] = str(tmp_path / name)
            (tmp_path / name).write_text(json.dumps(m.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([files.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {what} entries must be integers of magnitude below 2**53\n"
        assert captured.out == ""


def test_seed_only_on_the_commands_that_read_it():
    def walk(parser, path):
        yield path, parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    yield from walk(sub, f"{path} {name}".strip())

    seeded = [path for path, p in walk(build_parser(), "")
              if any("--seed" in a.option_strings for a in p._actions)]
    assert sorted(seeded) == ["as", "limit-set"]


class TestDeterminism:
    def test_seeded_reruns_byte_identical(self, files, tmp_path):
        args = ["limit-set", files["boost_gen.json"], "--form", files["mink3.json"],
                "--point", "1,0,0", "--seed", "5"]
        _, first = run_to_file(args, str(tmp_path / "a.json"))
        _, second = run_to_file(args, str(tmp_path / "b.json"))
        assert first == second

    def test_reports_round_trip_through_json(self, files, tmp_path):
        rc, text = run_to_file(["as", files["fund_seq.json"], "--oracle", "kak"],
                               str(tmp_path / "o.json"))
        assert rc == 0
        assert isinstance(json.loads(text), dict)


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
                 | st.floats() | st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=20,
)


@st.composite
def _sequence_payloads(draw):
    """Sequence objects: n square d x d terms (n may be 0) whose entries may be
    NaN or infinite, and sometimes a `d` field of any JSON type."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))
    entry = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-100, 100)
    terms = draw(st.lists(st.lists(st.lists(entry, min_size=d, max_size=d),
                                   min_size=d, max_size=d),
                          min_size=n, max_size=n))
    payload = {"terms": terms}
    if draw(st.booleans()):
        payload["d"] = draw(st.integers(0, 5) | _JSON_SCALARS)
    return payload


@st.composite
def _matrix_payloads(draw):
    """One d x d matrix, or a list of 1-3 of them (d = 3 or not), whose
    entries may be NaN, infinite or huge."""
    d = draw(st.integers(1, 4))
    entry = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-100, 100)
    matrix = st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
    if draw(st.booleans()):
        return draw(matrix)
    return draw(st.lists(matrix, min_size=1, max_size=3))


def _exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert "Traceback" not in err.getvalue()
    return rc


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_JSON_VALUES | _sequence_payloads())
def test_as_fuzzed_payloads_honour_exit_codes(tmp_path, payload):
    # whatever the file holds, `as` ends with a documented exit code
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    assert _exit_code(["as", str(path)]) in (0, 2, 3)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_JSON_VALUES | _matrix_payloads())
def test_kak_and_limit_set_fuzzed_payloads_honour_exit_codes(files, payload):
    # the same for `kak FILE` and `limit-set GENS` (a Minkowski form)
    path = f"{files['dir']}/payload.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))
    assert _exit_code(["kak", path]) in (0, 2, 3)
    assert _exit_code(["limit-set", path, "--form", files["mink3.json"],
                       "--depth", "4", "--samples", "50"]) in (0, 2, 3)


def test_console_entry_point(files):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "lorentzdyn.cli", "kak", files["fund.json"]],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["D"][0] < 1.0
