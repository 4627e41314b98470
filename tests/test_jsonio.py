"""The report writer: `jsonio.dumps` and `jsonio.csv_lines`.

The writer was rewritten to emit text from plain data with one string
encoder and no numpy calls per value.  `_ref_dumps` and `_ref_csv_lines`
below are the previous writer, kept as references: every report golden and
every edge case here must come out byte for byte as they write it.
"""

import collections
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from lorentzdyn import jsonio

GOLDEN = Path(__file__).parent / "golden"
REPORTS = sorted(p.name for p in GOLDEN.iterdir()
                 if p.name.endswith((".as.json", ".brute.json", ".limit.json", ".fixed.json",
                                     ".isoms.json", ".entropy.json")))
TRACES = sorted(p.name for p in GOLDEN.glob("*.csv"))


def _ref_format_float(x: float) -> str:
    if np.isnan(x):
        return "NaN"
    if np.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _ref_dumps(obj) -> str:
    def emit(o) -> str:
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _ref_format_float(float(o))
        if isinstance(o, str):
            return json.dumps(o, ensure_ascii=False)
        if isinstance(o, np.ndarray):
            return emit(o.tolist())
        if isinstance(o, (list, tuple)):
            return "[" + ", ".join(emit(x) for x in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: str(kv[0]))
            return "{" + ", ".join(
                json.dumps(str(k), ensure_ascii=False) + ": " + emit(v)
                for k, v in items
            ) + "}"
        raise TypeError(f"cannot serialize {type(o)!r}")

    return emit(obj) + "\n"


def _ref_csv_lines(header, rows) -> str:
    out = [",".join(header)]
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, (float, np.floating)):
                cells.append(_ref_format_float(float(x)))
            else:
                cells.append(str(x))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _same(obj) -> str:
    text = jsonio.dumps(obj)
    assert text == _ref_dumps(obj)
    return text


def test_golden_lists_are_complete():
    assert len(REPORTS) == 12 and len(TRACES) == 2


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_every_golden_reserialized_as_before(name):
    _same(json.loads((GOLDEN / name).read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", REPORTS)
def test_report_goldens_reserialize_to_their_bytes(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert _same(json.loads(text)) == text


@pytest.mark.parametrize("name", TRACES)
def test_trace_goldens_rewrite_to_their_bytes(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    header, *rows = csv.reader(io.StringIO(text))
    rows = [[int(row[0])] + [float(x) for x in row[1:]] for row in rows]
    assert jsonio.csv_lines(header, rows) == _ref_csv_lines(header, rows) == text


@pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300,
                               5e-324, 1.7976931348623157e308, 0.1, -2.5, 1e16, 123456789.0])
def test_special_floats(x):
    with np.errstate(over="ignore"):  # float32 of 1.8e308 is inf
        row = [x, np.float64(x), np.float32(x)]
    _same(x)
    _same(row)
    assert jsonio.csv_lines(["x"], [row]) == _ref_csv_lines(["x"], [row])


def test_non_finite_texts():
    assert jsonio.dumps([float("nan"), float("inf"), -float("inf"), -0.0]) \
        == "[NaN, Infinity, -Infinity, -0]\n"


def test_numpy_scalars_and_arrays():
    _same({"f32": np.float32(0.1), "f64": np.float64(1 / 3), "i64": np.int64(-7),
           "i8": np.int8(5), "u64": np.uint64(2**63), "ld": np.longdouble(1) / 3})
    _same({"m": np.arange(6.0).reshape(2, 3) / 7, "i": np.arange(4), "e": np.empty((0, 3)),
           "f32": np.linspace(0, 1, 5, dtype=np.float32), "z": np.zeros(()),
           "nan": np.array([np.nan, np.inf, -np.inf])})


def test_nested_tuples_and_plain_values():
    _same(((1, (2.5, None)), [True, False, ()], {}, [], "", 0, -1, 10**30))


def test_non_ascii_and_control_characters():
    weird = "é漢字 \x00\x1f\t\n\"\\/ \U0001f600"
    text = _same({weird: [weird, "plain"], "ключ": "значение"})
    assert "é漢字" in text
    assert json.loads(text) == {weird: [weird, "plain"], "ключ": "значение"}


def test_integer_keys_sort_by_string():
    text = _same({10: "a", 9: "b", "1x": "c", 2: 2.0})
    assert text == '{"10": "a", "1x": "c", "2": 2, "9": "b"}\n'


@pytest.mark.parametrize("value", [1 + 2j, np.complex128(1j), np.clongdouble(1j),
                                   np.array([1j]), np.array([1j], dtype=np.clongdouble),
                                   object(), {1, 2}, b"bytes"])
def test_unserializable_values_raise_type_error(value):
    with pytest.raises(TypeError):
        _ref_dumps({"v": value})
    with pytest.raises(TypeError):
        jsonio.dumps({"v": value})


def test_csv_mixed_cells():
    header = ["word_length", "ray_0", "label"]
    rows = [(3, 0.5, "a"), [np.int64(4), np.float64(-0.0), "b"], (5, np.float32(2.5), None)]
    assert jsonio.csv_lines(header, rows) == _ref_csv_lines(header, rows)
    assert jsonio.csv_lines(header, []) == "word_length,ray_0,label\n"


def test_dumps_makes_no_per_value_json_or_numpy_calls(monkeypatch):
    report = json.loads((GOLDEN / "lorentz6-mink6.as.json").read_text(encoding="utf-8"))
    report["extra"] = {"nan": float("nan"), "inf": -np.inf, "array": np.eye(3),
                       "scalar": np.float64(2.0), "count": np.int64(3), "text": "ü"}
    want = _ref_dumps(report)

    def refuse(*args, **kwargs):
        raise AssertionError("called per value")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(np, "isnan", refuse)
    monkeypatch.setattr(np, "isinf", refuse)
    assert jsonio.dumps(report) == want
    rows = [(1, float("nan"), np.float64(np.inf))]
    assert jsonio.csv_lines(["a", "b", "c"], rows) == "a,b,c\n1,NaN,Infinity\n"


def _isinstance_emit(o) -> str:
    """The emitter as it stood before its exact-type fast path: one
    `isinstance` chain, kept as the reference for every type branch."""
    if isinstance(o, float):
        return jsonio._format_float(o)
    if isinstance(o, str):
        return jsonio._encode_str(o)
    if isinstance(o, dict):
        items = sorted(o.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(jsonio._encode_str(str(k)) + ": " + _isinstance_emit(v)
                               for k, v in items) + "}"
    if isinstance(o, (list, tuple)):
        return "[" + ", ".join(_isinstance_emit(x) for x in o) + "]"
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, int):
        return str(int(o))
    if isinstance(o, np.floating):
        return jsonio._format_float(float(o))
    if isinstance(o, (np.ndarray, np.generic)) and not isinstance(o, np.complexfloating):
        return _isinstance_emit(o.tolist())
    raise TypeError(f"cannot serialize {type(o)!r}")


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


_Pair = collections.namedtuple("_Pair", "a b")


@pytest.mark.parametrize("value", [
    0.25, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e308,
    [], [1.5, float("nan"), -float("inf"), float("inf")], [[0.1, 2], [3, -4.5]],
    (), (1, 2.5, "x"), ((float("nan"),),),
    {}, {"b": 1.0, "a": [float("inf")]}, {2: "x", 10: "y", "1": None},
    0, -7, 10**30, True, False, None, "", "plain", "é\n\"",
    np.float64(float("nan")), np.float64(-np.inf), np.float32(0.1), np.int64(-3),
    np.uint8(200), np.bool_(True), np.longdouble(1) / 3,
    np.array([[np.nan, np.inf], [-np.inf, 0.5]]), np.arange(3), np.zeros(()),
    _Float(2.5), _Float("nan"), _Int(4), _Str("sub"), _List([1, 2.0]),
    _Dict(z=1, y=[2.0]), collections.OrderedDict([("k", -np.inf)]), _Pair(1.0, [True]),
    {"nested": [{"m": np.eye(2), "t": (np.int32(1), None, _Float("-inf"))}]},
], ids=repr)
def test_typed_emitter_matches_isinstance_chain(value):
    assert jsonio.dumps(value) == _isinstance_emit(value) + "\n"
