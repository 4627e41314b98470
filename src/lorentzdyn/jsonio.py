"""File formats: JSON matrices (arrays of rows), sequence files, reports, CSV.

Serialization is deterministic: keys sorted, floats printed with 17
significant digits, newline-terminated UTF-8.  Identical analysis inputs
(and seed) therefore produce byte-identical outputs.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import PreconditionError
from .minkowski import QuadraticForm, Subspace
from .stability import ASResult, BruteForceScores, LorentzStabilityReport, MatrixSequence


# Strings and keys are escaped by one encoder, built once.
_encode_str = json.JSONEncoder(ensure_ascii=False).encode
# Python's texts for the non-finite floats, and the JSON ones written instead.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _format_float(x: float) -> str:
    text = format(x, ".17g")
    return _NON_FINITE.get(text, text)


def _key_text(item) -> str:
    """The text a (key, value) pair is sorted by: its key's."""
    return str(item[0])


def _emit(o) -> str:
    # the plain types of a report first, by exact type; then the rest,
    # bool, None, str and numpy values among them
    t = type(o)
    if t is float:
        return _format_float(o)
    if t is list or t is tuple:
        return "[" + ", ".join([_format_float(x) if type(x) is float else _emit(x)
                                for x in o]) + "]"
    if t is dict:
        items = sorted(o.items(), key=_key_text)
        return "{" + ", ".join([_encode_str(str(k)) + ": " + _emit(v) for k, v in items]) + "}"
    if t is int:
        return str(o)
    if isinstance(o, float):  # np.float64 included
        return _format_float(o)
    if isinstance(o, str):
        return _encode_str(o)
    if isinstance(o, dict):
        return _emit(dict(o.items()))
    if isinstance(o, (list, tuple)):
        return _emit(list(o))
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, int):
        return str(int(o))
    if isinstance(o, np.floating):  # float32 and longdouble print as the nearest double
        return _format_float(float(o))
    if isinstance(o, (np.ndarray, np.generic)) and not isinstance(o, np.complexfloating):
        return _emit(o.tolist())
    raise TypeError(f"cannot serialize {type(o)!r}")


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, 17 significant digits)."""
    return _emit(obj) + "\n"


def csv_lines(header: list[str], rows) -> str:
    """CSV with a header row; floats at 17 significant digits."""
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_format_float(float(x)) if isinstance(x, (float, np.floating))
                            else str(x) for x in row))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# readers
#
# Unreadable files, malformed JSON, non-numeric or ragged arrays and NaN or
# infinite matrix entries are bad input: they surface as PreconditionError
# naming the file.


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"{path}: cannot read file ({exc.strerror or exc})") from exc
    except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError
        raise PreconditionError(f"{path}: invalid JSON ({exc})") from exc


def _float_array(path, data) -> np.ndarray:
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past 1e308
        raise PreconditionError(f"{path}: expected numeric arrays ({exc})") from exc


def _finite_array(path, data) -> np.ndarray:
    a = _float_array(path, data)
    if not np.all(np.isfinite(a)):
        raise PreconditionError(f"{path}: entries must be finite (no NaN or infinity)")
    return a


def load_matrix(path) -> np.ndarray:
    """A square matrix stored as a JSON array of rows, with finite entries."""
    data = _read_json(path)
    m = _float_array(path, data)
    if m.ndim != 2:
        raise PreconditionError(f"{path}: expected a JSON array of rows")
    if m.shape[0] != m.shape[1]:
        raise PreconditionError(f"{path}: expected a square matrix, got shape {m.shape}")
    return _finite_array(path, m)


def load_form(path) -> QuadraticForm:
    return QuadraticForm.from_gram(load_matrix(path))


def load_matrices(path) -> list[np.ndarray]:
    """A JSON array of matrices (each an array of rows) with finite entries."""
    data = _read_json(path)
    if not isinstance(data, list) or not data:
        raise PreconditionError(f"{path}: expected a non-empty JSON array of matrices")
    return [_finite_array(path, m) for m in data]


def load_sequence(path) -> MatrixSequence:
    """Sequence schema: {"d": int, "terms": [[...], ...], "generator_spec": str?}."""
    data = _read_json(path)
    if not isinstance(data, dict) or "terms" not in data:
        raise PreconditionError(f"{path}: expected an object with a 'terms' field")
    terms = _float_array(path, data["terms"])
    if "d" in data and terms.shape[1:] != (data["d"], data["d"]):
        raise PreconditionError(f"{path}: terms do not match the declared dimension")
    return MatrixSequence(terms=terms, generator_spec=data.get("generator_spec"))


def sequence_to_dict(seq: MatrixSequence) -> dict:
    return {
        "d": seq.dim,
        "terms": seq.terms.tolist(),
        "generator_spec": seq.generator_spec,
    }


# ---------------------------------------------------------------------------
# report shapes


def subspace_to_dict(s: Subspace) -> dict:
    return {"dimension": s.dim, "basis": s.basis.tolist()}


def as_result_to_dict(r: ASResult) -> dict:
    return {
        "subspace": subspace_to_dict(r.subspace),
        "kind": r.kind.value,
        "modulus": r.modulus,
        "converged": r.converged,
        "subsequence_indices": list(r.subsequence_indices),
        "oracle_agreement": dict(r.oracle_agreement),
    }


def brute_to_dict(b: BruteForceScores) -> dict:
    return {
        "radii": list(b.radii),
        "directions": b.directions.tolist(),
        "scores": b.scores.tolist(),
        "complete": b.complete,
    }


def lorentz_report_to_dict(rep: LorentzStabilityReport) -> dict:
    return {
        "passed": rep.passed,
        "failures": list(rep.failures),
        "stable": as_result_to_dict(rep.stable),
        "strongly_stable": as_result_to_dict(rep.strongly_stable),
        "kernel_dim": rep.kernel_dim,
        "modulus": rep.modulus,
    }
