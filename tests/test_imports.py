"""No module of the package imports a name it never uses, nor another
module's private (`_`-prefixed) name outside a fixed list of pairs, nor
calls an inverse cosine.

No linter ships with the test dependencies, so this reads the modules'
syntax trees: a module-level import is used when its bound name appears as
a name anywhere in the module (an attribute chain such as `np.linalg`
starts with the name `np`).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lorentzdyn"
# (module, name) pairs imported for outside readers: bench/test_bench.py
# checks the benchmark tracer's wrappers at the bindings `stability.kak`
# and `stability.grassmann_distance`.
ALLOWED = {("stability", "kak"), ("stability", "grassmann_distance")}
# (importer, exporter, name) private imports between the package's modules;
# a new one is new coupling to another module's internals.
PRIVATE_ALLOWED = {
    ("cartan", "minkowski", "_as_matrix"),
    ("models", "minkowski", "_as_matrix"),
    ("models", "minkowski", "_as_vector"),
    ("models", "minkowski", "_dots"),
    ("models", "projective", "_ray_angles"),
    ("projective", "minkowski", "_as_vector"),
    ("projective", "minkowski", "_dots"),
    ("projective", "stability", "_norms_diverge"),
    ("stability", "minkowski", "_dots"),
}
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported - used if (path.stem, name) not in ALLOWED)


def _private_imports(path: Path) -> set[tuple[str, str, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(path.stem, node.module, a.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
            for a in node.names if a.name.startswith("_")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_new_private_imports(path):
    assert _private_imports(path) - PRIVATE_ALLOWED == set()


def _inverse_cosine_calls(path: Path) -> list[int]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("arccos", "acos")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_inverse_cosine(path):
    # angles come from atan2 of a sine part and a cosine part
    # (`projective._ray_angles`, `Subspace.angle_to_vector`): the inverse
    # cosine of a near-unit cosine cannot resolve angles under 1e-8
    assert _inverse_cosine_calls(path) == []
