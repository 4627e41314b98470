"""Outside-in tracer for the benchmark's traced run.

`Tracer.install` replaces every public function of the package modules, the
`__post_init__` of their public classes and the `numpy.linalg` kernels with
a timing wrapper, at every module attribute that still holds the original
object.  A function is imported by name into several modules (`kak` into
`stability` and `cli`, `grassmann_distance` into `stability` and
`minkowski`, ...), and patching only its home module would let calls through
the other bindings bypass the span.  `uninstall` puts every original back.

Spans are kept in flat in-memory arrays (name, parent span, item, start,
end, time of direct children) and only recorded while an item is open, so
the reference checks of the benchmark do not show up.  Self time is the
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "lorentzdyn"
# The package modules, each one layer.
LAYERS = ("cli", "jsonio", "stability", "cartan", "minkowski", "projective",
          "models", "cocycles")
# numpy.linalg kernels (layer L0).  `numpy.linalg._linalg` holds the
# bindings numpy's own functions call, e.g. `norm(A, 2)` reaching `svd`.
KERNELS = ("svd", "eigh", "eigvalsh", "eig", "eigvals", "qr", "lstsq", "norm",
           "inv", "solve", "det", "slogdet", "matrix_power", "pinv", "matrix_rank",
           "cholesky")
KERNEL_MODULES = ("numpy.linalg", "numpy.linalg._linalg")


def _targets() -> list[tuple]:
    """(span name, [(holder, attribute)]) for every object to wrap."""
    named = {}  # id(original) -> (span name, original)
    bindings = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                named[id(obj)] = (f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                init = vars(obj)["__post_init__"]
                named[id(init)] = (f"{layer}.{attr}", init)
                bindings[id(init)] = [(obj, "__post_init__")]
    linalg = sys.modules["numpy.linalg"]
    for attr in KERNELS:
        obj = getattr(linalg, attr, None)
        if obj is not None:
            named[id(obj)] = (f"numpy.linalg.{attr}", obj)
    holders = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")
                                     or name in KERNEL_MODULES)]
    for mod in holders:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in named and named[id(obj)][1] is obj:
                bindings.setdefault(id(obj), []).append((mod, attr))
    return [(name, bindings.get(key, [])) for key, (name, _) in named.items()]


class Tracer:
    """Span recorder.  Use as `with tracer.installed(): ...` and open each
    benchmark item with `with tracer.item(item_id): ...`."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.outermost = array("b")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._item = -1
        self._patched: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, bindings in _targets():
            if not bindings:
                continue
            wrapper = self._wrap(name, getattr(*bindings[0]))
            for holder, attr in bindings:
                self._patched.append((holder, attr, getattr(holder, attr)))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def item(self, item_id: int):
        """Record spans under `item_id` while the block runs."""
        self._item = item_id
        try:
            yield
        finally:
            self._item = -1

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        stack, depth = self._stack, self._depth
        name_of, parent, item_of = self.name_of, self.parent, self.item_of
        start, end, child, outermost = self.start, self.end, self.child, self.outermost
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            item = self._item
            if item < 0:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            item_of.append(item)
            outermost.append(depth[nid] == 0)
            end.append(0.0)
            child.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t = clock()
                end[idx] = t
                depth[nid] -= 1
                stack.pop()
                p = parent[idx]
                if p >= 0:
                    child[p] += t - start[idx]

        return traced

    # -- results --------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays."""
        return {
            "name": np.array(self.name_of, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "item": np.array(self.item_of, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "child": np.array(self.child, dtype=np.float64),
            "outermost": np.array(self.outermost, dtype=bool),
        }

    def totals(self, items=None, scale=None) -> dict:
        """{span name: (calls, inclusive ms, self ms)} summed over the given
        item ids (all items when None), each item's times multiplied by
        `scale[item id]` when given.  Inclusive time counts only the
        outermost span of a name, so a function reached through itself is
        not counted twice."""
        a = self.arrays()
        mask = np.ones(len(a["name"]), bool) if items is None else np.isin(a["item"], list(items))
        names = a["name"][mask]
        factor = 1.0 if scale is None else np.asarray(scale, float)[a["item"][mask]]
        dur = (a["end"] - a["start"])[mask] * factor
        own = dur - a["child"][mask] * factor
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=np.where(a["outermost"][mask], dur, 0.0), minlength=k)
        self_t = np.bincount(names, weights=own, minlength=k)
        return {self.names[i]: (int(calls[i]), 1e3 * float(incl[i]), 1e3 * float(self_t[i]))
                for i in range(k)}

    def save(self, path):
        """Write every span and the name table as a compressed .npz."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
