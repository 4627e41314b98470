"""Seeded benchmark of lorentzdyn: one command, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One process with one client runs the workload's item
pool closed-loop, round after round, for S seconds, checks every output
against its analytic reference, prints one line per metric and then one
JSON object as the last line of standard output.

Times are wall times scaled to the nominal speed of a fixed reference
kernel that is timed between items (see `calibrate.py`); the raw wall
times are printed next to them.

With `--trace 0` the JSON holds the end-to-end metrics.  With `--trace 1`
the run spends half of S untraced and half with every package function and
`numpy.linalg` kernel wrapped (see `tracer.py`); the JSON holds the
per-layer metrics, per traced item, and the tracing overhead, and the spans
and a per-kind table are written to `bench/_work/`.

Only numpy and the standard library are needed.  The BLAS thread variables
are set to 1 for this process only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up (inputs, files, warm-up) is repeated and its median reported.
SETUP_REPEATS = 3

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# `<span>.<field>` per traced item, field one of calls, ms (inclusive) and
# self_ms (inclusive minus traced children).
SPAN_METRICS = (
    "minkowski.grassmann_distance.calls",
    "minkowski.grassmann_distance.self_ms",
    "stability.as_subspace_kak.ms",
    "stability.as_subspace_kak.self_ms",
    "stability.as_subspace_ellipsoid.ms",
    "stability.as_subspace_ellipsoid.self_ms",
    "stability.as_subspace_graph.ms",
    "stability.as_subspace_graph.self_ms",
    "stability.spas_subspace.ms",
    "numpy.linalg.lstsq.calls",
    "cartan.kak.calls",
    "cartan.norm_growth.calls",
    "numpy.linalg.svd.calls",
    "stability.MatrixSequence.ms",
    "stability.is_divergent.ms",
    "stability.lorentz_as_check.ms",
    "stability.brute_force_as.ms",
    "stability.brute_force_as.self_ms",
    "numpy.linalg.eigh.calls",
    "numpy.linalg.qr.calls",
    "projective.limit_set.ms",
    "projective.north_south_certificate.ms",
    "projective.hyperbolic_orbit_limit.ms",
    "models.integer_isometries.ms",
    "cocycles.entropy_dichotomy.ms",
    "cli.main.self_ms",
    "jsonio.load_sequence.ms",
    "jsonio.load_form.ms",
    "jsonio.dumps.ms",
)
# `<item kind>.<span>.<field>`: one item kind's own mean, for counts that
# later changes cite.
KIND_METRICS = (
    "chaos40.cartan.kak.calls",
    "fundamental200.minkowski.grassmann_distance.calls",
)
LAYERS = ("cli", "jsonio", "stability", "cartan", "minkowski", "projective",
          "models", "cocycles", "numpy.linalg")
FIELD_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms"}
PER_LAYER = {
    **{m: FIELD_UNITS[m.rsplit(".", 1)[1]] for m in SPAN_METRICS},
    "projective.limit_set.divergent_frac": "ratio",
    **{m: FIELD_UNITS[m.rsplit(".", 1)[1]] for m in KIND_METRICS},
    **{f"layer.{layer}.self_ms": "ms" for layer in LAYERS},
    "item.ms": "ms",
    "trace.items_per_s_delta": "1/s",
    "trace.overhead_frac": "ratio",
}


def import_package():
    """Import lorentzdyn from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lorentzdyn
    import lorentzdyn.cli
    if not Path(lorentzdyn.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"lorentzdyn imported from {lorentzdyn.__file__}, not {src}")
    return lorentzdyn


def machine() -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Loop:
    """Closed loop over an item pool: one item at a time, whole rounds.

    Each item's wall time is kept raw and scaled to the reference kernel's
    nominal speed, with the kernel timed before and after the item.
    """

    def __init__(self, items, tracer=None):
        self.items = items
        self.tracer = tracer
        self.raw: list[float] = []
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.rounds: list[float] = []
        self.raw_rounds: list[float] = []
        self.failures: list[str] = []
        self.errors: list[float] = []
        self.divergent = [0, 0]

    def run_item(self, item, item_id: int) -> float:
        """Time one item, then check it; returns the raw wall seconds."""
        started = time.perf_counter()
        try:
            if self.tracer is None:
                out = item.run()
            else:
                with self.tracer.item(item_id):
                    out = item.run()
        except Exception:
            elapsed = time.perf_counter() - started
            self.failures.append(f"{item.kind}: raised "
                                 f"{traceback.format_exc(limit=-1).strip().splitlines()[-1]}")
            return elapsed
        elapsed = time.perf_counter() - started
        try:
            err = item.check(out)
        except Exception as exc:
            self.failures.append(f"{item.kind}: {type(exc).__name__}: {exc}")
            return elapsed
        if err is not None:
            self.errors.append(err)
        if hasattr(out, "divergent_words"):
            self.divergent[0] += out.divergent_words
            self.divergent[1] += out.words_sampled
        return elapsed

    def run(self, seconds: float):
        from calibrate import NOMINAL_S, kernel_seconds
        deadline = time.perf_counter() + seconds
        before = kernel_seconds()
        while not self.rounds or time.perf_counter() < deadline:
            total = raw_total = 0.0
            for item in self.items:
                elapsed = self.run_item(item, len(self.latencies))
                after = kernel_seconds()
                scaled = elapsed * NOMINAL_S / (0.5 * (before + after))
                before = after
                self.raw.append(elapsed)
                self.latencies.append(scaled)
                self.kinds.append(item.kind)
                total += scaled
                raw_total += elapsed
            self.rounds.append(total)
            self.raw_rounds.append(raw_total)
        return self

    @property
    def items_per_s(self) -> float:
        return len(self.items) / statistics.median(self.rounds)

    @property
    def raw_items_per_s(self) -> float:
        return len(self.items) / statistics.median(self.raw_rounds)


def percentile_ms(values, q: int) -> float:
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup(workload, ld, seed: int, import_s: float):
    """Build the item pool (inputs and files) and warm up one item of each
    kind, SETUP_REPEATS times.  Returns (items, workdir, warm-up failures,
    scaled seconds, raw seconds); the seconds are the import plus the
    median build and warm-up."""
    from calibrate import NOMINAL_S, kernel_seconds
    scaled, raw = [], []
    workdir = None
    before = kernel_seconds()
    import_scaled = import_s * NOMINAL_S / before
    for _ in range(SETUP_REPEATS):
        if workdir is not None:
            shutil.rmtree(workdir)
        started = time.perf_counter()
        workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
        items = workload.build(ld, seed, workdir)
        warm = Loop(list({it.kind: it for it in reversed(items)}.values()))
        for item in warm.items:
            warm.run_item(item, 0)
        raw.append(time.perf_counter() - started)
        after = kernel_seconds()
        scaled.append(raw[-1] * NOMINAL_S / (0.5 * (before + after)))
        before = after
    return (items, workdir, warm.failures, import_scaled + statistics.median(scaled),
            import_s + statistics.median(raw))


def report_end_to_end(name, loop, setup_s, raw_setup_s) -> dict:
    values = {
        "items_per_s": loop.items_per_s,
        "item_p50_ms": 1e3 * statistics.median(loop.latencies),
        "item_p90_ms": percentile_ms(loop.latencies, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "items_per_s": loop.raw_items_per_s,
        "item_p50_ms": 1e3 * statistics.median(loop.raw),
        "item_p90_ms": percentile_ms(loop.raw, 90),
        "setup_s": raw_setup_s,
    }
    print(f"workload {name}: {len(loop.latencies)} items in {len(loop.rounds)} rounds "
          f"of {len(loop.items)}, closed loop, one client; times at the reference "
          f"kernel's nominal speed [raw wall time]")
    beyond = sum(1 for x in loop.latencies if 1e3 * x > values["item_p90_ms"])
    for metric, unit in END_TO_END.items():
        note = f" [raw {raw[metric]:.6g}]" if metric in raw else ""
        if metric == "item_p90_ms":
            note += f" ({beyond} samples above it)"
        print(f"  {metric:<14} {values[metric]:.6g} {unit}{note}")
    return values


def report_quality(loops) -> tuple[int, list[str]]:
    """Print fail_frac, answer_err_max and each failure; return (attempted,
    failures) over all the loops."""
    attempted = sum(len(lp.latencies) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    errors = [e for lp in loops for e in lp.errors]
    print(f"  {'fail_frac':<14} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)}/{attempted})")
    if errors:
        print(f"  {'answer_err_max':<14} {max(errors):.3e} sin "
              f"(over {len(errors)} checked items)")
    for line in sorted(set(failures)):
        print(f"  FAILED {line} (x{failures.count(line)})")
    return attempted, failures


def trace_metrics(tracer, loop, untraced) -> tuple[dict, dict]:
    """Per-layer metrics per traced item, and the per-kind table."""
    scale = [s / r if r > 0 else 1.0 for s, r in zip(loop.latencies, loop.raw)]
    field = {"calls": 0, "ms": 1, "self_ms": 2}

    def per_item(ids):
        return {span: dict(zip(field, (v / len(ids) for v in row)))
                for span, row in tracer.totals(ids, scale).items() if row[0]}

    overall = per_item(range(len(loop.latencies)))
    by_kind = {}
    for kind in dict.fromkeys(loop.kinds):
        ids = [i for i, k in enumerate(loop.kinds) if k == kind]
        by_kind[kind] = {"items": len(ids), "per_item": per_item(ids)}

    def lookup(table, metric):
        span, f = metric.rsplit(".", 1)
        return table.get(span, {}).get(f, 0.0)

    values = {m: lookup(overall, m) for m in SPAN_METRICS}
    divergent, sampled = loop.divergent
    values["projective.limit_set.divergent_frac"] = divergent / sampled if sampled else 0.0
    for m in KIND_METRICS:
        kind, rest = m.split(".", 1)
        values[m] = lookup(by_kind.get(kind, {}).get("per_item", {}), rest)
    for layer in LAYERS:
        values[f"layer.{layer}.self_ms"] = sum(
            row["self_ms"] for span, row in overall.items() if span.rsplit(".", 1)[0] == layer)
    values["item.ms"] = 1e3 * statistics.mean(loop.latencies)
    values["trace.items_per_s_delta"] = untraced.items_per_s - loop.items_per_s
    values["trace.overhead_frac"] = 1.0 - loop.items_per_s / untraced.items_per_s
    return values, by_kind


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"

    started = time.perf_counter()
    try:
        ld = import_package()
    except ImportError as exc:
        print(f"error: cannot import lorentzdyn from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)

    items, workdir, warm_failures, setup_s, raw_setup_s = setup(
        workload, ld, args.seed, import_s)
    try:
        print(f"machine: {json.dumps(machine(), sort_keys=True)}")
        for line in warm_failures:
            print(f"  FAILED in warm-up {line}")
        if not args.trace:
            loop = Loop(items).run(args.seconds)
            loops = [loop]
            metrics = report_end_to_end(workload.name, loop, setup_s, raw_setup_s)
            units = END_TO_END
        else:
            from tracer import Tracer
            untraced = Loop(items).run(args.seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                loop = Loop(items, tracer).run(args.seconds / 2)
            loops = [untraced, loop]
            metrics, by_kind = trace_metrics(tracer, loop, untraced)
            units = PER_LAYER
            print(f"workload {workload.name}: traced {len(loop.latencies)} items, "
                  f"{len(tracer.start)} spans; untraced {len(untraced.latencies)} items")
            for m, unit in units.items():
                print(f"  {m:<52} {metrics[m]:.6g} {unit}")
            stem = WORK / f"trace-{workload.name}-seed{args.seed}"
            tracer.save(f"{stem}.npz")
            with open(f"{stem}.json", "w", encoding="utf-8") as fh:
                json.dump({"workload": workload.name, "seed": args.seed,
                           "machine": machine(), "metrics": metrics,
                           "per_kind": by_kind}, fh, indent=1, sort_keys=True)
            print(f"  spans and per-kind table: {stem}.npz, {stem}.json")
        attempted, failures = report_quality(loops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not failures and not warm_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
