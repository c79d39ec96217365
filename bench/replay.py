"""Traced in-process replay of CLI jobs.

The replay runs the CLI's own `main` in-process on the job's arguments. While
a replay is installed, each layer function on the CLI's path is replaced, in
every quiverlab module that binds it (or on its class, for a method), by a
wrapper that opens a span (name, start, end, parent, job id) around the call.
So a call one layer makes inside another, such as the `jacobson_radical` in
each `minimal_resolution` or the `spectral_radius` inside
`hereditary_entropy`, is timed where it happens, and the replay runs no code
path of its own. Its stdout bytes and exit status must equal the CLI child's,
which ties the per-layer numbers to the same computation.

This module imports quiverlab; `src` must be on sys.path first.
"""
from __future__ import annotations

import contextlib
import functools
import io
import os
import statistics
import sys
import time
from pathlib import Path

from quiverlab import builders, cli, cyclo, intpoly, quiver, ratmat, resolution
from quiverlab import scalgebra, serre, trivext


def _algebra_size(tracer: "Tracer", algebra) -> None:
    tracer.count("scalgebra.dim", algebra.dim)
    tracer.count("scalgebra.mult_entries", sum(len(row) for row in algebra.mult.values()))


def _trace_size(tracer: "Tracer", trace) -> None:
    tracer.count("resolution.simples", 1)
    tracer.count("resolution.betti_total", sum(trace.betti))
    tracer.count("resolution.steps_total", len(trace.betti))
    tracer.count("resolution.capped", int(trace.truncated_by == "dimension-cap"))


# span name -> (owner, attribute, hook on the result); an owner that is a class
# is patched in place, a module's function is patched wherever it is bound
LAYERS = {
    "cli.render": [(cli, "render_json", None)],
    "builders.build": [
        (builders, "path_algebra", None),
        (builders, "gentle_algebra", None),
        (builders, "canonical_algebra", _algebra_size),
    ],
    "scalgebra.verify": [(scalgebra.SCAlgebra, "verify", None)],
    "scalgebra.cartan": [(scalgebra, "cartan_matrix", None)],
    "trivext.extend": [(trivext, "trivial_extension", _algebra_size)],
    "resolution.radical": [(resolution, "jacobson_radical", None)],
    "resolution.simples": [(resolution, "simple_modules", None)],
    "resolution.resolve": [(resolution, "minimal_resolution", _trace_size)],
    "resolution.estimate": [
        (resolution, "complexity_estimate", None),
        (resolution, "combine_estimates", None),
    ],
    "quiver.classify": [(quiver, "classify_quiver", None)],
    "quiver.cartan": [(quiver, "cartan_path_algebra", None)],
    "quiver.coxeter": [(quiver, "coxeter_matrix", None)],
    "cyclo.char_poly": [(cyclo, "char_poly", None)],
    "cyclo.min_poly": [(cyclo, "min_poly", None)],
    "cyclo.profile": [(cyclo, "cyclotomic_profile", None)],
    "cyclo.spectral_radius": [(cyclo, "spectral_radius", None)],
    "intpoly.factor": [(intpoly, "cyclotomic_factorization", None)],
    "ratmat.inverse": [(ratmat.RatMatrix, "inverse", None)],
    "ratmat.power": [(ratmat.RatMatrix, "__pow__", None)],
    "serre.entropy": [(serre, "hereditary_entropy", None)],
    "serre.growth": [(serre, "growth_degree", None)],
    "serre.coxeter_check": [(serre, "coxeter_necessary_check", None)],
    "serre.canonical": [(serre, "canonical_verdict", None), (serre, "entropy_line", None)],
}
TIMED_SPANS = ("cli.startup", *LAYERS)
COUNTERS = (
    "scalgebra.dim", "scalgebra.mult_entries",
    "resolution.simples", "resolution.betti_total", "resolution.steps_total",
    "resolution.capped",
)


class Tracer:
    """Spans (name, start, end, parent index, job id) kept in memory, plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.job = ""
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else None, self.job])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children's."""
        totals: dict[str, float] = {}
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, children):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals


def pass_metrics(tracer: Tracer, cli_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    self_times = tracer.self_times()
    out: dict[str, float] = {f"{n}_s": self_times.get(n, 0.0) for n in TIMED_SPANS}
    out.update(tracer.counts)
    radical: dict[str, list[float]] = {}
    resolve_s = 0.0
    for name, start, end, _, job in tracer.spans:
        if name == "resolution.radical":
            radical.setdefault(job, []).append(end - start)
        elif name == "resolution.resolve":
            resolve_s += end - start
    # one jacobson_radical per job; each job runs it once per simple plus once more
    out["resolution.radical_s"] = sum(statistics.median(t) for t in radical.values())
    out["resolution.radical_total_s"] = sum(sum(t) for t in radical.values())
    # minimal_resolution with the radical and matrix calls it makes; engine_s is the rest
    out["resolution.engine_s"] = out["resolution.resolve_s"]
    out["resolution.resolve_s"] = resolve_s
    traced_pass = sum(end - start for _, start, end, parent, _ in tracer.spans
                      if parent is None)
    out["trace.overhead_s"] = traced_pass - cli_wall_s
    return out


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook is not None:
            hook(tracer, result)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every layer function of LAYERS to record spans on `tracer`."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "quiverlab" or n.startswith("quiverlab.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for name, targets in LAYERS.items():
            for owner, attr, hook in targets:
                fn = getattr(owner, attr)
                wrapped = _wrap(tracer, name, fn, hook)
                if isinstance(owner, type):
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            undo.append((module, key, fn))
                            setattr(module, key, wrapped)
        yield
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)


def _clear_caches() -> None:
    """Empty quiverlab's memo tables, so a replay starts as cold as a child."""
    for name, module in list(sys.modules.items()):
        if name == "quiverlab" or name.startswith("quiverlab."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def run(tracer: Tracer, argv: list[str], directory: Path) -> tuple[int, bytes, str]:
    """Run `quiverlab <argv>` in-process from `directory`, traced on `tracer`.

    Returns the exit status, the stdout bytes and the stderr text, as a
    child would leave them.
    """
    _clear_caches()
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(directory)
    try:
        with installed(tracer), tracer.span("job"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            status = cli.main(argv)
    finally:
        os.chdir(here)
    return status, out.getvalue().encode("utf-8"), err.getvalue()
