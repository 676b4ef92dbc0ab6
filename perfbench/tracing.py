"""Traced in-process runs: spans around specwave's public functions.

The wrappers live here, not in specwave. Each target function is replaced at
every specwave module that binds it (specwave.cli.solve_nonlocal as well as
specwave.timeavg.solve_nonlocal and the package re-export), and methods are
replaced on their class, so every call path records the same span name
`<module>.<function>`. A target that no longer exists is reported as absent
instead of failing the run.

Spans (name, start, end, parent, invocation, work) are kept in memory and
written out when the run ends. A span's self time is its duration minus the
durations of its direct child spans. Work counts are computed from the call's
arguments before it runs: elements = N * len(t) for mode evaluations, modes
for z_diagnostic, rows for eigenfunction_matrix, nodes for nodes_weights.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

TARGETS = (
    ("cli", "main"),
    ("cli", "cmd_denominators"),
    ("cli", "cmd_solve"),
    ("cli", "cmd_cauchy"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_paper_table"),
    ("cli", "cmd_project"),
    ("cli", "write_csv"),
    ("cli", "write_field_csv"),
    ("config", "resolve_data"),
    ("basis", "project"),
    ("basis", "eigenfunction_matrix"),
    ("quadrature", "GaussLegendre.nodes_weights"),
    ("phase", "phi"),
    ("phase", "z_diagnostic"),
    ("cauchy", "solve_cauchy"),
    ("timeavg", "solve_nonlocal"),
    ("timeavg", "coefficient_bound_check"),
    ("timeavg", "stability_report"),
    ("solution", "SeriesSolution.mode_values"),
    ("solution", "SeriesSolution.mode_derivatives"),
    ("solution", "SeriesSolution.field"),
    ("solution", "SeriesSolution.norm_trajectory"),
    ("solution", "SeriesSolution.sup_norm"),
    ("verification", "initial_condition_relative"),
    ("verification", "relative_integral_residual"),
    ("verification", "integral_condition_residual"),
    ("verification", "real_system_residuals"),
    ("verification", "roundtrip_check"),
    ("verification", "mode_energy_drift"),
    ("verification", "energy_estimate_margin"),
)


WORK = {
    "solution.mode_values": lambda self, t, *a, **k: len(self) * int(np.size(t)),
    "solution.mode_derivatives": lambda self, t, *a, **k: len(self) * int(np.size(t)),
    "phase.z_diagnostic": lambda m, *a, **k: int(m),
    "basis.eigenfunction_matrix": lambda spectrum, n_modes, *a, **k: int(n_modes),
    "quadrature.nodes_weights": lambda self, *a, **k: self.panels * self.order,
}
WORK_QUANTITIES = {"elements", "modes", "rows", "nodes"}  # metric names for a span's work count
WRITERS = {"cli.write_csv"}

# mode evaluations made by these checks build the N x (time nodes) moment matrix
MOMENT_BUILDERS = {"verification.integral_condition_residual", "verification.real_system_residuals"}
COMPLEX_BYTES = 16

# (name, unit, which end-to-end metric it should move, on which workloads)
LAYER_METRICS = (
    ("verification.integral_condition_residual.total_s", "s", "wall_s on solve-large; none on omega-study"),
    ("verification.real_system_residuals.total_s", "s", "wall_s on solve-large; none on omega-study"),
    ("verification.roundtrip_check.total_s", "s", "wall_s on solve-large; none on omega-study"),
    ("verification.integral_condition_residual.peak_mib", "MiB", "peak_rss_mib on solve-large; none on omega-study"),
    ("verification.real_system_residuals.peak_mib", "MiB", "peak_rss_mib on solve-large; none on omega-study"),
    ("verification.roundtrip_check.peak_mib", "MiB", "peak_rss_mib on solve-large; none on omega-study"),
    ("verification.moment_bytes", "bytes", "peak_rss_mib on solve-large; none on omega-study"),
    ("solution.mode_values.self_s", "s", "wall_s on solve-large and omega-study"),
    ("solution.mode_values.calls", "count", "wall_s on solve-large and omega-study"),
    ("solution.mode_values.elements", "count", "wall_s on solve-large and omega-study"),
    ("solution.mode_derivatives.self_s", "s", "wall_s on solve-large and omega-study"),
    ("solution.mode_derivatives.elements", "count", "wall_s on solve-large and omega-study"),
    ("solution.field.self_s", "s", "wall_s on solve-large and omega-study"),
    ("solution.norm_trajectory.self_s", "s", "wall_s on solve-large and omega-study"),
    ("phase.z_diagnostic.self_s", "s", "wall_s on omega-study"),
    ("phase.z_diagnostic.modes", "count", "wall_s on omega-study"),
    ("phase.phi.self_s", "s", "wall_s on omega-study"),
    ("phase.phi.calls", "count", "wall_s on omega-study"),
    ("timeavg.stability_report.self_s", "s", "wall_s on omega-study and solve-large"),
    ("timeavg.coefficient_bound_check.self_s", "s", "wall_s on omega-study and solve-large"),
    ("timeavg.solve_nonlocal.self_s", "s", "none end to end (under 1 ms); omega-study and solve-large"),
    ("cauchy.solve_cauchy.self_s", "s", "wall_s on small-runs"),
    ("cauchy.solve_cauchy.calls", "count", "wall_s on small-runs"),
    ("verification.mode_energy_drift.total_s", "s", "wall_s on small-runs"),
    ("verification.energy_estimate_margin.total_s", "s", "wall_s on small-runs"),
    ("config.resolve_data.self_s", "s", "wall_s on small-runs and solve-large"),
    ("basis.project.total_s", "s", "wall_s on small-runs and solve-large"),
    ("basis.eigenfunction_matrix.self_s", "s", "wall_s on small-runs and solve-large"),
    ("basis.eigenfunction_matrix.rows", "count", "wall_s on small-runs and solve-large"),
    ("quadrature.nodes_weights.nodes", "count", "peak_rss_mib on solve-large"),
    ("cli.write_csv.self_s", "s", "wall_s on small-runs and omega-study"),
    ("cli.write_csv.bytes", "bytes", "wall_s on small-runs and omega-study"),
    ("cli.write_csv.cells", "count", "wall_s on small-runs and omega-study"),
    ("trace.overhead_s", "s", "none: traced minus untraced wall per invocation"),
)


class Tracer:
    """Collects spans in memory; with `memory`, also each span's tracemalloc peak."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.invocation = 0

    def wrap(self, name: str, fn):
        work_of = WORK.get(name)
        writes = name in WRITERS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = None
            if work_of is not None:
                try:
                    work = work_of(*args, **kwargs)
                except (TypeError, AttributeError, ValueError):
                    work = None
            index = tracer._enter(name, work, str(args[0]) if writes and args else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(index)

        return traced

    def _enter(self, name, work, path) -> int:
        span = {"name": name, "parent": self.stack[-1] if self.stack else None,
                "invocation": self.invocation, "work": work}
        if path is not None:
            span["path"] = path
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                parent = self.spans[self.stack[-1]]
                parent["_max"] = max(parent["_max"], peak)
            tracemalloc.reset_peak()
            span["_base"] = span["_max"] = current
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span["start"] = time.perf_counter()
        return len(self.spans) - 1

    def _exit(self, index: int):
        end = time.perf_counter()
        span = self.spans[index]
        span["end"] = end
        self.stack.pop()
        if self.memory:
            top = max(span.pop("_max"), tracemalloc.get_traced_memory()[1])
            span["peak_bytes"] = top - span.pop("_base")
            if self.stack:
                parent = self.spans[self.stack[-1]]
                parent["_max"] = max(parent["_max"], top)


def install(tracer: Tracer):
    """Wrap every target; returns (patches to undo, names of absent targets)."""
    patches, absent = [], []
    for module_name, qualname in TARGETS:
        owner_name, _, attr = qualname.rpartition(".")
        name = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(f"specwave.{module_name}")
        except ImportError:
            absent.append(name)
            continue
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            absent.append(name)
            continue
        wrapper = tracer.wrap(name, original)
        if owner_name:
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in [m for key, m in sys.modules.items() if key == "specwave" or key.startswith("specwave.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patches, absent


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def run_main(argv) -> tuple[int, str, float, str]:
    """specwave.cli.main(argv) in this process: (exit code, stdout, wall, error)."""
    cli = importlib.import_module("specwave.cli")
    out = io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark keeps going and counts the invocation as failed
        code, error = -1, traceback.format_exc()
    wall = time.perf_counter() - start
    return int(code or 0), out.getvalue(), wall, error


def record_writes(spans, invocation: int):
    """Bytes and data cells of every CSV the invocation wrote (read after it ended)."""
    for span in spans:
        if span["invocation"] != invocation or "path" not in span:
            continue
        data = Path(span["path"]).read_bytes()
        header_end = data.find(b"\n")
        columns = data[:header_end].count(b",") + 1
        span["bytes"] = len(data)
        span["cells"] = (data.count(b"\n") - 1) * columns


def aggregate(spans) -> tuple[dict, dict]:
    """(times, counts) summed over spans: times by '<span>.total_s' / '.self_s',
    counts by '<span>.calls' / '.work' plus write bytes/cells and moment bytes."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    times: dict = defaultdict(float)
    counts: Counter = Counter()
    for i, span in enumerate(spans):
        name, duration = span["name"], span["end"] - span["start"]
        times[f"{name}.total_s"] += duration
        times[f"{name}.self_s"] += duration - child[i]
        counts[f"{name}.calls"] += 1
        if span["work"] is not None:
            counts[f"{name}.work"] += int(span["work"])
        for key in ("bytes", "cells"):
            if key in span:
                counts[f"{name}.{key}"] += span[key]
        parent = span["parent"]
        if name == "solution.mode_values" and parent is not None and spans[parent]["name"] in MOMENT_BUILDERS:
            counts["verification.moment_bytes"] += COMPLEX_BYTES * int(span["work"] or 0)
    return dict(times), dict(counts)


def peaks(spans) -> dict:
    """Largest tracemalloc peak per span name, in MiB."""
    out: dict = defaultdict(float)
    for span in spans:
        out[span["name"]] = max(out[span["name"]], span.get("peak_bytes", 0) / 2**20)
    return dict(out)



def layer_metrics(rounds, memory_peaks: dict, overheads) -> dict:
    """Per-layer metric values: medians over rounds for times, round counts for counts."""
    values = {}
    for name, *_ in LAYER_METRICS:
        if name == "trace.overhead_s":
            values[name] = statistics.median(overheads)
            continue
        span, quantity = name.rsplit(".", 1)
        if quantity in ("total_s", "self_s"):
            values[name] = statistics.median(times.get(name, 0.0) for times, _ in rounds)
        elif quantity == "peak_mib":
            values[name] = memory_peaks.get(span, 0.0)
        else:
            key = f"{span}.work" if quantity in WORK_QUANTITIES else name
            values[name] = rounds[0][1].get(key, 0)
    return values


def share(spans, prefixes) -> float:
    """Share of the invocations' traced time spent in spans of the given modules,
    counting each outermost such span once."""
    root = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)

    def inside(span):
        return span["name"].split(".", 1)[0] in prefixes

    covered = 0.0
    for span in spans:
        if not inside(span):
            continue
        parent = span["parent"]
        while parent is not None and not inside(spans[parent]):
            parent = spans[parent]["parent"]
        if parent is None:
            covered += span["end"] - span["start"]
    return covered / root if root > 0 else 0.0
