"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``install`` replaces public
names that the CLI and ``divbands.howard`` call with wrappers that time
the call and derive counts from its arguments and result, and ``restore``
puts the originals back.  A name that does not exist is skipped and
reported as absent, so its spans (and the metrics built on them) are
missing rather than the run crashing.

Spans carry name, start, end, parent span and job id; counts ride on the
span that produced them.  Everything stays in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


def _exp_cells(args, kwargs, result):
    config = args[0]
    return {"depth_steps": config.depth,
            "cells": config.depth * (config.x_max + 1)}


def _improve_cells(args, kwargs, result):
    config = args[0]
    return {"cells": config.depth * (config.x_max + 1)}


def _power_cells(args, kwargs, result):
    config = args[0]
    points = len(result[0].grid.points)
    return {"depth_steps": config.depth,
            "cells": config.depth * (config.x_max + 1) * points}


def _sim_steps(args, kwargs, result):
    from divbands import simulate

    batch = getattr(simulate, "BATCH", 1 << 14)
    times = result.ruin_times
    capacity = 0
    for b in range(0, len(times), batch):
        chunk = times[b:b + batch]
        capacity += len(chunk) * int(chunk.max())
    return {"path_steps": int(times.sum()), "batch_steps": capacity}


# (module, attribute, span name, counts from (args, kwargs, result))
TARGETS = (
    ("divbands.cli", "load_config", "cli.load_config", None),
    ("divbands.model", "ProblemConfig.__post_init__", "model.validate", None),
    ("divbands.exp_solver", "ThetaSchedule.build", "exp_solver.schedule", None),
    ("divbands.cli", "solve_exp", "exp_solver.solve", _exp_cells),
    ("divbands.cli", "extract_bands", "exp_solver.bands", None),
    ("divbands.cli", "solve_neutral", "exp_solver.neutral",
     lambda a, k, r: {"iterations": r.iterations}),
    ("divbands.cli", "howard_solve", "howard.solve",
     lambda a, k, r: {"iterations": r.iterations}),
    ("divbands.howard", "policy_value_exp", "howard.evaluate", None),
    ("divbands.howard", "improve", "howard.improve", _improve_cells),
    ("divbands.power_solver", "SGrid.build", "power_solver.grid",
     lambda a, k, r: {"points": len(r.points)}),
    ("divbands.cli", "solve_power", "power_solver.solve", _power_cells),
    ("divbands.cli", "solve_log", "power_solver.solve", _power_cells),
    ("divbands.cli", "barrier_diagnostics", "power_solver.diagnostics",
     lambda a, k, r: {"shift_pairs_checked": r.shift_pairs_checked}),
    ("divbands.cli", "exact_optimal", "oracle.solve",
     lambda a, k, r: {"states": len(r[1].decisions)}),
    ("divbands.cli", "simulate_paths", "simulate.solve", _sim_steps),
)


@dataclass
class Span:
    sid: int
    name: str
    job: str | None
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans plus the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self._job, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: str):
        """Root span ``cli.main`` for one job execution."""
        self._job = job_id
        span = self._open("cli.main")
        try:
            yield span
        finally:
            self._close(span)
            self._job = None

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                try:
                    span.counts.update(count(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    span.counts["count_error"] = repr(exc)
            return result
        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; remember the absent ones."""
        self.absent = []
        for module_name, attr_path, name, count in TARGETS:
            owner, attr = self._resolve(module_name, attr_path)
            if owner is None:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(raw.__func__, name, count))
            else:
                patched = self._wrap(raw, name, count)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @staticmethod
    def _resolve(module_name: str, attr_path: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if attr not in vars(owner):
            return None, None
        return owner, attr

    # -- reading ------------------------------------------------------------

    def self_seconds(self) -> dict[int, float]:
        """Span duration minus the durations of its direct children."""
        own = {s.sid: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def totals(self, spans: list[Span]) -> dict[str, float]:
        """Per span name: total seconds, self seconds, calls and counts."""
        own = self.self_seconds()
        out: dict[str, float] = {}
        for s in spans:
            for key, value in ((f"{s.name}.s", s.seconds),
                               (f"{s.name}.self_s", own[s.sid]),
                               (f"{s.name}.calls", 1)):
                out[key] = out.get(key, 0) + value
            for k, v in s.counts.items():
                if isinstance(v, (int, float)):
                    out[f"{s.name}.{k}"] = out.get(f"{s.name}.{k}", 0) + v
        return out

    def write_jsonl(self, path: Path, header: dict) -> None:
        own = self.self_seconds()
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header, "absent": self.absent}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "job": s.job, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": own[s.sid],
                    "counts": s.counts,
                }) + "\n")


def layer_metrics(t: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from summed span totals (absent spans read 0)."""
    def g(key):
        return float(t.get(key, 0.0))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    return {
        "cli.load_config_s": (g("cli.load_config.s"), "s"),
        "cli.emit_s": (g("cli.main.self_s"), "s"),
        "cli.out_bytes": (g("cli.main.out_bytes"), "bytes"),
        "cli.emit_mb_per_s": (rate(g("cli.main.out_bytes") / 1e6, g("cli.main.self_s")), "MB/s"),
        "model.validate_s": (g("model.validate.s"), "s"),
        "model.validations": (g("model.validate.calls"), "count"),
        "exp_solver.schedule_builds": (g("exp_solver.schedule.calls"), "count"),
        "exp_solver.schedule_s": (g("exp_solver.schedule.s"), "s"),
        "exp_solver.solve_s": (g("exp_solver.solve.s"), "s"),
        "exp_solver.depth_steps": (g("exp_solver.solve.depth_steps"), "count"),
        "exp_solver.cells_per_s": (rate(g("exp_solver.solve.cells"), g("exp_solver.solve.s")), "1/s"),
        "exp_solver.bands_s": (g("exp_solver.bands.s"), "s"),
        "exp_solver.neutral_s": (g("exp_solver.neutral.s"), "s"),
        "exp_solver.neutral_iterations": (g("exp_solver.neutral.iterations"), "count"),
        "howard.solve_s": (g("howard.solve.s"), "s"),
        "howard.iterations": (g("howard.solve.iterations"), "count"),
        "howard.evaluate_s": (g("howard.evaluate.s"), "s"),
        "howard.improve_s": (g("howard.improve.s"), "s"),
        "howard.improve_cells_per_s": (rate(g("howard.improve.cells"), g("howard.improve.s")), "1/s"),
        "power_solver.solve_s": (g("power_solver.solve.s"), "s"),
        "power_solver.grid_s": (g("power_solver.grid.s"), "s"),
        "power_solver.grid_points": (g("power_solver.grid.points"), "count"),
        "power_solver.depth_steps": (g("power_solver.solve.depth_steps"), "count"),
        "power_solver.cells_per_s": (rate(g("power_solver.solve.cells"), g("power_solver.solve.s")), "1/s"),
        "power_solver.diagnostics_s": (g("power_solver.diagnostics.s"), "s"),
        "power_solver.shift_pairs_checked": (g("power_solver.diagnostics.shift_pairs_checked"), "count"),
        "oracle.solve_s": (g("oracle.solve.s"), "s"),
        "oracle.states": (g("oracle.solve.states"), "count"),
        "oracle.states_per_s": (rate(g("oracle.solve.states"), g("oracle.solve.s")), "1/s"),
        "simulate.solve_s": (g("simulate.solve.s"), "s"),
        "simulate.path_steps": (g("simulate.solve.path_steps"), "count"),
        "simulate.path_steps_per_s": (rate(g("simulate.solve.path_steps"), g("simulate.solve.s")), "1/s"),
        "simulate.live_step_ratio": (rate(g("simulate.solve.path_steps"), g("simulate.solve.batch_steps")), "ratio"),
    }
