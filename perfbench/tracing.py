"""Outside-in span tracing of the ctwalk layers.

Spans are recorded by wrappers that the benchmark installs over each
layer's public functions, from outside the package: every binding of a
traced function in every ``ctwalk.*`` module namespace is swapped for a
wrapper, and each module's ``np`` is swapped for a proxy whose
``linalg.eigh`` is wrapped. Nothing under ``src/`` is modified, and the
original bindings come back when the ``installed`` context exits.

A span holds its name, start, end, parent span, the case id of the
command that caused it, a few attributes read off the call's arguments
or result, and, for the spans a tracer measures memory on, the call's
tracemalloc peak.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
import types
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy

MB = float(1 << 20)


def _series_evals(modes_arg: str, targets_arg: str | None) -> Callable:
    """Annotator for series evaluators: modes x points x targets exponentials."""

    def annotate(bound: inspect.BoundArguments, result: Any) -> dict:
        a = bound.arguments
        m = a[modes_arg]
        modes = m.n if hasattr(m, "n") else m.shape[0]
        targets = len(a[targets_arg]) if targets_arg else modes
        return {"exp_evals": modes * a["grid"].n * targets}

    return annotate


def _grid_points(bound: inspect.BoundArguments, result: Any) -> dict:
    return {"points": bound.arguments["grid"].n}


def _written(rows: Callable[[dict], int]) -> Callable:
    def annotate(bound: inspect.BoundArguments, result: Any) -> dict:
        a = bound.arguments
        return {"rows": rows(a), "bytes": os.path.getsize(a["path"])}

    return annotate


# layer -> {public function: annotator or None}; the annotator maps the bound
# arguments and the return value to span attributes
TRACED: dict[str, dict[str, Callable | None]] = {
    "cli": {"main": None},
    "experiments": {
        "run_pipeline": lambda b, r: {"residual": r[0].reconstruction_error},
        "run_case": None,
        "cached_run_case": None,
        "sweep": None,
        "speedup_fit": None,
        "entropy_study": None,
    },
    "graphs": {
        "build_side_chain_graph": None,
        "attach_sticky_vertex": None,
        "dress_with_ring": None,
    },
    "classical": {
        "vertex_occupations": _series_evals("rm", "targets"),
        "evolve_master": _series_evals("rm", None),
        "survival_horizon": None,
    },
    "quantum": {
        "transition_probabilities": _series_evals("h", "targets"),
        "evolve_schrodinger": _series_evals("h", None),
    },
    "first_passage": {
        "deconvolve": _grid_points,
        "reconstruct": None,
        "detect_tau0": None,
        "mean_fpt": None,
        "extract_first_passage": None,
    },
    "open_quantum": {
        "evolve_lindblad": _grid_points,
        "sticky_first_passage": None,
        "ring_first_passage": None,
        "complement_flux": None,
        "overlay_l2_error": None,
    },
    "gillespie": {
        "gillespie_first_passage": lambda b, r: {"n_traj": b.arguments["n_traj"]},
        "histogram_density_l1": lambda b, r: {"l1": r},
    },
    "coherence": {
        "entropy_series": lambda b, r: {"points": len(r)},
        "average_entropy": None,
    },
    "io": {
        "write_columns_csv": _written(lambda a: len(a["columns"][0])),
        "write_probability_series_csv": _written(lambda a: a["series"].values.shape[0]),
        "write_amplitude_series_csv": _written(lambda a: a["series"].values.shape[0]),
        "write_occupation_csv": _written(lambda a: a["series"].values.shape[0]),
        "write_json": _written(lambda a: 1),
        "write_jsonl": _written(lambda a: len(a["rows"])),
    },
}

EIGH = "spectral.eigh"
PEAKS = frozenset({"first_passage.deconvolve", "open_quantum.evolve_lindblad"})


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    case: str = ""
    attrs: dict = field(default_factory=dict)
    peak_mb: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans are written out only by ``dump``.

    Spans named in ``peaks`` also record their own tracemalloc peak: the
    tracer starts tracemalloc on entering such a span and stops it on
    leaving, so the peak counts only memory the call itself allocated.
    Tracing allocations slows code that makes many small arrays, so
    timings come from a pass with ``peaks`` empty.
    """

    def __init__(self, peaks: frozenset[str] = frozenset()) -> None:
        self.spans: list[Span] = []
        self.case = ""
        self.peaks = peaks
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, annotate: Callable | None = None) -> Callable:
        sig = inspect.signature(fn) if annotate else None
        measure = name in self.peaks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None,
                        case=self.case)
            self.spans.append(span)
            self._stack.append(idx)
            if measure:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if measure:
                    span.peak_mb = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
            if annotate is not None:
                span.attrs.update(annotate(sig.bind(*args, **kwargs), result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Rebind the traced functions and ``np.linalg.eigh`` inside ctwalk."""
        wrappers: dict[int, Callable] = {}
        for layer, funcs in TRACED.items():
            mod = importlib.import_module(f"ctwalk.{layer}")
            for fname, annotate in funcs.items():
                fn = getattr(mod, fname)
                wrappers[id(fn)] = self.wrap(f"{layer}.{fname}", fn, annotate)
        np_proxy = _Proxy(numpy, linalg=_Proxy(
            numpy.linalg, eigh=self.wrap(EIGH, numpy.linalg.eigh)))
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ctwalk" or name.startswith("ctwalk.")]
        saved: list[tuple[types.ModuleType, str, Any]] = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif value is numpy:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, np_proxy)
        try:
            yield
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


class _Proxy(types.ModuleType):
    """Module stand-in: a copy of the target's namespace with some overrides.

    The copy keeps attribute lookups as cheap as on the real module (the
    direct solver calls ``np.dot`` thousands of times per case); names the
    target creates lazily fall through to it.
    """

    def __init__(self, target: types.ModuleType, **overrides: Any) -> None:
        super().__init__(target.__name__)
        self.__dict__.update(vars(target))
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


# ---------------------------------------------------------------------------
# Span-tree arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    out = []
    for span in spans:
        if span.name not in names:
            continue
        p = span.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            out.append(span)
    return out


def layer_metrics(spans: list[Span], traced_wall: float,
                  peak_spans: list[Span]) -> dict[str, float]:
    """Per-layer figures keyed by the benchmark's metric names.

    ``spans`` and ``traced_wall`` come from a pass traced for time,
    ``peak_spans`` from a pass with tracemalloc on for the ``PEAKS`` spans.
    """
    selfs = self_times(spans)

    def pick(*names: str) -> list[Span]:
        return outermost(spans, set(names))

    def secs(*names: str) -> float:
        return sum(s.duration for s in pick(*names))

    def attr(sel: list[Span], key: str) -> list[float]:
        return [s.attrs[key] for s in sel if key in s.attrs]

    def peak(name: str) -> float:
        return max([s.peak_mb for s in peak_spans if s.name == name], default=0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    c_series = pick("classical.vertex_occupations", "classical.evolve_master")
    q_series = pick("quantum.transition_probabilities", "quantum.evolve_schrodinger")
    deconv = pick("first_passage.deconvolve")
    pipelines = pick("experiments.run_pipeline")
    graphs = pick(*(f"graphs.{f}" for f in TRACED["graphs"]))
    eigh = pick(EIGH)
    gill = pick("gillespie.gillespie_first_passage")
    gill_s = sum(s.duration for s in gill)
    writes = pick(*(f"io.{f}" for f in TRACED["io"]))
    cli = [(s, t) for s, t in zip(spans, selfs) if s.name == "cli.main"]
    cli_s = sum(s.duration for s, _ in cli)
    return {
        "classical.series_calls": len(c_series),
        "classical.series_s": sum(s.duration for s in c_series),
        "classical.series_exp_evals": sum(attr(c_series, "exp_evals")),
        "classical.horizon_s": secs("classical.survival_horizon"),
        "quantum.series_calls": len(q_series),
        "quantum.series_s": sum(s.duration for s in q_series),
        "quantum.series_exp_evals": sum(attr(q_series, "exp_evals")),
        "spectral.eigh_calls": len(eigh),
        "spectral.eigh_per_graph": ratio(len(eigh), len(graphs)),
        "graphs.built": len(graphs),
        "first_passage.deconvolve_calls": len(deconv),
        "first_passage.deconvolve_s": sum(s.duration for s in deconv),
        "first_passage.deconvolve_points": sum(attr(deconv, "points")),
        "first_passage.deconvolve_peak_mb": peak("first_passage.deconvolve"),
        "first_passage.reconstruct_s": secs("first_passage.reconstruct"),
        "first_passage.tau0_s": secs("first_passage.detect_tau0", "first_passage.mean_fpt"),
        "first_passage.residual_max": max(attr(pipelines, "residual"), default=0.0),
        "experiments.cases": len(pipelines),
        "experiments.attempts_per_case": ratio(len(deconv), len(pipelines)),
        "experiments.cache_s": sum(t for s, t in zip(spans, selfs)
                                   if s.name == "experiments.cached_run_case"),
        "experiments.warm_sweep_s": sum(s.duration for s, _ in cli if s.case == "sweep_warm"),
        "open_quantum.lindblad_s": secs("open_quantum.evolve_lindblad"),
        "open_quantum.lindblad_points": sum(attr(pick("open_quantum.evolve_lindblad"), "points")),
        "open_quantum.lindblad_peak_mb": peak("open_quantum.evolve_lindblad"),
        "open_quantum.ring_s": secs("open_quantum.ring_first_passage"),
        "open_quantum.flux_s": secs("open_quantum.complement_flux"),
        "gillespie.sample_s": gill_s,
        "gillespie.traj_per_s": ratio(sum(attr(gill, "n_traj")), gill_s),
        "gillespie.l1": max(attr(pick("gillespie.histogram_density_l1"), "l1"), default=0.0),
        "coherence.entropy_s": secs("coherence.entropy_series"),
        "coherence.entropy_points": sum(attr(pick("coherence.entropy_series"), "points")),
        "io.write_calls": len(writes),
        "io.write_s": sum(s.duration for s in writes),
        "io.rows_written": sum(attr(writes, "rows")),
        "io.bytes_written": sum(attr(writes, "bytes")),
        "cli.ops": len(cli),
        "cli.self_s": sum(t for _, t in cli),
        "trace.cli_coverage": ratio(cli_s, traced_wall),
    }
