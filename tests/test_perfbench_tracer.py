"""The benchmark's tracer still installs over every name it traces.

perfbench/tracing.py looks up each name in its TRACED table on the ctwalk
modules; a renamed or deleted function breaks every traced benchmark run.
The tracer is loaded from its file, since perfbench is not a package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy
import pytest

import ctwalk.experiments as experiments
from ctwalk.cli import main
from ctwalk.graphs import SideChainConfig, build_side_chain_graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it loads
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing):
    return {
        (layer, name): getattr(importlib.import_module(f"ctwalk.{layer}"), name)
        for layer, names in tracing.TRACED.items()
        for name in names
    }


# the classical case evaluates no series on its grid: its scalars and its
# residual bound come from the modes, so none of the grid layers runs
GRID_LAYERS = ["classical.vertex_occupations", "quantum.transition_probabilities",
               "first_passage.deconvolve", "first_passage.detect_tau0",
               "first_passage.reconstruct", "first_passage.mean_fpt"]


@pytest.mark.parametrize("walk,spans", [
    ("classical", ["classical.survival_horizon"]),
    ("quantum", ["quantum.transition_probabilities", "first_passage.extract_first_passage",
                 "first_passage.deconvolve",
                 "first_passage.detect_tau0", "first_passage.reconstruct",
                 "first_passage.mean_fpt"]),
])
def test_tracer_installs_over_every_traced_name(tracing, walk, spans):
    original = _bindings(tracing)
    model = experiments.walk_model(build_side_chain_graph(SideChainConfig(N=5)), walk)
    tracer = tracing.Tracer()
    with tracer.installed():
        experiments.run_pipeline(model, 5, 0.01, 1e-6)
    names = [s.name for s in tracer.spans]
    assert names[0] == "experiments.run_pipeline"
    assert all(s.parent is not None for s in tracer.spans[1:])
    for name in spans:
        assert name in names
    for name in GRID_LAYERS:
        assert (name in names) == (name in spans), name
    assert _bindings(tracing) == original
    assert experiments.np is numpy


def test_tracer_records_both_absorbers_through_the_cli(tracing, tmp_path):
    """The absorber spans that perfbench/run.py --trace 1 reads from absorbers_mc."""
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["ancillary", "--method", "sticky", "--N", "9", "--jump-direction",
                     "reversed", "--out-dir", str(tmp_path / "sticky")]) == 0
        assert main(["ancillary", "--method", "ring", "--N", "9", "--M", "10",
                     "--out-dir", str(tmp_path / "ring")]) == 0
    names = [s.name for s in tracer.spans]
    for name in ["graphs.attach_sticky_vertex", "open_quantum.evolve_lindblad",
                 "open_quantum.sticky_first_passage", "open_quantum.complement_flux",
                 "open_quantum.ring_first_passage", "graphs.dress_with_ring",
                 "open_quantum.overlay_l2_error"]:
        assert name in names
    lindblad = [s for s in tracer.spans if s.name == "open_quantum.evolve_lindblad"]
    assert [s.attrs["points"] for s in lindblad] == [1241]
