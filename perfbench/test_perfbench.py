"""Self-tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import signal
import sys
import time

import numpy
import pytest

import run
import tracing
from tracing import Span, Tracer, layer_metrics, outermost, self_times
from workloads import build_ops

sys.path.insert(0, str(run.SRC))


def _sticky_op(tmp_path):
    (op,) = [o for o in build_ops("absorbers_mc", tmp_path, seed=0) if o.label == "sticky"]
    (tmp_path / "sticky").mkdir()
    return op


def test_valid_output_passes_and_reports_its_accuracy(tmp_path):
    op = _sticky_op(tmp_path)
    (tmp_path / "sticky" / "overlay.json").write_text('{"overlay_L2_error": 0.05}')
    (tmp_path / "sticky" / "sigma_F.csv").write_text("# config: x=1\nt,sigma,F\n0,1,0\n")
    assert run.check_op(op, tmp_path, 0, "") == (True, {"overlay_l2": 0.05})


@pytest.mark.parametrize(
    "content", [None, "{not json", '{"other": 1}', '{"overlay_L2_error": null}', ""]
)
def test_missing_or_corrupt_output_is_a_failed_op(tmp_path, content):
    op = _sticky_op(tmp_path)
    (tmp_path / "sticky" / "sigma_F.csv").write_text("# config: x=1\nt,sigma,F\n0,1,0\n")
    if content is not None:
        (tmp_path / "sticky" / "overlay.json").write_text(content)
    assert run.check_op(op, tmp_path, 0, "") == (False, {})


def test_truncated_csv_is_a_failed_op(tmp_path):
    op = _sticky_op(tmp_path)
    (tmp_path / "sticky" / "overlay.json").write_text('{"overlay_L2_error": 0.05}')
    (tmp_path / "sticky" / "sigma_F.csv").write_text("# config: x=1\n")
    assert run.check_op(op, tmp_path, 0, "") == (False, {})


def test_out_of_tolerance_and_nonzero_exit_fail(tmp_path):
    op = _sticky_op(tmp_path)
    (tmp_path / "sticky" / "overlay.json").write_text('{"overlay_L2_error": 0.2}')
    (tmp_path / "sticky" / "sigma_F.csv").write_text("# config: x=1\nt,sigma,F\n0,1,0\n")
    assert run.check_op(op, tmp_path, 0, "") == (False, {})
    assert run.check_op(op, tmp_path, 1, "") == (False, {})


def test_crashing_command_is_an_exit_code_not_an_exception():
    class Crashing:
        @staticmethod
        def main(argv):
            print("partial output")
            raise RuntimeError("boom")

    assert run.call_cli(Crashing, []) == (1, "partial output\n")


def test_host_probe_samples_only_inside_sampling():
    host = run.HostProbe()
    handler = signal.getsignal(signal.SIGALRM)
    with host.sampling():
        end = time.perf_counter() + 4 * run.PROBE_PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 2
    assert all(t > 0.0 for t in host.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),    # overlaps a
        Span("c", 9.0, 12.0, parent=0),   # runs past the parent's end
        Span("a1", 1.5, 2.5, parent=1),   # grandchild: covered by a already
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_outermost_skips_spans_nested_in_the_same_group():
    spans = [
        Span("io.write_probability_series_csv", 0.0, 4.0),
        Span("io.write_columns_csv", 0.5, 3.5, parent=0),
        Span("io.write_columns_csv", 5.0, 6.0),
    ]
    names = {"io.write_probability_series_csv", "io.write_columns_csv"}
    assert [s.start for s in outermost(spans, names)] == [0.0, 5.0]


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, case="sweep_cold"),
        Span("experiments.run_pipeline", 1.0, 7.0, parent=0, attrs={"residual": 1e-9}),
        Span("first_passage.deconvolve", 2.0, 5.0, parent=1, attrs={"points": 100}),
        Span("first_passage.deconvolve", 5.0, 6.0, parent=1, attrs={"points": 200}),
        Span("cli.main", 10.0, 11.0, case="sweep_warm"),
    ]
    peaks = [Span("first_passage.deconvolve", 0.0, 1.0, peak_mb=3.0)]
    m = layer_metrics(spans, traced_wall=12.0, peak_spans=peaks)
    assert m["cli.ops"] == 2
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["first_passage.deconvolve_s"] == pytest.approx(4.0)
    assert m["first_passage.deconvolve_points"] == 300
    assert m["first_passage.deconvolve_peak_mb"] == 3.0
    assert m["experiments.attempts_per_case"] == 2.0
    assert m["experiments.warm_sweep_s"] == pytest.approx(1.0)
    assert m["trace.cli_coverage"] == pytest.approx(11.0 / 12.0)


def test_installed_wrappers_record_spans_and_come_off():
    import ctwalk.experiments
    import ctwalk.quantum
    from ctwalk.graphs import SideChainConfig, build_side_chain_graph

    original = ctwalk.quantum.transition_probabilities
    g = build_side_chain_graph(SideChainConfig(N=5))
    tracer = Tracer()
    with tracer.installed():
        ctwalk.experiments.run_pipeline(g, 5, "quantum", 0.01, 1e-6)
    names = [s.name for s in tracer.spans]
    assert names[0] == "experiments.run_pipeline"
    assert names.count("quantum.transition_probabilities") == 2
    assert names.count(tracing.EIGH) == 2
    eigh = next(s for s in tracer.spans if s.name == tracing.EIGH)
    assert tracer.spans[eigh.parent].name == "quantum.transition_probabilities"
    assert ctwalk.quantum.transition_probabilities is original
    assert ctwalk.quantum.np is numpy
