"""Benchmark of the ctwalk CLI: three workloads, end-to-end and per-layer metrics.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload quantum_sweep --seed 1 --seconds 30 --trace 0

Each run drives ``ctwalk.cli.main(argv)`` in this process and repeats the
workload's ops, each pass in fresh output and cache directories, until
``--seconds`` have been spent. Every op's outputs are checked against the
repository's pinned tolerances; an op fails on a nonzero exit code, an
exception, or a failed or unreadable output. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
  several fresh interpreters of process start until ``ctwalk.cli`` is
  imported), ``wall_s`` (the workload's ops, one pass, mean over the
  run's passes) and ``peak_rss_mb`` (peak resident memory of this
  process, which runs only the one workload, by the end of its first
  pass: later passes add a few percent of heap growth, and how many of
  them fit in a run depends on the host). No wrappers are installed.
  Both times are in reference-host seconds: a ``HostProbe`` times a small
  fixed computation every ``PROBE_PERIOD_S`` while the ops run (and next
  to every interpreter spawn), its time is taken out of the op's, and the
  op time is multiplied by ``REF_PROBE_S`` over the mean probe time of the
  same seconds. On a shared 2-vCPU host the same op runs at speeds up to
  2x apart as other tenants come and go, over seconds to minutes; the
  probe slows with it, so the ratio cancels the host while a slower or
  faster program still moves ``wall_s`` one for one. Over ten runs of
  classical_long (one 28 to 38 s pass each) the op time spread 0.174
  (quartile distance over median) and ``wall_s`` 0.053.
* ``--trace 1`` makes untraced passes for ``--seconds``, traced passes for
  another ``--seconds``, and one pass with tracemalloc on around the spans
  whose peak memory is reported. It prints the per-layer metrics of the
  fastest traced pass (peaks from the tracemalloc pass) and writes that
  pass's spans to ``.perfbench_out/trace-<workload>-seed<seed>.jsonl``.
  ``trace.overhead_s`` is the fastest traced pass minus the fastest
  untraced one, in plain seconds of op time.

``--report`` runs every workload in its own process, traced and untraced,
and prints every metric by name with its unit; ``--out FILE`` also saves
them as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Iterator

from workloads import CheckFailed, Op, build_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 900
# Typical HostProbe.probe() time on the 2-vCPU host the benchmark was defined
# on, so that scaled times read as seconds on that host.
REF_PROBE_S = 0.0055
PROBE_PERIOD_S = 0.25  # about 2% of the op time goes to probes


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_cli():
    """Import ctwalk.cli from this checkout's sources, refusing any other copy."""
    if not (SRC / "ctwalk" / "cli.py").is_file():
        raise SystemExit(f"error: no ctwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ctwalk.cli

    if Path(ctwalk.cli.__file__).resolve().parent != (SRC / "ctwalk").resolve():
        raise SystemExit(f"error: imported ctwalk from {ctwalk.cli.__file__}, not {SRC}")
    return ctwalk.cli


class HostProbe:
    """Samples the speed of the CPU the ops run on, while they run.

    ``probe`` times a fixed computation that mixes the ops' kinds of work:
    small complex matrix products in a Python loop (the RK4 and direct
    solvers), an integer loop (bookkeeping), CSV rows formatted as
    ``ctwalk.io`` formats them, and a sort and an FFT (the vectorised
    samplers and the Toeplitz solve). It allocates nothing and creates no
    objects the garbage collector tracks, so what an op leaves behind does
    not change its time. Inside ``sampling`` a SIGALRM handler probes every
    ``PROBE_PERIOD_S``; Python runs it in the main thread between
    bytecodes, so it interrupts no C call and shares the ops' CPU.
    ``PROBE_PERIOD_S`` is measured from the end of one probe to the start
    of the next.
    """

    def __init__(self) -> None:
        import numpy as np  # after the BLAS thread caps

        self.np = np
        rng = np.random.default_rng(0)
        self.h = rng.random((45, 45)) + 1j * rng.random((45, 45))
        self.rho, self.hr, self.rh = (np.empty((45, 45), dtype=complex) for _ in range(3))
        self.x = rng.random(1 << 15)
        self.y = np.empty_like(self.x)
        self.spectrum = np.empty(len(self.x) // 2 + 1, dtype=complex)
        self.columns = (self.x[:400], self.x[400:800])
        self.samples: list[float] = []
        self._armed = False
        self.probe()  # the first call pays one-time set-up (up to 1 s with BLAS threads)

    def probe(self) -> float:
        """Time the fixed computation. It works in preallocated buffers: an
        allocation from inside an op would shift the glibc mmap threshold and
        heap layout the op sees, which moved classical_long's peak RSS by up
        to 25 MB and its time with it."""
        np, h, rho, hr, rh = self.np, self.h, self.rho, self.hr, self.rh
        t0 = time.perf_counter()
        rho[...] = 0.0
        np.fill_diagonal(rho, 1.0)
        for _ in range(60):
            np.matmul(h, rho, out=hr)
            np.matmul(rho, h, out=rh)
            np.subtract(hr, rh, out=hr)
            hr *= 1e-3j
            rho += hr
        total = 0
        for i in range(8000):
            total += i * i % 7
        c0, c1 = self.columns
        for i in range(400):
            f"{float(c0[i]):.17g},{float(c1[i]):.17g}\n"
        self.y[:] = self.x
        self.y.sort()
        np.fft.rfft(self.x, out=self.spectrum)
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:  # else a signal that arrived just before sampling ended
            self.samples.append(self.probe())
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Probe every PROBE_PERIOD_S; one-shot timers, re-armed after each probe
        so that a probe slowed past the period is never interrupted by the next."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def measure_setup(host: HostProbe) -> float:
    """Median time from spawning a fresh interpreter until ctwalk.cli is imported.

    Each spawn is scaled by probes just before and after it: probing while
    the child runs would compete with it for the second CPU.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import ctwalk.cli; "
            "print(repr(time.time()))")
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        before = [host.probe() for _ in range(3)]
        t0 = time.time()
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                              capture_output=True, text=True, timeout=120)
        spawn_s = float(done.stdout.strip().splitlines()[-1]) - t0
        probes = before + [host.probe() for _ in range(3)]
        if i:  # the first spawn only warms the bytecode cache
            samples.append(spawn_s * REF_PROBE_S / statistics.mean(probes))
    return statistics.median(samples)


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command; any exception is reported and becomes exit code 1."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejections
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    return rc, buf.getvalue()


def check_op(op: Op, pass_dir: Path, rc: int, stdout: str) -> tuple[bool, dict[str, float]]:
    """Exit code and output check of one op; bad or missing files fail, not crash."""
    if rc != 0:
        print(f"op {op.label}: exit code {rc}", file=sys.stderr)
        return False, {}
    try:
        return True, op.check(pass_dir, stdout)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"op {op.label}: check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False, {}


def run_pass(cli, workload: str, seed: int, tracer=None, host: HostProbe | None = None) -> dict:
    """One pass of the workload's ops, each timed; the checks are not timed.

    Untraced passes sample the host with ``host``; an op's time excludes the
    probes that ran inside it.
    """
    WORK.mkdir(exist_ok=True)
    pass_dir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{workload}-"))
    try:
        ops = build_ops(workload, pass_dir, seed)
        results, times = [], []
        with tracer.installed() if tracer else host.sampling():
            for op in ops:
                if tracer:
                    tracer.case = op.label
                probed = len(host.samples) if host else 0
                t0 = time.perf_counter()
                results.append(call_cli(cli, op.argv))
                elapsed = time.perf_counter() - t0
                times.append(elapsed - (sum(host.samples[probed:]) if host else 0.0))
        values: dict[str, float] = {}
        failed = 0
        for op, (rc, stdout) in zip(ops, results):
            ok, measured = check_op(op, pass_dir, rc, stdout)
            failed += not ok
            values.update(measured)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    return {"times": times, "attempted": len(ops), "failed": failed, "values": values,
            "tracer": tracer,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_passes(cli, workload: str, seed: int, seconds: float, new_tracer=None,
               host: HostProbe | None = None) -> list[dict]:
    """Passes for about ``seconds``: always one, then none that would end past it."""
    passes: list[dict] = []
    t_start = time.perf_counter()
    while not passes or (
        (time.perf_counter() - t_start) * (len(passes) + 1) / len(passes) <= seconds
    ):
        passes.append(run_pass(cli, workload, seed, new_tracer() if new_tracer else None, host))
    return passes


def best_wall(passes: list[dict]) -> float:
    """Each op's fastest time over the passes, summed over the ops."""
    return sum(min(op_times) for op_times in zip(*(p["times"] for p in passes)))


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = _import_cli()
    host = HostProbe()
    setup = None if trace else measure_setup(host)
    passes = run_passes(cli, workload, seed, seconds, host=host)
    if not trace:
        pass_s = statistics.mean(sum(p["times"]) for p in passes)
        probe_s = statistics.mean(host.samples)
        print(f"{len(passes)} passes, {pass_s:.4f} s of ops each; {len(host.samples)} probes,"
              f" mean {probe_s:.6f} s, slowest {max(host.samples):.6f} s", file=sys.stderr)
        metrics = {
            "setup_s": setup,
            "wall_s": pass_s * REF_PROBE_S / probe_s,
            "peak_rss_mb": passes[0]["maxrss_mb"],
        }
    else:
        from tracing import PEAKS, Tracer, layer_metrics  # imports numpy: after the BLAS caps

        traced = run_passes(cli, workload, seed, seconds, Tracer)
        memory = run_pass(cli, workload, seed, Tracer(peaks=PEAKS))
        fastest = min(traced, key=lambda p: sum(p["times"]))
        fastest["tracer"].dump(TRACES / f"trace-{workload}-seed{seed}.jsonl")
        metrics = layer_metrics(fastest["tracer"].spans, sum(fastest["times"]),
                                memory["tracer"].spans)
        metrics["trace.overhead_s"] = best_wall(traced) - best_wall(passes)
        metrics["tau_rel_gap"] = fastest["values"].get("tau_rel_gap", 0.0)
        metrics["overlay_l2"] = fastest["values"].get("overlay_l2", 0.0)
        passes += traced + [memory]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    with contextlib.suppress(OSError):  # still in use by a concurrent run
        WORK.rmdir()
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: {sorted(mismatch)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def report(spec: dict, seed: int, seconds: int, out: Path | None) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    table = {}
    for workload in (w["name"] for w in spec["workloads"]):
        row = table[workload] = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            res = json.loads(done.stdout.strip().splitlines()[-1])
            row.update(res["metrics"])
            if trace == 0:
                row["fail_frac"] = {"value": res["failed"] / res["attempted"], "unit": "1"}
                row["ops_attempted"] = {"value": res["attempted"], "unit": "count"}
            elif not res["correct"]:
                print(f"{workload}: {res['failed']} ops failed in the traced run",
                      file=sys.stderr)
    for workload, row in table.items():
        print(f"== {workload}")
        for name, m in row.items():
            print(f"  {name:36s} {m['value']:<16.6g} {m['unit']}")
    if out is not None:
        out.write_text(json.dumps({"seed": seed, "seconds": seconds, "workloads": table},
                                  indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload, traced and untraced, and print all metrics")
    ap.add_argument("--out", type=Path, default=None, help="with --report: save as JSON")
    args = ap.parse_args(argv)
    # One BLAS thread, set before numpy starts its pool: on a 2-vCPU host two
    # threads made the small Lindblad products both slower and noisier.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.report:
        return report(spec, args.seed, args.seconds, args.out)
    if args.workload is None:
        ap.error("--workload or --report is required")
    result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
