"""Workload definitions and the output checks that decide whether an op passed.

One op is one ``ctwalk`` CLI command. Every op writes into a fresh
directory under the pass directory, and every check reads only those
files (plus the captured standard output) and compares them with the
tolerances the repository's acceptance tests pin. A check returns the
accuracy numbers it measured and raises ``CheckFailed`` when an output is
out of tolerance; a missing or unreadable file raises ``OSError`` or
``ValueError``, which the runner also counts as a failed op.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

DT = 0.01
COMMON = ["--dt", str(DT), "--epsilon", "1e-6"]
SWEEP = ["sweep", "--walk", "quantum", "--N-range", "3:43:2", "--S-set", "0,1,2",
         "--jobs", "1"]

# Pinned tolerances (tests/test_acceptance.py, tests/test_experiments.py)
FIT_EXPONENT, FIT_EXPONENT_TOL = -0.714, 0.05        # criterion 1
FIT_PREFACTOR, FIT_PREFACTOR_REL = -0.4574, 0.10     # criterion 1
QUANTUM_RESIDUAL_MAX = 1e-4                          # criterion 5
CLASSICAL_RESIDUAL_MAX = 1e-5                        # criterion 5
ORACLE_REL_GAP_MAX = 0.01                            # criterion 6
MC_L1_MAX = 0.02                                     # criterion 7
OVERLAY_MAX = 0.10                                   # criterion 8


class CheckFailed(Exception):
    """An op's output is present but outside its pinned tolerance."""


@dataclass(frozen=True)
class Op:
    label: str
    argv: list[str]
    check: Callable[[Path, str], dict[str, float]]  # (pass dir, stdout) -> measured values


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def csv_shape(path: Path) -> tuple[int, float, float]:
    """Data rows, first t and last t of a ctwalk CSV (config line, header, rows)."""
    with open(path, "rb") as fh:
        head = [fh.readline(), fh.readline(), fh.readline()]
        lines = sum(1 for line in head if line)
        tail = head[2]
        while chunk := fh.read(1 << 24):
            lines += chunk.count(b"\n")
            tail = (tail + chunk)[-4096:]
    rows = lines - 2
    last = tail.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    return rows, float(head[2].split(b",")[0]), float(last.split(b",")[0])


# ---------------------------------------------------------------------------
# quantum_sweep
# ---------------------------------------------------------------------------

def _records(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]


def check_sweep_cold(pass_dir: Path, stdout: str) -> dict[str, float]:
    out = pass_dir / "sweep_cold"
    recs = _records(out)
    require(len(recs) == 63, f"expected 63 records, got {len(recs)}")
    worst = max(r["reconstruction_error"] for r in recs)
    require(worst <= QUANTUM_RESIDUAL_MAX, f"residual {worst:.3g} > {QUANTUM_RESIDUAL_MAX}")
    tau = {(r["N"], r["S"]): r["tau"] for r in recs}
    for n in range(3, 44, 2):
        require(tau[n, 1] - tau[n, 0] < 0.0, f"d1 >= 0 at N={n}")
        require(tau[n, 2] - tau[n, 1] > 0.0, f"d2' <= 0 at N={n}")
    fit = read_json(out / "fit.json")
    require(abs(fit["exponent"] - FIT_EXPONENT) <= FIT_EXPONENT_TOL,
            f"fit exponent {fit['exponent']:.4f}")
    require(abs(fit["prefactor"] - FIT_PREFACTOR) <= FIT_PREFACTOR_REL * abs(FIT_PREFACTOR),
            f"fit prefactor {fit['prefactor']:.4f}")
    return {}


def check_sweep_warm(pass_dir: Path, stdout: str) -> dict[str, float]:
    cold, warm = _records(pass_dir / "sweep_cold"), _records(pass_dir / "sweep_warm")
    require(warm == cold, "warm re-sweep records differ from the cold sweep")
    return {}


GAP = re.compile(r"<E''> - <E> = (\S+)")


def check_entropy(pass_dir: Path, stdout: str) -> dict[str, float]:
    out = pass_dir / "entropy"
    avg = {}
    for s in (0, 1, 2):
        doc = read_json(out / f"entropy_S{s}.json")
        avg[s] = doc["avg_entropy"]
        require(0.0 <= avg[s] <= 1.0, f"average entropy {avg[s]} outside [0, 1] at S={s}")
        require(doc["tau0"] > 0.0, f"tau0 {doc['tau0']} at S={s}")
    match = GAP.search(stdout)
    require(match is not None, "entropy gap missing from the command output")
    gap = avg[2] - avg[0]
    require(math.isfinite(gap) and gap != 0.0, f"entropy gap {gap}")
    require(abs(float(match.group(1)) - gap) <= 1e-6, "printed gap disagrees with the files")
    return {}


# ---------------------------------------------------------------------------
# classical_long
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def classical_oracle(n: int, s: int) -> float:
    """Mean first-passage time 1 -> N from the adjoint linear system."""
    from ctwalk.classical import mfpt_linear_solve
    from ctwalk.graphs import SideChainConfig, build_side_chain_graph

    return mfpt_linear_solve(build_side_chain_graph(SideChainConfig(N=n, S=s)), 1, n)


def check_simulate(pass_dir: Path, stdout: str) -> dict[str, float]:
    out = pass_dir / "simulate"
    res = read_json(out / "result.json")
    oracle = classical_oracle(43, 2)
    gap = abs(res["tau"] - oracle) / oracle
    require(gap < ORACLE_REL_GAP_MAX, f"tau {res['tau']} vs oracle {oracle} (gap {gap:.3g})")
    require(res["reconstruction_error"] <= CLASSICAL_RESIDUAL_MAX,
            f"residual {res['reconstruction_error']:.3g} > {CLASSICAL_RESIDUAL_MAX}")
    rows, t_first, t_last = csv_shape(out / "F.csv")
    require(t_first == 0.0, f"F.csv starts at t={t_first}")
    require(rows == round(t_last / DT) + 1, f"F.csv has {rows} rows up to t={t_last}")
    require(res["tau0"] <= t_last, f"tau0 {res['tau0']} beyond the grid end {t_last}")
    for name in ("P143.csv", "P4343.csv"):
        require(csv_shape(out / name)[0] == rows, f"{name} row count differs from F.csv")
    return {"tau_rel_gap": gap}


# ---------------------------------------------------------------------------
# absorbers_mc
# ---------------------------------------------------------------------------

def _check_overlay(out: Path) -> float:
    err = read_json(out / "overlay.json")["overlay_L2_error"]
    require(err <= OVERLAY_MAX, f"overlay L2 error {err:.4f} > {OVERLAY_MAX}")
    require(csv_shape(out / "sigma_F.csv")[0] > 0, "sigma_F.csv has no rows")
    return err


def check_sticky(pass_dir: Path, stdout: str) -> dict[str, float]:
    return {"overlay_l2": _check_overlay(pass_dir / "sticky")}


def check_ring(pass_dir: Path, stdout: str) -> dict[str, float]:
    _check_overlay(pass_dir / "ring")
    return {}


def check_montecarlo(pass_dir: Path, stdout: str) -> dict[str, float]:
    doc = read_json(pass_dir / "montecarlo" / "comparison.json")
    require(doc["l1_distance"] <= MC_L1_MAX, f"L1 {doc['l1_distance']:.4f} > {MC_L1_MAX}")
    require(doc["n_capped"] == 0, f"{doc['n_capped']} capped trajectories")
    return {}


# ---------------------------------------------------------------------------

def build_ops(workload: str, pass_dir: Path, seed: int) -> list[Op]:
    """The ops of one pass; each writes to its own directory under pass_dir."""

    def out(label: str) -> list[str]:
        return ["--out-dir", str(pass_dir / label)]

    cache = ["--cache-dir", str(pass_dir / "cache")]
    if workload == "quantum_sweep":
        return [
            Op("sweep_cold", SWEEP + COMMON + out("sweep_cold") + cache, check_sweep_cold),
            Op("sweep_warm", SWEEP + COMMON + out("sweep_warm") + cache, check_sweep_warm),
            Op("entropy", ["entropy", "--N", "43"] + COMMON + out("entropy"), check_entropy),
        ]
    if workload == "classical_long":
        return [
            Op("simulate", ["simulate", "--walk", "classical", "--N", "43", "--S", "2"]
               + COMMON + out("simulate"), check_simulate),
        ]
    if workload == "absorbers_mc":
        return [
            Op("sticky", ["ancillary", "--method", "sticky", "--N", "43", "--lambda", "4.6",
                          "--V", "-2.3", "--jump-direction", "reversed",
                          "--sigma-includes-target"] + COMMON + out("sticky"), check_sticky),
            Op("ring", ["ancillary", "--method", "ring", "--N", "43", "--M", "44",
                        "--sigma-includes-target"] + COMMON + out("ring"), check_ring),
            Op("montecarlo", ["montecarlo", "--N", "9", "--n-traj", "1000000",
                              "--seed", str(seed)] + COMMON + out("montecarlo"),
               check_montecarlo),
        ]
    raise ValueError(f"unknown workload {workload!r}")
