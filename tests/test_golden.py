"""Golden records: pipeline outputs frozen so refactors can show they held still.

`golden_records.json` holds tau, tau0 and norm for every quantum case with
N in 3..15 and classical case with N in 3..9 (S in {0, 1, 2}, offset 0),
the sticky and ring overlay errors at N = 9 and at N = 43 (the sticky
absorber in both jump directions and both sigma conventions, the ring with
M = 44) and the entropy averages at N = 9, all at dt = 0.01 and
eps = 1e-6. Every value must reproduce to a relative 1e-9.

Regenerate (only when an output is meant to change, and say why):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from ctwalk.cli import main
from ctwalk.experiments import run_case

GOLDEN = Path(__file__).with_name("golden_records.json")
REL = 1e-9
WALK_NS = {"quantum": range(3, 16), "classical": range(3, 10)}
# the sticky absorber at the benchmark's scale, N = 43, in one jump direction
STICKY43 = ["ancillary", "--method", "sticky", "--N", "43", "--lambda", "4.6", "--V", "-2.3",
            "--jump-direction"]
CLI = {
    "sticky": ["ancillary", "--method", "sticky", "--N", "9", "--lambda", "5",
               "--V", "-2.5", "--jump-direction", "reversed",
               "--sigma-includes-target"],
    "ring": ["ancillary", "--method", "ring", "--N", "9", "--M", "10",
             "--sigma-includes-target"],
    "entropy": ["entropy", "--N", "9"],
    "sticky43_as-printed": STICKY43 + ["as-printed"],
    "sticky43_as-printed_incl": STICKY43 + ["as-printed", "--sigma-includes-target"],
    "sticky43_reversed": STICKY43 + ["reversed"],
    "sticky43_reversed_incl": STICKY43 + ["reversed", "--sigma-includes-target"],
    "ring43_incl": ["ancillary", "--method", "ring", "--N", "43", "--M", "44",
                    "--sigma-includes-target"],
}


def compute_records(walk: str) -> dict[str, dict[str, float]]:
    out = {}
    for n in WALK_NS[walk]:
        for s in (0, 1, 2):
            rec = run_case(n, s, 0, walk)
            out[f"N{n}_S{s}"] = {"tau": rec.tau, "tau0": rec.tau0, "norm": rec.norm}
    return out


def compute_cli(name: str, out_dir: Path) -> dict[str, float]:
    assert main(CLI[name] + ["--out-dir", str(out_dir)]) == 0
    if name == "entropy":
        return {
            f"S{s}": json.loads((out_dir / f"entropy_S{s}.json").read_text())["avg_entropy"]
            for s in (0, 1, 2)
        }
    return {"overlay_L2_error":
            json.loads((out_dir / "overlay.json").read_text())["overlay_L2_error"]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_matches(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=REL, abs=0.0), key


@pytest.mark.parametrize("walk", sorted(WALK_NS))
def test_golden_case_records(golden, walk):
    assert_matches(compute_records(walk), golden[walk])


@pytest.mark.parametrize("name", sorted(CLI))
def test_golden_cli_outputs(golden, name, tmp_path):
    assert_matches(compute_cli(name, tmp_path), golden[name])


if __name__ == "__main__":
    import tempfile

    doc: dict = {walk: compute_records(walk) for walk in sorted(WALK_NS)}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CLI):
            doc[name] = compute_cli(name, Path(tmp) / name)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
