"""Command-line front end.

Subcommands: simulate (one case), sweep (N x S tables plus the power-law
fit), ancillary (sticky-tail and ring estimators vs the convolution
result), montecarlo (ensemble sampling vs the convolution result), and
entropy (coherence diagnostics).

Exit codes: 0 success, 1 numerical failure or a worker process that died,
2 invalid input. Flags can be preloaded from a plain key=value file via
--config; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import classical, experiments, io, quantum
from .errors import NumericsError, ValidationError
from .gillespie import check_sampling_args, gillespie_first_passage, histogram_density_l1
from .graphs import (
    SideChainConfig,
    attach_sticky_vertex,
    build_side_chain_graph,
    from_edge_list_text,
)
from .grid import TimeGrid
from .open_quantum import (
    LindbladConfig,
    overlay_l2_error,
    ring_first_passage,
    sticky_first_passage,
    evolve_lindblad,
)
from .parallel import WorkerDied


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dt", type=float, default=0.01, help="time grid spacing")
    p.add_argument(
        "--epsilon", type=float, default=1e-6,
        help="survival-mass cutoff standing in for an infinite classical horizon",
    )
    p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    p.add_argument(
        "--config", type=Path, default=None,
        help="key=value file supplying defaults; explicit flags take precedence",
    )


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, default=9, help="main-chain length")
    p.add_argument("--S", type=int, default=0, help="side-chain length")
    p.add_argument("--offset", type=int, default=0, help="mount offset from the center")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctwalk",
        description="continuous-time walks on chains with switchable side vertices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one case end to end")
    _add_model(p_sim)
    _add_common(p_sim)
    p_sim.add_argument("--walk", choices=("classical", "quantum"), default="quantum")
    p_sim.add_argument(
        "--graph-file", type=Path, default=None,
        help="edge-list file overriding the chain model (first line n=<count>)",
    )
    p_sim.add_argument("--start", type=int, default=None, help="default 1")
    p_sim.add_argument("--target", type=int, default=None,
                       help="default N, or the last vertex of --graph-file")
    p_sim.add_argument(
        "--full-series", action="store_true",
        help="also write the per-vertex occupation series",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep N and S, emit tables and the fit")
    _add_common(p_sweep)
    p_sweep.add_argument("--walk", choices=("classical", "quantum"), default="quantum")
    p_sweep.add_argument("--N-range", default="3:43:2", help="start:stop:step, stop inclusive")
    p_sweep.add_argument("--S-set", default="0,1,2", help="comma-separated side-chain lengths")
    p_sweep.add_argument("--offset", type=int, default=0)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="processes to run cases on, this one included")
    p_sweep.add_argument("--cache-dir", type=Path, default=None,
                         help="case cache (default <out-dir>/cache)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_anc = sub.add_parser("ancillary", help="absorber estimators vs the convolution F")
    _add_model(p_anc)
    _add_common(p_anc)
    p_anc.add_argument("--method", choices=("sticky", "ring"), required=True)
    p_anc.add_argument("--lambda", dest="lam", type=float, default=5.0,
                       help="dissipation rate of the sticky coupling")
    p_anc.add_argument("--V", type=float, default=-2.5, help="sticky on-site potential")
    p_anc.add_argument("--M", type=int, default=10, help="ring size")
    p_anc.add_argument(
        "--jump-direction", choices=("as-printed", "reversed"), default="as-printed",
        help="as-printed: L = |target><sticky|; reversed: L = |sticky><target|",
    )
    p_anc.add_argument(
        "--sigma-includes-target", action="store_true",
        help="count the target vertex in the complement probability",
    )
    p_anc.set_defaults(func=cmd_ancillary)

    p_mc = sub.add_parser("montecarlo", help="ensemble first-passage histogram")
    _add_model(p_mc)
    _add_common(p_mc)
    p_mc.add_argument("--n-traj", type=int, default=1_000_000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--bin-width", type=float, default=1.0)
    p_mc.add_argument("--t-cap", type=float, default=1e4,
                      help="give up on a trajectory beyond this time")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_ent = sub.add_parser("entropy", help="coherence entropy for S = 0, 1, 2")
    _add_model(p_ent)
    _add_common(p_ent)
    p_ent.set_defaults(func=cmd_entropy)

    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _model_config(args: argparse.Namespace) -> dict:
    return {"N": args.N, "S": args.S, "offset": args.offset, "dt": args.dt,
            "epsilon": args.epsilon}


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.graph_file is not None:
        g = from_edge_list_text(args.graph_file.read_text())
        config, last = {"graph": str(args.graph_file)}, g.n
    else:
        g = build_side_chain_graph(SideChainConfig(N=args.N, S=args.S, offset=args.offset))
        config, last = _model_config(args), args.N
    start = 1 if args.start is None else args.start
    target = last if args.target is None else args.target
    g.check_vertex(start)
    g.check_vertex(target)
    if start == target:
        raise ValidationError(f"start and target must differ, both are {start}")
    config.update(start=start, target=target, walk=args.walk)
    model = experiments.walk_model(g, args.walk)
    result, grid = experiments.run_pipeline(model, target, args.dt, args.epsilon, start=start)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.full_series and args.walk == "quantum":
        amp = quantum.evolve_schrodinger(model, start, grid)
        io.write_amplitude_series_csv(args.out_dir / "amplitudes.csv", amp, config)
        io.write_occupation_csv(args.out_dir / "occupations.csv", amp, config)
    elif args.full_series:
        series = classical.evolve_master(model, start, grid)
        io.write_probability_series_csv(args.out_dir / "occupations.csv", series, config)
    io.write_series_csvs(
        grid.times,
        [(args.out_dir / f"P{start}{target}.csv", "P", result.p_ab),
         (args.out_dir / f"P{target}{target}.csv", "P", result.p_bb),
         (args.out_dir / "F.csv", "F", result.F)],
        config,
    )
    payload = {
        "N": g.n if args.graph_file else args.N,
        "S": None if args.graph_file else args.S,
        "offset": None if args.graph_file else args.offset,
        "walk": args.walk,
        "tau0": result.tau0,
        "tau": result.tau,
        "norm": result.norm,
        "reconstruction_error": result.reconstruction_error,
    }
    io.write_json(args.out_dir / "result.json", payload, config)
    print(f"tau = {result.tau:.6f}  tau0 = {result.tau0:.6f}  -> {args.out_dir}")
    return 0


def _int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValidationError(f"{flag} takes integers, got {text!r}") from exc


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValidationError(f"--N-range must be start:stop[:step], got {text!r}")
    start, stop, *rest = [_int(x, "--N-range") for x in parts]
    step = rest[0] if rest else 1
    if step <= 0 or stop < start:
        raise ValidationError(f"bad --N-range {text!r}")
    return list(range(start, stop + 1, step))


def cmd_sweep(args: argparse.Namespace) -> int:
    cache_dir = args.cache_dir if args.cache_dir is not None else args.out_dir / "cache"
    ns = _parse_range(args.N_range)
    s_values = sorted({_int(x, "--S-set") for x in args.S_set.split(",") if x.strip() != ""})
    config = {"walk": args.walk, "N_range": args.N_range, "S_set": args.S_set,
              "offset": args.offset, "dt": args.dt, "epsilon": args.epsilon}
    records = experiments.sweep(
        ns, s_values, args.offset, args.walk,
        dt=args.dt, eps=args.epsilon, cache_dir=cache_dir, jobs=args.jobs,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    io.write_jsonl(args.out_dir / "records.jsonl", [asdict(r) for r in records])

    by_n = experiments.group_by_n(records)
    header = ["N"] + [f"tau_S{s}" for s in s_values]
    full_triple = {0, 1, 2}.issubset(set(s_values))
    if full_triple:
        header += ["d1", "d2", "d2_prime", "d1_over_tau", "d2_over_tau"]
    lines = [io.config_line(config), ",".join(header)]
    for n, group in by_n.items():
        row = [str(n)] + [io.fmt(group[s].tau) for s in s_values]
        if full_triple:
            d = experiments.side_chain_deltas(group)
            row += [io.fmt(d.d1), io.fmt(d.d2), io.fmt(d.d2_prime),
                    io.fmt(d.d1_ratio), io.fmt(d.d2_ratio)]
        lines.append(",".join(row))
    (args.out_dir / "summary.csv").write_text("\n".join(lines) + "\n")

    if args.walk == "quantum" and {0, 1}.issubset(set(s_values)) and len(ns) >= 2:
        fit = experiments.speedup_fit(records)
        io.write_json(
            args.out_dir / "fit.json",
            {"prefactor": fit.prefactor, "exponent": fit.exponent,
             "residual": fit.residual, "n_points": len(by_n)},
            config,
        )
        print(f"speed-up fit: {fit.prefactor:.4f} * N^{fit.exponent:.4f}")
    print(f"{len(records)} cases -> {args.out_dir}")
    return 0


def cmd_ancillary(args: argparse.Namespace) -> int:
    if args.S != 0:
        raise ValidationError("ancillary estimators are validated for S=0 models only")
    cfg = SideChainConfig(N=args.N, S=0, offset=args.offset)
    g = build_side_chain_graph(cfg)
    target = args.N
    if args.method == "sticky":  # validated before the reference run
        sticky = attach_sticky_vertex(g, target)
        jump = (target, sticky.n) if args.jump_direction == "as-printed" else (sticky.n, target)
        lcfg = LindbladConfig(rate=args.lam, potential=args.V, jump=jump)
    ref, ref_grid = experiments.run_pipeline(quantum.spectrum(g), target, args.dt, args.epsilon)
    grid = TimeGrid.from_span(ref.tau0 + 6.0, args.dt)
    sigma_vertices = tuple(v for v in range(1, target + (1 if args.sigma_includes_target else 0)))
    config = {"N": args.N, "method": args.method, "dt": args.dt,
              "sigma_includes_target": args.sigma_includes_target}
    if args.method == "sticky":
        rho = evolve_lindblad(sticky, lcfg, 1, grid)
        est = sticky_first_passage(rho, sigma_vertices, tau0_reference=ref.tau0)
        config.update({"lambda": args.lam, "V": args.V,
                       "jump_direction": args.jump_direction})
    else:
        est = ring_first_passage(g, target, args.M, 1, grid,
                                 sigma_vertices=sigma_vertices,
                                 tau0_reference=ref.tau0)
        config.update({"M": args.M})
    err = overlay_l2_error(est, ref.F, ref_grid, ref.tau0)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    io.write_columns_csv(
        args.out_dir / "sigma_F.csv", ["t", "sigma", "F"],
        [grid.times, est.sigma, est.F], config,
    )
    payload = {
        "N": args.N,
        "method": args.method,
        "lambda": args.lam if args.method == "sticky" else None,
        "V": args.V if args.method == "sticky" else None,
        "M": args.M if args.method == "ring" else None,
        "overlay_L2_error": err,
        "tau0_estimate": est.tau0,
        "tau0_reference": ref.tau0,
        "normalization": est.normalization,
        "sigma_vertices": list(est.sigma_vertices),
        "recurrence_time": est.recurrence_time,
        **(rho.diagnostics if args.method == "sticky" else {}),
    }
    io.write_json(args.out_dir / "overlay.json", payload, config)
    print(f"overlay L2 error = {err:.4f} -> {args.out_dir}")
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    check_sampling_args(args.n_traj, args.bin_width, args.t_cap)
    cfg = SideChainConfig(N=args.N, S=args.S, offset=args.offset)
    g = build_side_chain_graph(cfg)
    target = args.N
    config = {**_model_config(args), "n_traj": args.n_traj, "seed": args.seed,
              "bin_width": args.bin_width}
    result, grid = experiments.run_pipeline(  # rejects a bad --epsilon before sampling
        classical.build_rate_matrix(g), target, args.dt, args.epsilon
    )
    hist = gillespie_first_passage(
        g, 1, target, args.n_traj, seed=args.seed,
        bin_width=args.bin_width, t_cap=args.t_cap,
    )
    l1 = histogram_density_l1(hist, grid.times, result.F)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    io.write_columns_csv(
        args.out_dir / "histogram.csv",
        ["t_left", "t_right", "density"],
        [hist.bin_edges[:-1], hist.bin_edges[1:], hist.density],
        config,
    )
    payload = {
        "l1_distance": l1,
        "empirical_mean": hist.empirical_mean,
        "empirical_stderr": hist.empirical_stderr,
        "pipeline_tau": result.tau,
        "mfpt_linear_solve": classical.mfpt_linear_solve(g, 1, target),
        "n_capped": hist.n_capped,
        "capped_fraction": hist.n_capped / hist.n_traj,
    }
    io.write_json(args.out_dir / "comparison.json", payload, config)
    mean = "n/a" if hist.empirical_mean is None else f"{hist.empirical_mean:.3f}"
    print(f"L1 distance = {l1:.4f}  mean = {mean} -> {args.out_dir}")
    if hist.n_capped:
        print(f"note: {hist.n_capped} of {hist.n_traj} trajectories "
              f"({hist.n_capped / hist.n_traj:.1%}) passed --t-cap {args.t_cap:g}; "
              "the mean is over finite hitting times only")
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    study = experiments.entropy_study(args.N, offset=args.offset, dt=args.dt,
                                      eps=args.epsilon)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for s, case in sorted(study.cases.items()):
        config = {"N": args.N, "S": s, "offset": args.offset, "dt": args.dt}
        io.write_columns_csv(
            args.out_dir / f"entropy_S{s}.csv", ["t", "E"],
            [case.grid.times, case.entropy], config,
        )
        io.write_json(
            args.out_dir / f"entropy_S{s}.json",
            {"N": args.N, "S": s, "avg_entropy": case.average, "tau0": case.tau0},
            config,
        )
    print(f"<E''> - <E> = {study.average_gap_2_0:.6f} -> {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _inject_config_defaults(argv: list[str]) -> list[str]:
    """Expand --config FILE into leading key=value flags after the subcommand."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValidationError("--config needs a file argument")
    injected: list[str] = []
    for raw in Path(argv[idx + 1]).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {line!r} is not key=value")
        key, value = line.split("=", 1)
        flag = "--" + key.strip().replace("_", "-")
        injected += [flag, value.strip()]
    # insert right after the subcommand so explicit flags (later) win
    return argv[:1] + injected + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv and not argv[0].startswith("-"):
            argv = _inject_config_defaults(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, OSError) as exc:  # OSError: a path named on the command line
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 1
    except WorkerDied as exc:
        print(f"error: worker process died: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
