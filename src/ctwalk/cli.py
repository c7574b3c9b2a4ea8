"""Command-line front end.

Subcommands: simulate (one case), sweep (N x S tables plus the power-law
fit), ancillary (sticky-tail and ring estimators vs the convolution
result), montecarlo (ensemble sampling vs the convolution result), and
entropy (coherence diagnostics).

Exit codes: 0 success (--help included); 1 a NumericsError or a worker
process that died; 2 a ValidationError, an argument the parser rejects or
an unreadable path. Each failure prints "error: ..." as the first line on
stderr. Flags can be preloaded from a plain key=value file via --config;
explicit flags win. A flag a run does not read is refused with exit code 2,
from --config too: ancillary refuses the other method's flags, simulate
--graph-file the chain model's.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, astuple
from pathlib import Path

from . import classical, experiments, io, quantum
from .errors import NumericsError, ValidationError, refuse_over
from .gillespie import (
    check_jump_count_table,
    check_sampling_args,
    gillespie_first_passage,
    histogram_density_l1,
)
from .graphs import (
    SideChainConfig,
    build_side_chain_graph,
    check_ring,
    check_vertex_count,
    from_edge_list_text,
)
from .grid import TimeGrid
from .open_quantum import (
    LindbladConfig,
    check_sticky,
    overlay_l2_error,
    ring_first_passage,
    sticky_first_passage,
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
    p.add_argument("--N", type=int, default=9, help="main-chain length (default 9)")
    p.add_argument("--offset", type=int, default=0,
                   help="mount offset from the center (default 0)")


# most CSV cells a --full-series run may write: grid points times columns, which
# are t and one per vertex (classical), and for the quantum walk also t and the
# real and imaginary part per vertex. Cells take about 21 B, so 2.8 GB at the
# bound; the largest shipped case, classical N = 43, S = 2 at dt = 0.01, writes
# 101,788,156 cells (2,212,786 points x 46 columns)
MAX_SERIES_CELLS = 1 << 27

# flags only some runs read, None unless given: dest -> (flag, value a reading run defaults to)
OPTIONAL = {"N": ("--N", 9), "S": ("--S", 0), "offset": ("--offset", 0), "lam": ("--lambda", 5.0),
            "V": ("--V", -2.5), "jump_direction": ("--jump-direction", "as-printed"),
            "M": ("--M", 10)}


def _settle(args: argparse.Namespace, used: tuple, refused: tuple, context: str) -> None:
    """Refuse the flags of refused that were given with context; fill in those of used."""
    given = [OPTIONAL[dest][0] for dest in refused if getattr(args, dest) is not None]
    if given:
        raise ValidationError(f"{', '.join(given)} cannot be used with {context}")
    for dest in used:
        if getattr(args, dest) is None:
            setattr(args, dest, OPTIONAL[dest][1])


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejections raise ValidationError, so main reports them."""

    def error(self, message: str):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctwalk",
        description="continuous-time walks on chains with switchable side vertices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one case end to end")
    _add_model(p_sim)
    p_sim.add_argument("--S", type=int, help="side-chain length (default 0)")
    _add_common(p_sim)
    p_sim.add_argument("--walk", choices=("classical", "quantum"), default="quantum")
    p_sim.add_argument(
        "--graph-file", type=Path, default=None,
        help="edge-list file replacing the chain model (first line n=<count>); "
             "refuses --N, --S and --offset",
    )
    p_sim.add_argument("--start", type=int, default=None, help="default 1")
    p_sim.add_argument("--target", type=int, default=None,
                       help="default N, or the last vertex of --graph-file")
    p_sim.add_argument(
        "--full-series", action="store_true",
        help="also write the per-vertex occupation series",
    )
    p_sim.set_defaults(func=cmd_simulate, N=None, S=None, offset=None)  # see OPTIONAL

    p_sweep = sub.add_parser("sweep", help="sweep N and S, emit tables and the fit")
    _add_common(p_sweep)
    p_sweep.add_argument("--walk", choices=("classical", "quantum"), default="quantum")
    p_sweep.add_argument("--N-range", default="3:43:2", help="start:stop:step, stop inclusive")
    p_sweep.add_argument("--S-set", default="0,1,2", help="comma-separated side-chain lengths")
    p_sweep.add_argument("--offset", type=int, default=0)
    p_sweep.add_argument("--jobs", type=int, choices=(1,), default=1,
                         help="accepted for old command lines: only 1; cases always "
                              "run in this process")
    p_sweep.add_argument("--cache-dir", type=Path, default=None,
                         help="case cache (default <out-dir>/cache)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_anc = sub.add_parser("ancillary", help="absorber estimators vs the convolution F")
    p_anc.add_argument("--N", type=int, default=9, help="main-chain length (default 9)")
    _add_common(p_anc)
    p_anc.add_argument("--method", choices=("sticky", "ring"), required=True)
    p_anc.add_argument("--lambda", dest="lam", type=float,  # these four: see OPTIONAL
                       help="sticky only: dissipation rate of the coupling (default 5)")
    p_anc.add_argument("--V", type=float, help="sticky only: on-site potential (default -2.5)")
    p_anc.add_argument("--M", type=int, help="ring only: ring size (default 10)")
    p_anc.add_argument(
        "--jump-direction", choices=("as-printed", "reversed"),
        help="sticky only: as-printed (default), L = |target><sticky|; "
             "reversed, L = |sticky><target|",
    )
    p_anc.add_argument(
        "--sigma-includes-target", action="store_true",
        help="count the target vertex in the complement probability",
    )
    p_anc.set_defaults(func=cmd_ancillary)

    p_mc = sub.add_parser("montecarlo", help="ensemble first-passage histogram")
    _add_model(p_mc)
    p_mc.add_argument("--S", type=int, default=0, help="side-chain length")
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
    chain = ("N", "S", "offset")
    used, refused = ((), chain) if args.graph_file is not None else (chain, ())
    _settle(args, used, refused, "--graph-file")
    if args.graph_file is not None:
        g = from_edge_list_text(args.graph_file.read_text())
        config, last = {"graph": str(args.graph_file), "dt": args.dt,
                        "epsilon": args.epsilon}, g.n
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
    if args.walk == "quantum":  # refused before the eigh
        experiments.quantum_grid(target, args.dt)
    model = experiments.walk_model(g, args.walk)
    result, grid = experiments.run_pipeline(model, target, args.dt, args.epsilon, start=start)
    if args.full_series:
        columns = g.n + 1 + (2 * g.n + 1 if args.walk == "quantum" else 0)
        refuse_over(grid.n * columns, MAX_SERIES_CELLS,
                    f"--full-series would write {grid.n * columns:,} CSV cells ({grid.n:,} "
                    f"grid points x {columns} columns), which", "raise dt or drop --full-series")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.full_series and args.walk == "quantum":
        amp = quantum.evolve_schrodinger(model, start, grid)
        io.write_amplitude_series_csv(args.out_dir / "amplitudes.csv", amp, grid, config)
        io.write_occupation_csv(args.out_dir / "occupations.csv", amp, grid, config)
    elif args.full_series:
        occ = classical.evolve_master(model, start, grid)
        io.write_probability_series_csv(args.out_dir / "occupations.csv", occ, grid, config)
    t = grid.lazy_times()
    io.write_csvs(
        [(args.out_dir / f"P{start}{target}.csv", ["t", "P"], [t, result.p_ab]),
         (args.out_dir / f"P{target}{target}.csv", ["t", "P"], [t, result.p_bb]),
         (args.out_dir / "F.csv", ["t", "F"], [t, result.F])],
        config,
    )
    payload = {
        "N": g.n if args.graph_file else args.N,
        "S": args.S,
        "offset": args.offset,
        "walk": args.walk,
        "tau0": result.tau0,
        "tau": result.tau,
        "norm": result.norm,
        "reconstruction_error": result.reconstruction_error,
        "residual_kind": result.residual_kind,
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
    if step <= 0 or not 2 <= start <= stop:
        raise ValidationError(f"bad --N-range {text!r}: need 2 <= start <= stop, step >= 1")
    check_vertex_count(start + (stop - start) // step * step)  # the largest N, before the list
    return list(range(start, stop + 1, step))


def cmd_sweep(args: argparse.Namespace) -> int:
    cache_dir = args.cache_dir if args.cache_dir is not None else args.out_dir / "cache"
    ns = _parse_range(args.N_range)
    s_values = sorted({_int(x, "--S-set") for x in args.S_set.split(",") if x.strip() != ""})
    if not s_values:
        raise ValidationError(f"--S-set names no side-chain length, got {args.S_set!r}")
    config = {"walk": args.walk, "N_range": args.N_range, "S_set": args.S_set,
              "offset": args.offset, "dt": args.dt, "epsilon": args.epsilon}
    records = experiments.sweep(
        ns, s_values, args.offset, args.walk,
        dt=args.dt, eps=args.epsilon, cache_dir=cache_dir,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    io.write_jsonl(args.out_dir / "records.jsonl", [asdict(r) for r in records])

    by_n = experiments.group_by_n(records)
    header = ["N"] + [f"tau_S{s}" for s in s_values]
    full_triple = {0, 1, 2}.issubset(set(s_values))
    if full_triple:
        header += ["d1", "d2", "d2_prime", "d1_over_tau", "d2_over_tau"]
        deltas = experiments.delta_table(records)
    lines = [io.config_line(config), ",".join(header)]
    for n, group in by_n.items():
        row = [str(n)] + [io.fmt(group[s].tau) for s in s_values]
        if full_triple:
            row += [io.fmt(x) for x in astuple(deltas[n])]  # d1, d2, d2_prime, ratios
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
    sticky_flags, ring_flags = ("lam", "V", "jump_direction"), ("M",)
    used, refused = ((sticky_flags, ring_flags) if args.method == "sticky"
                     else (ring_flags, sticky_flags))
    _settle(args, used, refused, f"--method {args.method}")
    g = build_side_chain_graph(SideChainConfig(N=args.N))
    target = args.N
    # every input is validated before the reference run, the grid before its eigh
    if args.method == "sticky":
        lcfg = LindbladConfig(rate=args.lam, potential=args.V, direction=args.jump_direction)
        check_sticky(g, target)
    else:
        check_ring(g, target, args.M)
    experiments.quantum_grid(target, args.dt)
    ref, ref_grid = experiments.run_pipeline(quantum.spectrum(g), target, args.dt, args.epsilon)
    grid = TimeGrid.from_span(ref.tau0 + 6.0, args.dt)
    sigma_vertices = tuple(v for v in range(1, target + (1 if args.sigma_includes_target else 0)))
    config = {"N": args.N, "method": args.method, "dt": args.dt,
              "sigma_includes_target": args.sigma_includes_target}
    if args.method == "sticky":
        est = sticky_first_passage(g, target, lcfg, 1, grid, sigma_vertices)
        config.update({"lambda": args.lam, "V": args.V,
                       "jump_direction": args.jump_direction})
    else:
        est = ring_first_passage(g, target, args.M, 1, grid, sigma_vertices)
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
        "lambda": args.lam,  # None for the method that refuses the flag
        "V": args.V,
        "M": args.M,
        "overlay_L2_error": err,
        "tau0_estimate": est.tau0,
        "tau0_reference": ref.tau0,
        "normalization": est.normalization,
        "sigma_vertices": list(sigma_vertices),
        "recurrence_time": est.recurrence_time,
        **est.diagnostics,
    }
    io.write_json(args.out_dir / "overlay.json", payload, config)
    print(f"overlay L2 error = {err:.4f} -> {args.out_dir}")
    if est.recurrence_time is not None and est.recurrence_time < ref.tau0:
        print(f"note: sigma rises again at t = {est.recurrence_time:.3f}, inside the "
              f"reference horizon {ref.tau0:.3f}; the absorber is too small and the "
              "estimate is contaminated")
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    check_sampling_args(args.n_traj, args.seed, args.bin_width, args.t_cap)
    g = build_side_chain_graph(SideChainConfig(N=args.N, S=args.S, offset=args.offset))
    target = args.N
    check_jump_count_table(g, target)  # also before the reference solve
    config = {**_model_config(args), "n_traj": args.n_traj, "seed": args.seed,
              "bin_width": args.bin_width, "t_cap": args.t_cap}
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
    cases = experiments.entropy_study(args.N, offset=args.offset, dt=args.dt,
                                      eps=args.epsilon)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for s, case in sorted(cases.items()):
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
    print(f"<E''> - <E> = {cases[2].average - cases[0].average:.6f} -> {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _inject_config_defaults(argv: list[str]) -> list[str]:
    """Expand --config FILE, spelled any way the parser accepts, into key=value flags
    right after the subcommand, so explicit flags (later) win. key=true gives the
    bare flag and key=false gives nothing, for the flags that take no value."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config", type=Path)
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    injected: list[str] = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {line!r} is not key=value")
        key, value = line.split("=", 1)
        flag, value = "--" + key.strip().replace("_", "-"), value.strip()
        injected += {"true": [flag], "false": []}.get(value.lower(), [flag, value])
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
