import numpy as np
import pytest

from ctwalk import (
    SideChainConfig,
    TimeGrid,
    ValidationError,
    build_side_chain_graph,
    classical,
    experiments,
    quantum,
)
import ctwalk.grid as grid_mod
from ctwalk.grid import ModeSum, exp_modes

SMALL_BLOCK = 8
SIZES = [1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 1]


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(grid_mod, "BLOCK", SMALL_BLOCK)


def per_mode_exp(rates, coefs, times):
    out = np.zeros((coefs.shape[0], len(times)), dtype=np.result_type(rates, coefs))
    for j, rate in enumerate(rates):
        out += coefs[:, j:j + 1] * np.exp(rate * times)
    return out


def per_mode_power(bases, coefs, n):
    out = np.zeros((coefs.shape[0], n))
    for j, base in enumerate(bases):
        out += coefs[:, j:j + 1] * base ** np.arange(n, dtype=float)
    return out


RNG = np.random.default_rng(11)
REAL_RATES = -np.abs(RNG.standard_normal(6))
PHASES = -1j * RNG.standard_normal(6)
COEFS = RNG.standard_normal((3, 6))
BASES = np.array([0.99, -0.97, 0.5, 0.0, 1.0, -1.0])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("rates", [REAL_RATES, PHASES], ids=["real", "complex"])
def test_blocked_exponentials_match_per_mode_sum(small_block, n, rates):
    dt = 0.37
    got = ModeSum(COEFS, n, lambda k: np.exp(np.multiply.outer(rates, k * dt))).span(0, n)
    want = per_mode_exp(rates, COEFS, np.arange(n) * dt)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)
    if n >= 2:
        assert np.array_equal(exp_modes(rates, COEFS, TimeGrid(dt=dt, n=n)).span(0, n), got)


@pytest.mark.parametrize("n", SIZES)
def test_blocked_powers_match_per_mode_sum(small_block, n):
    got = ModeSum(COEFS, n, lambda k: np.power.outer(BASES, k)).span(0, n)
    assert np.allclose(got, per_mode_power(BASES, COEFS, n), rtol=0.0, atol=1e-13)


def _exp_modes(rates):
    return lambda k: np.exp(np.multiply.outer(rates, k * 0.01))


def _power_modes(bases):
    return lambda k: np.power.outer(bases, k)


def _walk_modes():
    """Modes of the N = 43, S = 2 chain at dt = 0.01 (quantum phases, classical decays,
    powers of the classical first-passage density), and bases whose powers underflow."""
    g = build_side_chain_graph(SideChainConfig(N=43, S=2))
    rm = classical.build_rate_matrix(g)
    rho = experiments.run_pipeline(rm, 43, 0.01, 1e-6)[0].F.rho
    return {
        "quantum": (_exp_modes, quantum.spectrum(g).rates),
        "classical": (_exp_modes, rm.spectrum.rates),
        "powers": (_power_modes, rho),
        "bases": (_power_modes, np.append(BASES, [0.7, -0.8])),
    }


WALK_MODES = _walk_modes()


@pytest.mark.parametrize("block", [SMALL_BLOCK, grid_mod.BLOCK], ids=["small", "full"])
@pytest.mark.parametrize("kind", list(WALK_MODES))
def test_block_matches_modes_at_every_point(monkeypatch, block, kind):
    """The block built from a 64-point seed times its stride-64 offsets is the direct one."""
    monkeypatch.setattr(grid_mod, "BLOCK", block)
    make, params = WALK_MODES[kind]
    modes = make(params)
    got = ModeSum(np.ones((1, len(params))), 10_000, modes)._block
    want = modes(np.arange(block))
    assert got.shape == want.shape and got.dtype == want.dtype
    # 0.7^k and 0.8^k pass through subnormals near k = 2,000 and 3,200, where only atol holds
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 1000, 4096, 3 * 4096 + 5])
def test_modes_are_taken_at_a_seed_and_offsets_only(n):
    """Building a block takes modes at 64 + width / 64 points, and each block one offset."""
    seen = []

    def modes(k):
        seen.append(len(k))
        return np.exp(np.multiply.outer(PHASES, k * 0.01))

    rows = ModeSum(COEFS, n, modes)
    rows.span(0, n)
    width = min(grid_mod.BLOCK, -(-n // 64) * 64)
    blocks = -(-n // grid_mod.BLOCK)
    assert sum(seen) <= 64 + width // 64 + blocks, seen


@pytest.mark.parametrize("rates", [REAL_RATES, PHASES], ids=["real", "complex"])
def test_row_bits_do_not_depend_on_other_rows(small_block, rates):
    grid = TimeGrid(dt=0.01, n=3 * SMALL_BLOCK + 1)
    together = exp_modes(rates, COEFS, grid).span(0, grid.n)
    for i in range(COEFS.shape[0]):
        alone = exp_modes(rates, COEFS[i:i + 1], grid).span(0, grid.n)[0]
        assert np.array_equal(alone, together[i])


@pytest.mark.parametrize("rates", [REAL_RATES, PHASES], ids=["real", "complex"])
def test_lazy_rows_slice_the_bits_of_the_full_sum(small_block, rates):
    """Every span of a row, aligned to the blocks or not, is cut from the same blocks."""
    grid = TimeGrid(dt=0.01, n=3 * SMALL_BLOCK + 3)
    rows = exp_modes(rates, COEFS, grid)
    full = rows.span(0, grid.n)
    for i in range(COEFS.shape[0]):
        row = rows.row(i)
        assert len(row) == grid.n
        assert np.array_equal(np.asarray(row), full[i])
        for lo in range(grid.n + 1):
            for hi in range(lo, grid.n + 1):
                assert np.array_equal(row[lo:hi], full[i, lo:hi]), (lo, hi)


def test_lazy_row_indexes_like_an_array(small_block):
    grid = TimeGrid(dt=0.25, n=2 * SMALL_BLOCK + 5)
    row, want = grid.lazy_times(), grid.times
    assert np.array_equal(np.asarray(row), want)
    for key in (slice(None), slice(3, -2), slice(-5, None), slice(9, 4), slice(-grid.n, 2)):
        assert np.array_equal(row[key], want[key]), key
    for bad in (0, slice(None, None, 2)):
        with pytest.raises(TypeError, match="step-1 slices"):
            row[bad]


@pytest.mark.parametrize("part", [np.real, np.imag, lambda z: np.abs(z) ** 2, lambda z: z * 3.5],
                         ids=["real", "imag", "abs2", "scaled"])
def test_row_part_maps_the_bits_of_each_span(small_block, part):
    grid = TimeGrid(dt=0.01, n=3 * SMALL_BLOCK + 3)
    rows = exp_modes(PHASES, COEFS, grid)
    full = rows.span(0, grid.n)
    for i in range(COEFS.shape[0]):
        row = rows.row(i, part)
        assert np.array_equal(np.asarray(row), part(full[i]))
        for lo, hi in [(0, 5), (SMALL_BLOCK - 2, 2 * SMALL_BLOCK + 1), (grid.n - 1, grid.n)]:
            assert np.array_equal(row[lo:hi], part(full[i, lo:hi])), (lo, hi)


@pytest.mark.parametrize("dt", [0.01, 0.1, 0.37, 1.0 / 3.0])
def test_last_index_is_the_last_grid_point_up_to_the_horizon(dt):
    grid = TimeGrid(dt=dt, n=40)
    for horizon in [dt, 2.5 * dt, 7 * dt, 7 * dt + 5e-13, 7 * dt - 5e-13, 7 * dt + 1e-9,
                    grid.t_end, grid.t_end + 1e-12, 0.3]:
        want = np.count_nonzero(grid.times <= horizon + 1e-12) - 1
        assert grid.last_index(horizon) == want, horizon
    for bad in [0.0, -dt, grid.t_end + 1e-9, float("nan")]:
        with pytest.raises(ValidationError, match="outside grid span"):
            grid.last_index(bad)


def test_from_span_refuses_a_grid_past_exact_counting():
    # 2**53 - 1 steps is the largest count refused by no check here; the
    # budgets of the callers lie far below it
    assert TimeGrid.from_span(2.0**53 - 1, 1.0).n == 2**53
    for t_end, dt in [(2.0**53, 1.0), (18.6, 5e-324), (18.6, 1e-300)]:
        with pytest.raises(ValidationError, match="2\\*\\*53 or more; raise dt") as err:
            TimeGrid.from_span(t_end, dt)
        assert len(str(err.value)) < 200
