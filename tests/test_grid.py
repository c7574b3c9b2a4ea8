import numpy as np
import pytest

from ctwalk import TimeGrid
import ctwalk.grid as grid_mod
from ctwalk.grid import ModeSum, exp_sum

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
        assert np.array_equal(exp_sum(rates, COEFS, TimeGrid(dt=dt, n=n)), got)


@pytest.mark.parametrize("n", SIZES)
def test_blocked_powers_match_per_mode_sum(small_block, n):
    got = ModeSum(COEFS, n, lambda k: np.power.outer(BASES, k)).span(0, n)
    assert np.allclose(got, per_mode_power(BASES, COEFS, n), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("rates", [REAL_RATES, PHASES], ids=["real", "complex"])
def test_row_bits_do_not_depend_on_other_rows(small_block, rates):
    grid = TimeGrid(dt=0.01, n=3 * SMALL_BLOCK + 1)
    together = exp_sum(rates, COEFS, grid)
    for i in range(COEFS.shape[0]):
        assert np.array_equal(exp_sum(rates, COEFS[i:i + 1], grid)[0], together[i])


@pytest.mark.parametrize("rates", [REAL_RATES, PHASES], ids=["real", "complex"])
def test_lazy_rows_slice_the_bits_of_the_full_sum(small_block, rates):
    """Every span of a row, aligned to the blocks or not, is cut from the same blocks."""
    grid = TimeGrid(dt=0.01, n=3 * SMALL_BLOCK + 3)
    full = exp_sum(rates, COEFS, grid)
    rows = grid_mod.exp_modes(rates, COEFS, grid)
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
    for key in (0, 7, -1, -grid.n, slice(None), slice(3, -2), slice(-5, None),
                slice(None, None, 3), slice(None, None, -2), slice(9, 4)):
        assert np.array_equal(row[key], want[key]), key
    assert list(row) == list(want)
    for bad in (grid.n, -grid.n - 1):
        with pytest.raises(IndexError):
            row[bad]
