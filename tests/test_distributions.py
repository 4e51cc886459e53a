import itertools

import numpy as np
import pytest
from scipy import stats

import pompkit as pk
from pompkit.distributions import euler_multinomial_probs
from pompkit.exceptions import DomainError


def lattice(size, k):
    """All exit-count vectors with sum <= size."""
    return [c for c in itertools.product(range(size + 1), repeat=k)
            if sum(c) <= size]


# ---------------------------------------------------------------------------
# reulermultinom


def test_zero_rates_give_zero_counts():
    rng = np.random.default_rng(0)
    counts = pk.reulermultinom(100, [0.0, 0.0], 1.0, rng)
    assert counts.tolist() == [0, 0]


def test_single_exit_probability_matches_closed_form():
    lam, dt, n = 2.0, 0.1, 100_000
    rng = np.random.default_rng(7)
    draws = pk.reulermultinom(np.ones(n, dtype=int), np.full((n, 1), lam), dt, rng)
    p_exact = 1.0 - np.exp(-lam * dt)  # 0.18127
    assert p_exact == pytest.approx(0.1813, abs=5e-5)
    p_hat = draws[:, 0].mean()
    se = np.sqrt(p_exact * (1 - p_exact) / n)
    assert abs(p_hat - p_exact) < 3 * se


def test_large_dt_splits_evenly_with_no_stayers():
    size, n = 1000, 2000
    rng = np.random.default_rng(11)
    counts = pk.reulermultinom(np.full(n, size), np.tile([1.0, 1.0], (n, 1)), 50.0, rng)
    assert np.all(counts.sum(axis=1) == size)  # stay probability ~ e^-100
    mean = counts[:, 0].mean()
    se = np.sqrt(size * 0.25 / n)
    assert abs(mean - 500.0) < 3 * se


def test_counts_never_exceed_size():
    rng = np.random.default_rng(3)
    for _ in range(200):
        size = rng.integers(0, 30)
        rates = rng.uniform(0, 5, size=3)
        counts = pk.reulermultinom(size, rates, 0.3, rng)
        assert counts.sum() <= size
        assert np.all(counts >= 0)


def test_domain_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        pk.reulermultinom(-1, [1.0], 1.0, rng)
    with pytest.raises(DomainError):
        pk.reulermultinom(5, [-1.0], 1.0, rng)
    with pytest.raises(DomainError):
        pk.reulermultinom(5, [1.0], 0.0, rng)
    with pytest.raises(DomainError):
        pk.dnbinom_mu(1, 0.0, 1.0)
    with pytest.raises(DomainError):
        pk.dnbinom_mu(1, 1.0, -1.0)


def _reference_probs(r, dt):
    total = r.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, r / np.where(total > 0, total, 1.0), 0.0)
    return p * (-np.expm1(-total * float(dt)))


def _reference_reulermultinom(size, rates, dt, rng):
    """The stick-breaking sampler as first written, kept as an oracle for the
    leaner one: both must make the same draws from the same generator."""
    rates2 = np.asarray(rates, dtype=float)
    if rates2.ndim == 1:
        rates2 = rates2[None, :]
    size_arr = np.asarray(size, dtype=float)
    scalar = np.ndim(size) == 0 and np.asarray(rates).ndim == 1
    n = max(rates2.shape[0], size_arr.size if size_arr.ndim else 1)
    p = _reference_probs(np.broadcast_to(rates2, (n, rates2.shape[1])), dt)
    remaining = np.broadcast_to(np.asarray(size_arr, dtype=np.int64), (n,)).copy()
    remaining_p = np.ones(n)
    counts = np.zeros((n, p.shape[1]), dtype=np.int64)
    for j in range(p.shape[1]):
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(remaining_p > 0, p[:, j] / np.where(remaining_p > 0, remaining_p, 1.0), 0.0)
        q = np.clip(q, 0.0, 1.0)
        draw = rng.binomial(remaining, q)
        counts[:, j] = draw
        remaining -= draw
        remaining_p -= p[:, j]
    return counts[0] if scalar else counts


def _sir_shaped_spec():
    """Sizes and rates shaped as one seasonal-SIR step passes them (J=200)."""
    rng = np.random.default_rng(4)
    n = 200
    sizes = rng.integers(0, 30000, size=n).astype(np.int64)
    rates = np.empty((n, 2))
    rates[:, 0] = rng.uniform(0.0, 400.0, size=n)
    rates[:, 1] = 0.02
    return sizes, rates, 1.0 / 52.0 / 20.0


@pytest.mark.parametrize("size,rates,dt", [
    pytest.param(100, [0.0, 0.0], 1.0, id="zero-total-rate"),
    pytest.param(np.array([5, 0, 7]), np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 3.0]]), 0.5,
                 id="mixed-zero-rows"),
    pytest.param(0, [1.0, 2.0, 3.0], 0.7, id="size-0"),
    pytest.param(np.arange(6), np.full((6, 1), 2.5), 0.3, id="k-1"),
    pytest.param(40, [0.5, 1.5, 2.5], 0.2, id="scalar-size-1d-rates"),
    pytest.param(np.arange(0, 200, 10), [0.5, 1.5, 2.5], 0.2, id="n-sizes-k-rates"),
    pytest.param(25, np.tile([0.3, 0.1], (8, 1)), 0.4, id="scalar-size-nk-rates"),
    pytest.param(np.array([50, 60]), np.array([[1e3, 0.0], [1e3, 2.0]]), 10.0,
                 id="route-0-takes-all-mass"),
    pytest.param(np.array([1000, 3, 99]), np.array([[0.2, 0.5, 1.0], [2.0, 0.0, 0.1],
                                                    [0.0, 0.0, 4.0]]), 0.9, id="k-3"),
    pytest.param(*_sir_shaped_spec(), id="sir-step-shapes"),
])
def test_reulermultinom_matches_reference_draw_for_draw(size, rates, dt):
    expected = _reference_reulermultinom(size, rates, dt, np.random.default_rng(12))
    got = pk.reulermultinom(size, rates, dt, np.random.default_rng(12))
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_reulermultinom_probs_match_reference_bit_for_bit():
    # draws can agree while probabilities differ in the last bit, so the
    # probabilities are compared exactly as well
    rng = np.random.default_rng(8)
    for k in (1, 2, 3, 5):
        rates = rng.uniform(0.0, 50.0, size=(300, k)) * (rng.random((300, k)) > 0.2)
        for dt in (1.0 / 1040.0, 0.3, 25.0):
            assert np.array_equal(euler_multinomial_probs(rates, dt),
                                  _reference_probs(rates, dt))


def test_reulermultinom_draws_continue_the_reference_stream():
    # the generators stay in step across calls, as in a simulator's step loop
    ref_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
    sizes, rates, dt = _sir_shaped_spec()
    for _ in range(5):
        expected = _reference_reulermultinom(sizes, rates, dt, ref_rng)
        assert np.array_equal(pk.reulermultinom(sizes, rates, dt, rng), expected)
        sizes = sizes - expected.sum(axis=1)


@pytest.mark.parametrize("size,rates,dt", [
    pytest.param(5, [np.nan, 1.0], 1.0, id="nan-rate"),
    pytest.param(5, [np.inf, 1.0], 1.0, id="inf-rate"),
    pytest.param(5, [1.0, -0.5], 1.0, id="negative-rate"),
    pytest.param(np.array([3, 4]), np.array([[1.0], [np.nan]]), 1.0, id="nan-rate-row"),
    pytest.param(2.5, [1.0], 1.0, id="fractional-size"),
    pytest.param(np.array([2.0, -1.0]), [1.0], 1.0, id="negative-float-size"),
    pytest.param(np.array([2, -1]), [1.0], 1.0, id="negative-int-size"),
    pytest.param(np.nan, [1.0], 1.0, id="nan-size"),
    pytest.param(5, [1.0], 0.0, id="zero-dt"),
    pytest.param(5, [1.0], -0.1, id="negative-dt"),
    pytest.param(5, [1.0], np.array([0.1, 0.2]), id="array-dt"),
])
def test_reulermultinom_rejects_out_of_domain_arguments(size, rates, dt):
    with pytest.raises(DomainError):
        pk.reulermultinom(size, rates, dt, np.random.default_rng(0))


def test_density_domain_checks_reject_nan_and_nonpositive_scales():
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(DomainError):
            pk.dlnorm(1.0, 0.0, bad)
        with pytest.raises(DomainError):
            pk.dnbinom_mu(1, bad, 1.0)
    for bad in (-1.0, np.nan):
        with pytest.raises(DomainError):
            pk.dnbinom_mu(1, 1.0, np.array([1.0, bad]))


def test_dlnorm_rejects_bad_scales_in_every_form():
    for bad in (0.0, -1.0, np.nan):
        for sdlog in (np.float64(bad), np.array(bad)):
            with pytest.raises(DomainError, match="sdlog"):
                pk.dlnorm(1.0, 0.0, sdlog)


# ---------------------------------------------------------------------------
# deulermultinom


def test_no_exits_certain_at_zero_rates():
    assert pk.deulermultinom([0, 0], 5, [0.0, 0.0], 1.0) == pytest.approx(1.0)


def test_density_sums_to_one_on_lattice():
    size, rates, dt = 3, [1.0, 0.5], 0.1
    total = sum(pk.deulermultinom(c, size, rates, dt) for c in lattice(size, 2))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_impossible_counts_have_zero_density():
    assert pk.deulermultinom([4, 0], 3, [1.0, 1.0], 0.5) == 0.0
    assert pk.deulermultinom([4, 0], 3, [1.0, 1.0], 0.5, log=True) == -np.inf
    assert pk.deulermultinom([-1, 0], 3, [1.0, 1.0], 0.5) == 0.0


def test_density_sums_to_one_randomized_specs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        size = int(rng.integers(0, 7))
        k = int(rng.integers(1, 4))
        rates = rng.uniform(0.0, 3.0, size=k)
        dt = float(rng.uniform(0.05, 2.0))
        total = sum(pk.deulermultinom(c, size, rates, dt) for c in lattice(size, k))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_sampler_density_chi_square_agreement():
    rng = np.random.default_rng(17)
    spec_rng = np.random.default_rng(99)
    for _ in range(5):
        size = int(spec_rng.integers(1, 12))
        k = int(spec_rng.integers(1, 4))
        rates = spec_rng.uniform(0.1, 3.0, size=k)
        dt = float(spec_rng.uniform(0.05, 1.0))
        n = 20_000
        draws = pk.reulermultinom(np.full(n, size), np.tile(rates, (n, 1)), dt, rng)
        outcomes = lattice(size, k)
        probs = np.array([pk.deulermultinom(c, size, rates, dt) for c in outcomes])
        index = {c: i for i, c in enumerate(outcomes)}
        observed = np.zeros(len(outcomes))
        for row in map(tuple, draws):
            observed[index[row]] += 1
        expected = probs * n
        # merge cells with tiny expectation to keep the chi-square valid
        keep = expected >= 5
        obs_merged = np.append(observed[keep], observed[~keep].sum())
        exp_merged = np.append(expected[keep], expected[~keep].sum())
        mask = exp_merged > 0
        chi2 = ((obs_merged[mask] - exp_merged[mask]) ** 2 / exp_merged[mask]).sum()
        pval = stats.chi2.sf(chi2, df=mask.sum() - 1)
        assert pval > 0.001


def test_marginal_exit_is_binomial():
    size, rates, dt = 8, np.array([1.2, 0.4, 0.8]), 0.2
    n = 30_000
    rng = np.random.default_rng(23)
    draws = pk.reulermultinom(np.full(n, size), np.tile(rates, (n, 1)), dt, rng)
    p = euler_multinomial_probs(rates, dt)
    for j in range(3):
        observed = np.bincount(draws[:, j], minlength=size + 1)
        expected = stats.binom.pmf(np.arange(size + 1), size, p[j]) * n
        keep = expected >= 5
        obs_m = np.append(observed[keep], observed[~keep].sum())
        exp_m = np.append(expected[keep], expected[~keep].sum())
        chi2 = ((obs_m - exp_m) ** 2 / exp_m).sum()
        assert stats.chi2.sf(chi2, df=len(exp_m) - 1) > 0.001


# ---------------------------------------------------------------------------
# negative binomial (mean parameterization)


def test_nbinom_pmf_closed_form_at_zero():
    assert pk.dnbinom_mu(0, 2.0, 1.0) == pytest.approx((2.0 / 3.0) ** 2, rel=1e-12)


def test_nbinom_sampler_moments():
    theta, mu, n = 100.0, 10.0, 100_000
    rng = np.random.default_rng(31)
    draws = pk.rnbinom_mu(theta, mu, rng, n=n)
    var = mu + mu**2 / theta  # = 11
    se_mean = np.sqrt(var / n)
    assert abs(draws.mean() - mu) < 3 * se_mean
    # SE of the sample variance via the fourth-moment formula, approximated
    m4 = stats.moment(draws, 4)
    se_var = np.sqrt((m4 - var**2) / n)
    assert abs(draws.var(ddof=1) - var) < 3 * se_var


def test_nbinom_poisson_limit():
    big = pk.dnbinom_mu(3, 1e9, 3.0)
    assert big == pytest.approx(stats.poisson.pmf(3, 3.0), abs=1e-6)


def test_nbinom_point_mass_at_zero_mean():
    assert pk.dnbinom_mu(0, 5.0, 0.0) == pytest.approx(1.0)
    assert pk.dnbinom_mu(2, 5.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# helper densities used by the built-in models


def test_dpois_matches_scipy():
    y = np.arange(0, 20)
    assert np.allclose(pk.dpois(y, 3.5, log=True), stats.poisson.logpmf(y, 3.5))
    assert pk.dpois(0, 2.0) == pytest.approx(np.exp(-2.0))
    assert pk.dpois(1, 0.0) == 0.0


def test_dlnorm_matches_scipy():
    y = np.array([0.2, 1.0, 3.7])
    expected = stats.lognorm.logpdf(y, s=0.4, scale=np.exp(0.3))
    assert np.allclose(pk.dlnorm(y, 0.3, 0.4, log=True), expected)
    assert pk.dlnorm(-1.0, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("y", [2.5, np.array([0.2, 1.0, 3.7, 0.0, -1.0])],
                         ids=["scalar", "array"])
def test_dlnorm_scale_forms_agree_bitwise(y):
    # a float scale skips the reduction; every form must give the same bits
    n, meanlog = 5, np.linspace(-0.5, 1.5, 5)
    for log in (True, False):
        expected = pk.dlnorm(y, meanlog, 0.37, log=log)
        for sdlog in (np.float64(0.37), np.array(0.37), np.full(n, 0.37)):
            assert np.array_equal(pk.dlnorm(y, meanlog, sdlog, log=log), expected)
        expected = pk.dlnorm(y, 0.3, 0.37, log=log)
        for sdlog in (np.float64(0.37), np.array(0.37)):
            out = pk.dlnorm(y, 0.3, sdlog, log=log)
            assert np.array_equal(out, expected) and type(out) is type(expected)
        out = pk.dlnorm(y, 0.3, np.full(n, 0.37), log=log)
        assert out.shape == (n,) and np.array_equal(out, np.broadcast_to(expected, (n,)))


@pytest.mark.parametrize("y", [2.5, 1e-300, 0.0, -1.0, np.nan])
@pytest.mark.parametrize("meanlog", [0.3, np.linspace(-1.0, 2.0, 7)], ids=["scalar", "array"])
def test_dlnorm_scalar_observation_matches_array_path(y, meanlog):
    # a float y takes the unmasked path when positive; a 0-d array takes the masked one
    sdlog = np.linspace(0.1, 0.7, 7)
    for log in (True, False):
        fast = pk.dlnorm(float(y), meanlog, sdlog, log=log)
        masked = pk.dlnorm(np.asarray(y), meanlog, sdlog, log=log)
        assert np.array_equal(fast, masked)
        fast = pk.dlnorm(float(y), meanlog, 0.4, log=log)
        masked = pk.dlnorm(np.asarray(y), meanlog, 0.4, log=log)
        assert np.array_equal(fast, masked)
        assert type(fast) is type(masked)
    if not y > 0:
        assert np.all(pk.dlnorm(float(y), meanlog, sdlog, log=True) == -np.inf)
