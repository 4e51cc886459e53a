import dataclasses
import logging
import warnings

import numpy as np
import pytest

import pompkit as pk
from pompkit import core, smc
from pompkit.core import ModelSpec, ParamVector, TimeSeriesData
from pompkit.exceptions import DomainError, FilteringFailureError


def constant_density_model(n_obs=7, log_c=np.log(0.25)):
    """Degenerate model: dmeasure is a constant, independent of state."""
    return ModelSpec(
        data=TimeSeriesData(t0=0.0, times=np.arange(1.0, n_obs + 1),
                            observations=np.ones((n_obs, 1)), obs_names=("y",)),
        state_names=("x",),
        rprocess=lambda x, p, t0, t1, rng, cv: {"x": x["x"] + rng.normal(size=x["x"].shape)},
        dmeasure=lambda y, x, p, t, log, cv: np.full_like(x["x"], log_c),
        rmeasure=lambda x, p, t, rng, cv: {"y": x["x"]},
    )


# ---------------------------------------------------------------------------
# pfilter


def test_constant_density_gives_exact_loglik():
    n, log_c = 9, np.log(0.3)
    model = constant_density_model(n, log_c)
    out = pk.pfilter(model, ParamVector({"x.0": 0.0}), num_particles=50, seed=1)
    assert out.loglik == pytest.approx(n * log_c, abs=1e-12)
    assert out.ess == pytest.approx(np.full(n, 50.0), rel=1e-12)


def test_filter_result_invariants(gompertz_fitted):
    out = pk.pfilter(gompertz_fitted, num_particles=200, seed=5,
                     save_final_particles=True)
    assert out.loglik == pytest.approx(out.cond_logliks.sum(), abs=1e-10)
    assert np.all(out.ess >= 1.0) and np.all(out.ess <= 200.0)
    assert out.filter_means.shape == (gompertz_fitted.data.n_obs, 1)
    assert out.final_particles.shape == (200, 1)


def test_pfilter_deterministic_and_worker_independent(gompertz_fitted):
    a = pk.pfilter(gompertz_fitted, num_particles=100, seed=42)
    b = pk.pfilter(gompertz_fitted, num_particles=100, seed=42)
    assert a.loglik == b.loglik
    assert np.array_equal(a.cond_logliks, b.cond_logliks)
    assert np.array_equal(a.filter_means, b.filter_means)


def test_filtering_failure_reports_step():
    model = constant_density_model(5)
    broken = ModelSpec(
        data=model.data, state_names=model.state_names, rprocess=model.rprocess,
        rmeasure=model.rmeasure,
        dmeasure=lambda y, x, p, t, log, cv: np.full_like(
            x["x"], -np.inf if t == 3.0 else -0.5),
    )
    with pytest.raises(FilteringFailureError, match="step 3"):
        pk.pfilter(broken, ParamVector({"x.0": 0.0}), num_particles=10, seed=0)
    out = pk.pfilter(broken, ParamVector({"x.0": 0.0}), num_particles=10, seed=0,
                     max_fail=1)
    assert out.loglik == -np.inf
    assert out.n_failures == 1
    assert out.cond_logliks[2] == -np.inf
    assert np.isfinite(out.cond_logliks[[0, 1, 3, 4]]).all()


def test_pfilter_rejects_fractional_particle_counts_and_negative_seeds(gompertz_fitted):
    with pytest.raises(DomainError, match="num_particles"):
        pk.pfilter(gompertz_fitted, num_particles=2.5, seed=1)
    with pytest.raises(DomainError, match="num_particles"):
        pk.pfilter(gompertz_fitted, num_particles=0, seed=1)
    with pytest.raises(DomainError, match="seed"):
        pk.pfilter(gompertz_fitted, num_particles=10, seed=-1)
    # a whole-valued float is a whole number of particles
    assert pk.pfilter(gompertz_fitted, num_particles=10.0, seed=1).num_particles == 10


def test_pfilter_variance_shrinks_with_more_particles(gompertz_fitted):
    small = [pk.pfilter(gompertz_fitted, num_particles=100, seed=s).loglik
             for s in pk.child_seeds(0, "small", 20)]
    big = [pk.pfilter(gompertz_fitted, num_particles=2000, seed=s).loglik
           for s in pk.child_seeds(0, "big", 20)]
    assert np.var(big, ddof=1) < np.var(small, ddof=1)


def test_accumulators_are_zero_after_every_observation():
    # The swarm a pass over the first n observations ends with is the swarm
    # after observation n: its incidence column H must be reset, while the
    # weighted mean of H at that observation shows it counted cases.
    model = pk.sir_model(years=0.2)
    model = pk.attach_data(model, pk.simulate(model, seed=21)[0])
    data = model.data
    h = model.state_names.index("H")
    for n in range(1, data.n_obs + 1):
        prefix = model.with_data(TimeSeriesData(
            t0=data.t0, times=data.times[:n], observations=data.observations[:n],
            obs_names=data.obs_names))
        out = pk.pfilter(prefix, num_particles=30, seed=4, save_final_particles=True)
        assert np.all(out.final_particles[:, h] == 0.0)
        assert out.filter_means[-1, h] > 0.0


def test_mif_counts_and_logs_tolerated_failures(gompertz_fitted, caplog):
    t_fail = float(gompertz_fitted.data.times[6])
    dmeasure = gompertz_fitted.dmeasure
    broken = dataclasses.replace(
        gompertz_fitted,
        dmeasure=lambda y, x, p, t, log, cv: (
            np.full(x["X"].shape, -np.inf) if t == t_fail else dmeasure(y, x, p, t, log, cv)))
    s = pk.MifSettings(start=gompertz_fitted.params, n_iterations=2, num_particles=50,
                       rw_sd={"r": 0.02, "sigma": 0.02, "tau": 0.02}, max_fail=1)
    with caplog.at_level(logging.WARNING, logger="pompkit"):
        out = pk.mif(broken, s, seed=3, run_final_filter=False)
    assert out.n_failures == 2
    assert sum("filtering failure at step 7" in r.message for r in caplog.records) == 2
    with pytest.raises(FilteringFailureError, match="step 7"):
        pk.mif(broken, dataclasses.replace(s, max_fail=0), seed=3)


def nan_at(model, t_nan, every_particle):
    """The model with dmeasure returning NaN at ``t_nan``, for one particle or all."""
    dmeasure = model.dmeasure

    def broken(y, x, p, t, log, cv):
        out = np.array(dmeasure(y, x, p, t, log, cv), dtype=float)
        if t == t_nan:
            out[slice(None) if every_particle else 3] = np.nan
        return out

    return dataclasses.replace(model, dmeasure=broken)


@pytest.mark.parametrize("every_particle", [False, True], ids=["one-particle", "all-particles"])
def test_nan_log_density_is_domain_error_naming_t(gompertz_fitted, every_particle):
    t_nan = float(gompertz_fitted.data.times[4])
    broken = nan_at(gompertz_fitted, t_nan, every_particle)
    match = rf"dmeasure returned NaN at t={t_nan}"
    # max_fail does not turn a NaN into a tolerated failure
    with pytest.raises(DomainError, match=match):
        pk.pfilter(broken, num_particles=20, seed=1, max_fail=5)
    s = pk.MifSettings(start=gompertz_fitted.params, n_iterations=1, num_particles=20,
                       rw_sd={"r": 0.02, "sigma": 0.02, "tau": 0.02}, max_fail=5)
    with pytest.raises(DomainError, match=match):
        pk.mif(broken, s, seed=1, run_final_filter=False)


# ---------------------------------------------------------------------------
# filters run as the blocks of one swarm


def plain_filter(model, num_particles, seed):
    """The particle filter written out step by step: (cond_logliks, final swarm)."""
    p = core.params_to_dict(model.params)
    rng = pk.stream(seed, "pfilter")
    grid = np.arange(num_particles)
    x = core._init_states(model, p, model.data.t0, rng, num_particles)
    cond_logliks, t_prev = [], model.data.t0
    for n, t in enumerate(model.data.times.tolist()):
        x = core.advance(model, x, p, t_prev, t, rng)
        logw = core.measurement_logdensity(model, model.data._records[n], x, p, t)
        w = np.exp(logw - logw.max())
        cond_logliks.append(logw.max() + np.log(w.sum() / num_particles))
        x = x[smc._systematic_resample(w / w.sum(), rng, grid)]
        t_prev = t
    return np.array(cond_logliks), x


def test_one_block_is_pfilter_and_the_plain_filter_loop(gompertz_fitted):
    out = pk.pfilter(gompertz_fitted, num_particles=50, seed=9, save_final_particles=True)
    (block,) = smc._pfilter_blocks(gompertz_fitted, [None], 50, 9, 0)
    for field in ("cond_logliks", "ess", "filter_means", "final_particles"):
        assert np.array_equal(getattr(out, field), getattr(block, field))
    assert (out.loglik, out.n_failures) == (block.loglik, block.n_failures)
    cond_logliks, final = plain_filter(gompertz_fitted, 50, 9)
    assert np.array_equal(out.cond_logliks, cond_logliks)
    assert np.array_equal(out.final_particles, final)


def kalman_filtered_mean(params, y_log):
    """Mean of log X given every observation, from the Kalman filter."""
    ssm = pk.gompertz_ssm(params.as_dict())
    mean, var = ssm.x0_mean, ssm.x0_var
    for z in y_log:
        mean, var = ssm.a * mean + ssm.b, ssm.a * ssm.a * var + ssm.q
        gain = var / (var + ssm.r_obs)
        mean, var = mean + gain * (z - mean - ssm.c), (1.0 - gain) * var
    return mean


def test_blocks_do_not_mix(gompertz_fitted):
    # two parameter sets 125 log-likelihood units apart, 12 blocks each, interleaved
    near = gompertz_fitted.params
    far = near.replace(K=3.0, tau=0.5, **{"X.0": 3.0})
    results = smc._pfilter_blocks(gompertz_fitted, [near, far] * 12, 400, 7, 0)
    y_log = np.log(gompertz_fitted.data.observations[:, 0])
    for params, blocks in ((near, results[0::2]), (far, results[1::2])):
        exact = pk.kalman_loglik(pk.gompertz_ssm(params.as_dict()), y_log)
        est, se = pk.logmeanexp(np.array([r.loglik for r in blocks]), with_se=True)
        assert abs(est - exact) < 3 * se
        # the filtered means of the two sets lie 0.27 apart
        mean = kalman_filtered_mean(params, y_log)
        for r in blocks:
            assert r.final_particles.shape == (400, 1)
            assert abs(np.log(r.final_particles).mean() - mean) < 0.1


def fails_for_large_tau(model, t_fail):
    """The model with zero weight at ``t_fail`` for every particle whose tau exceeds 0.11."""
    dmeasure = model.dmeasure

    def broken(y, x, p, t, log, cv):
        out = dmeasure(y, x, p, t, log, cv)
        return np.where(p["tau"] > 0.11, -np.inf, out) if t == t_fail else out

    return dataclasses.replace(model, dmeasure=broken)


def test_each_block_counts_its_own_failures(gompertz_fitted):
    J = 40
    broken = fails_for_large_tau(gompertz_fitted, float(gompertz_fitted.data.times[5]))
    blocks = [gompertz_fitted.params, gompertz_fitted.params.replace(tau=0.15)]
    with pytest.raises(FilteringFailureError, match="step 6"):
        smc._pfilter_blocks(broken, blocks, J, 2, 0)

    p = smc._block_params([b.as_dict() for b in blocks], J)
    rng = pk.stream(2, "pfilter")
    x = core._init_states(broken, p, broken.data.t0, rng, 2 * J)
    seen = []
    ok, failed = smc._filter_pass(broken, x, p, rng, 1, on_resample=seen.append, blocks=2)
    assert (ok.n_failures, failed.n_failures) == (0, 1)
    assert failed.cond_logliks[5] == -np.inf and failed.ess[5] == J
    assert np.isfinite(np.delete(failed.cond_logliks, 5)).all() and np.isfinite(ok.loglik)
    # at the failed step the failed block keeps its rows, while the other
    # block resamples among its own
    idx = seen[5]
    assert np.array_equal(idx[J:], np.arange(J, 2 * J))
    assert idx[:J].max() < J and not np.array_equal(idx[:J], np.arange(J))
    assert all(not np.array_equal(i[J:], np.arange(J, 2 * J)) for i in seen[:5])


def test_tolerated_failure_log_names_the_block(gompertz_fitted, caplog):
    broken = fails_for_large_tau(gompertz_fitted, float(gompertz_fitted.data.times[3]))
    params = gompertz_fitted.params
    blocks = [params, params.replace(tau=0.15), params.replace(r=0.2)]
    with caplog.at_level(logging.WARNING, logger="pompkit"):
        results = smc._pfilter_blocks(broken, blocks, 30, 4, 1)
    assert [r.n_failures for r in results] == [0, 1, 0]
    messages = [r.message for r in caplog.records if "filtering failure" in r.message]
    assert messages == ["filtering failure in block 1 at step 4 (t=4): zero weights "
                        "tolerated (1 of 1)"]

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="pompkit"):
        smc._pfilter_blocks(broken, blocks[1:2], 30, 4, 1)
    messages = [r.message for r in caplog.records if "filtering failure" in r.message]
    assert messages == ["filtering failure at step 4 (t=4): zero weights tolerated (1 of 1)"]


@pytest.mark.parametrize("K", [1, 3])
def test_filter_without_diagnostics_matches_the_default(gompertz_fitted, K):
    params = gompertz_fitted.params
    if K == 1:
        model, blocks, max_fail = gompertz_fitted, [params], 0
    else:  # the middle block fails once, at step 4, and tolerates it
        model = fails_for_large_tau(gompertz_fitted, float(gompertz_fitted.data.times[3]))
        blocks, max_fail = [params, params.replace(tau=0.15), params.replace(r=0.2)], 1
    full = smc._pfilter_blocks(model, blocks, 30, 4, max_fail)
    for diagnostics in (False, 1):  # none, or block 0's alone
        lean = smc._pfilter_blocks(model, blocks, 30, 4, max_fail, diagnostics=diagnostics)
        for k, (f, r) in enumerate(zip(full, lean)):
            assert (r.loglik, r.n_failures) == (f.loglik, f.n_failures)
            assert np.array_equal(r.cond_logliks, f.cond_logliks)
            assert np.array_equal(r.final_particles, f.final_particles)
            if k < diagnostics:
                assert np.array_equal(r.ess, f.ess)
                assert np.array_equal(r.filter_means, f.filter_means)
            else:
                assert r.ess is None and r.filter_means is None
            assert f.ess.shape == (model.data.n_obs,)
        assert [r.n_failures for r in lean] == ([0] if K == 1 else [0, 1, 0])


def test_only_pfilter_passes_carry_diagnostics(gompertz_fitted, monkeypatch):
    passes = []
    real = smc._filter_pass

    def recording(*args, **kwargs):
        passes.append(real(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(smc, "_filter_pass", recording)
    params = gompertz_fitted.params
    rprior, dprior = pk.uniform_box_prior({"r": (0.01, 1.0)})
    model = dataclasses.replace(gompertz_fitted, rprior=rprior, dprior=dprior)
    pk.pmcmc(model, params, n_steps=3, num_particles=20, proposal=pk.mvn_diag_rw({"r": 0.01}),
             seed=1)
    settings = pk.MifSettings(start=params, n_iterations=2, num_particles=20,
                              rw_sd={"r": 0.02})
    pk.mif(gompertz_fitted, settings, seed=1, run_final_filter=False)
    assert len(passes) == 4 + 2  # the start and 3 in-prior proposals, 2 mif iterations
    assert all(r.ess is None and r.filter_means is None for res in passes for r in res)
    passes.clear()
    result = pk.pfilter(gompertz_fitted, num_particles=20, seed=1)
    assert len(passes) == 1
    assert result.ess.shape == (gompertz_fitted.data.n_obs,)
    assert result.filter_means.shape == (gompertz_fitted.data.n_obs, 1)


def test_nan_in_any_block_is_domain_error(gompertz_fitted):
    J, t_nan = 20, float(gompertz_fitted.data.times[4])
    dmeasure = gompertz_fitted.dmeasure

    def broken(y, x, p, t, log, cv):
        out = np.array(dmeasure(y, x, p, t, log, cv), dtype=float)
        if t == t_nan:
            out[J + 3] = np.nan  # one particle of the second block
        return out

    with pytest.raises(DomainError, match=rf"dmeasure returned NaN at t={t_nan}"):
        smc._pfilter_blocks(dataclasses.replace(gompertz_fitted, dmeasure=broken),
                            [None, None], J, 1, 5)


# ---------------------------------------------------------------------------
# systematic resampling


def test_equal_weights_leave_particles_unchanged():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        idx = pk.systematic_resample(np.full(5, 0.2), rng)
        assert idx.tolist() == [0, 1, 2, 3, 4]


def test_degenerate_weight_selects_single_particle():
    rng = np.random.default_rng(0)
    assert pk.systematic_resample(np.array([1.0, 0.0, 0.0]), rng).tolist() == [0, 0, 0]


def test_quarter_split_exact_counts():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        idx = pk.systematic_resample(np.array([0.75, 0.25]), rng, n=4)
        counts = np.bincount(idx, minlength=2)
        assert counts.tolist() == [3, 1]


def test_count_bounds_on_random_weight_vectors():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        j = int(rng.integers(1, 60))
        w = rng.dirichlet(np.ones(j) * rng.uniform(0.2, 3.0))
        counts = np.bincount(pk.systematic_resample(w, rng), minlength=j)
        assert np.all(counts >= np.floor(j * w))
        assert np.all(counts <= np.ceil(j * w))


def test_resample_rejects_bad_weights():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        pk.systematic_resample(np.zeros(4), rng)
    with pytest.raises(DomainError):
        pk.systematic_resample(np.array([0.5, -0.5, 1.0]), rng)


# ---------------------------------------------------------------------------
# ess and logmeanexp


def test_ess_examples():
    assert pk.ess(np.full(100, 0.01)) == pytest.approx(100.0)
    assert pk.ess([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert pk.ess([0.5, 0.25, 0.25]) == pytest.approx(1.0 / 0.375)
    with pytest.raises(DomainError):
        pk.ess([0.0, 0.0])


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [-1.0, 2.0], [np.inf, 1.0],
                                     [[0.5, 0.25], [0.25, 0.5]], [], [0.0, 0.0]],
                         ids=["nan", "negative", "inf", "2-D", "empty", "zero"])
def test_ess_checks_weights_as_resampling_does(weights):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            pk.ess(weights)
        with pytest.raises(DomainError):
            pk.systematic_resample(weights, np.random.default_rng(0))


def test_logmeanexp_examples():
    assert pk.logmeanexp([0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert pk.logmeanexp([np.log(2), np.log(4)]) == pytest.approx(np.log(3), abs=1e-12)
    value, se = pk.logmeanexp([5.0], with_se=True)
    assert value == 5.0
    assert np.isnan(se)


def test_logmeanexp_se_is_positive_for_spread_values():
    value, se = pk.logmeanexp([0.0, 1.0, 2.0], with_se=True)
    assert value == pytest.approx(np.log(np.mean(np.exp([0, 1, 2]))))
    assert se > 0


def test_logmeanexp_handles_large_values():
    assert pk.logmeanexp([1000.0, 1000.0]) == pytest.approx(1000.0)
    assert pk.logmeanexp([-np.inf, 0.0]) == pytest.approx(np.log(0.5))
