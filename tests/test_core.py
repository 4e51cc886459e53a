import dataclasses
import logging

import numpy as np
import pytest

import pompkit as pk
from pompkit import core
from pompkit.core import ParamVector, TimeSeriesData, CovariateTable
from pompkit.exceptions import (
    DomainError,
    ModelComponentError,
    SimulationDivergedError,
    TransformDomainError,
)


# ---------------------------------------------------------------------------
# containers


def test_param_vector_order_and_lookup():
    theta = ParamVector({"b": 2.0, "a": 1.0})
    assert theta.names == ("b", "a")
    assert theta["a"] == 1.0
    assert list(theta.values) == [2.0, 1.0]


def test_param_vector_missing_name_is_error():
    theta = ParamVector(r=0.1)
    with pytest.raises(KeyError, match="no entry named 'q'"):
        theta["q"]


def test_param_vector_rejects_duplicates_and_empty_names():
    with pytest.raises(DomainError):
        ParamVector([("a", 1.0), ("a", 2.0)])
    with pytest.raises(DomainError):
        ParamVector([("", 1.0)])
    with pytest.raises(DomainError):
        ParamVector({})


def test_time_series_ordering_invariants():
    with pytest.raises(DomainError):
        TimeSeriesData(t0=0.0, times=[1.0, 1.0, 2.0], observations=np.zeros((3, 1)),
                       obs_names=("y",))
    with pytest.raises(DomainError):
        TimeSeriesData(t0=5.0, times=[1.0, 2.0], observations=np.zeros((2, 1)),
                       obs_names=("y",))
    # t0 == t1 is allowed
    tsd = TimeSeriesData(t0=1.0, times=[1.0, 2.0], observations=np.zeros((2, 1)),
                         obs_names=("y",))
    assert tsd.n_obs == 2


@pytest.mark.parametrize("t0, times", [(0.0, [1.0, np.nan, 3.0]), (0.0, [1.0, 2.0, np.inf]),
                                       (np.nan, [1.0, 2.0, 3.0]), (-np.inf, [1.0, 2.0, 3.0])])
def test_time_series_rejects_non_finite_times(t0, times):
    # NaN compares False, so an ordering check alone lets it through
    with pytest.raises(DomainError, match="finite"):
        TimeSeriesData(t0=t0, times=times, observations=np.zeros((3, 1)), obs_names=("y",))


def test_time_series_holds_a_read_only_copy_of_the_observations(gompertz_fitted):
    # the filter builds its observation records once, so an in-place write
    # must fail rather than leave them stale
    obs = gompertz_fitted.data.observations.copy()
    data = TimeSeriesData(t0=0.0, times=gompertz_fitted.data.times, observations=obs,
                          obs_names=("Y",))
    with pytest.raises(ValueError, match="read-only"):
        data.observations[3, 0] = 50.0
    obs[3, 0] = 50.0  # the caller's array stays writable and is not shared
    assert data.observations[3, 0] != 50.0
    assert pk.pfilter(gompertz_fitted.with_data(data), num_particles=50, seed=2).loglik == \
        pk.pfilter(gompertz_fitted, num_particles=50, seed=2).loglik


@pytest.mark.parametrize("times", [[np.nan], [0.0, np.nan, 2.0], [0.0, 1.0, np.inf]])
def test_covariate_table_rejects_non_finite_times(times):
    with pytest.raises(DomainError, match="finite"):
        CovariateTable(times=times, values=np.zeros((len(times), 1)), names=("c",))


def test_covariate_table_holds_read_only_copies():
    # lookup answers from copies made at construction, so an in-place write
    # must fail rather than be silently ignored
    times, values = np.array([0.0, 1.0]), np.array([[1.0], [3.0]])
    table = CovariateTable(times=times, values=values, names=("c",))
    with pytest.raises(ValueError, match="read-only"):
        table.values[1, 0] = 100.0
    with pytest.raises(ValueError, match="read-only"):
        table.times[0] = -1.0
    values[1, 0] = 100.0  # the caller's array stays writable and is not shared
    assert table.values[1, 0] == 3.0
    assert table.lookup(0.5) == {"c": 2.0}


# ---------------------------------------------------------------------------
# covariate interpolation


def test_covariate_lookup_nodes_and_midpoint():
    table = CovariateTable(times=[0.0, 1.0], values=[[10.0], [20.0]], names=("v",))
    assert table.lookup(0.0) == {"v": 10.0}
    assert table.lookup(1.0) == {"v": 20.0}
    assert table.lookup(0.5) == {"v": 15.0}


def test_covariate_lookup_interior_interpolation():
    table = CovariateTable(times=[0.0, 1.0, 2.0], values=[[0.0], [1.0], [4.0]],
                           names=("v",))
    assert table.lookup(1.5)["v"] == pytest.approx(2.5, abs=1e-12)


def test_covariate_extrapolation_is_linear_and_warns(caplog):
    table = CovariateTable(times=[0.0, 1.0, 2.0], values=[[0.0], [1.0], [4.0]],
                           names=("v",))
    with caplog.at_level(logging.WARNING, logger="pompkit"):
        low = table.lookup(-1.0)["v"]
        high = table.lookup(3.0)["v"]
    assert low == pytest.approx(-1.0)   # extend first segment, slope 1
    assert high == pytest.approx(7.0)   # extend last segment, slope 3
    assert any("extrapolates" in r.message for r in caplog.records)


def test_covariate_warning_is_given_once_in_every_run(caplog):
    # observations at t = 1..5, covariates up to t = 2
    model = core.ModelSpec(
        data=TimeSeriesData(t0=0.0, times=np.arange(1.0, 6.0), observations=np.ones((5, 1)),
                            obs_names=("y",)),
        state_names=("x",),
        rprocess=lambda x, p, t0, t1, rng, cv: x,
        dmeasure=lambda y, x, p, t, log, cv: np.zeros_like(x["x"]),
        covariates=CovariateTable(times=[0.0, 2.0], values=[[0.0], [1.0]], names=("v",)),
        params=ParamVector({"x.0": 0.0}),
    )
    for seed in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="pompkit"):
            pk.pfilter(model, num_particles=5, seed=seed)
        assert sum("extrapolates after" in r.message for r in caplog.records) == 1


def test_stream_and_simulate_reject_bad_integers():
    with pytest.raises(DomainError, match="seed"):
        pk.stream(-1)
    with pytest.raises(DomainError, match="seed"):
        pk.stream(2.5, "pfilter")
    with pytest.raises(DomainError, match="nsim"):
        pk.simulate(pk.gompertz_model(n_obs=3), nsim=1.5)
    with pytest.raises(DomainError, match="nsim"):
        pk.simulate(pk.gompertz_model(n_obs=3), nsim=0)
    assert pk.stream(7).random() == pk.stream(np.int64(7)).random()


# ---------------------------------------------------------------------------
# transforms


def test_transform_round_trip_identity():
    model = pk.gompertz_model()
    theta = ParamVector({"r": 0.1, "K": 1.0, "sigma": 0.1, "tau": 0.1, "X.0": 1.0})
    est = pk.transform_params(model, theta, "to-estimation")
    assert est["r"] == pytest.approx(np.log(0.1), abs=1e-15)
    back = pk.transform_params(model, est, "from-estimation")
    for name in theta.names:
        assert back[name] == pytest.approx(theta[name], rel=1e-12)


def test_transform_log_of_one_is_zero():
    model = pk.gompertz_model()
    est = pk.transform_params(model, ParamVector(GOMPERTZ_ONES), "to-estimation")
    assert est["r"] == 0.0


GOMPERTZ_ONES = {"r": 1.0, "K": 1.0, "sigma": 1.0, "tau": 1.0, "X.0": 1.0}


def test_transform_identity_when_absent():
    model = pk.ModelSpec(
        data=TimeSeriesData.empty(0.0, [1.0, 2.0], ("y",)),
        state_names=("x",),
    )
    theta = ParamVector(a=3.0)
    assert pk.transform_params(model, theta, "to-estimation") == theta
    assert pk.transform_params(model, theta, "from-estimation") == theta


def test_transform_domain_error_names_parameter():
    model = pk.gompertz_model()
    theta = ParamVector({"r": -1.0, "K": 1.0, "sigma": 0.1, "tau": 0.1, "X.0": 1.0})
    with pytest.raises(TransformDomainError, match="r"):
        pk.transform_params(model, theta, "to-estimation")


def test_round_trip_property_randomized():
    model = pk.gompertz_model()
    rng = np.random.default_rng(0)
    for _ in range(50):
        theta = {n: float(v) for n, v in zip(
            model.params.names, np.exp(rng.uniform(-4, 4, size=5)))}
        est = pk.transform_params(model, theta, "to-estimation")
        back = pk.transform_params(model, est, "from-estimation")
        for n in theta:
            assert back[n] == pytest.approx(theta[n], rel=1e-12)


# ---------------------------------------------------------------------------
# simulation semantics


def test_simulate_noise_free_fixed_point():
    model = pk.gompertz_model()
    quiet = model.params.replace(sigma=0.0, tau=0.0)
    rec = pk.simulate(model, quiet, seed=123)[0]
    assert np.all(rec.states == 1.0)
    assert np.all(rec.observations == 1.0)


def test_simulate_deterministic_given_seed():
    model = pk.gompertz_model()
    a = pk.simulate(model, seed=99, nsim=3)
    b = pk.simulate(model, seed=99, nsim=3)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.states, rb.states)
        assert np.array_equal(ra.observations, rb.observations)
    c = pk.simulate(model, seed=100, nsim=3)
    assert not np.array_equal(a[0].observations, c[0].observations)


def test_simulate_missing_component_error():
    model = pk.ModelSpec(
        data=TimeSeriesData.empty(0.0, [1.0], ("y",)),
        state_names=("x",),
        rprocess=lambda x, p, t0, t1, rng, cv: x,
    )
    with pytest.raises(ModelComponentError, match="rmeasure"):
        pk.simulate(model, ParamVector({"x.0": 1.0}), seed=0)


def test_simulate_divergence_error_names_time_and_state():
    def blow_up(x, p, t0, t1, rng, cv):
        return {"x": x["x"] * np.inf if t1 >= 2.0 else x["x"]}

    model = pk.ModelSpec(
        data=TimeSeriesData.empty(0.0, [1.0, 2.0, 3.0], ("y",)),
        state_names=("x",),
        rprocess=blow_up,
        rmeasure=lambda x, p, t, rng, cv: {"y": x["x"]},
    )
    with pytest.raises(SimulationDivergedError, match="t=2") as err:
        pk.simulate(model, ParamVector({"x.0": 1.0}), seed=0)
    assert "x" in err.value.state_names


def test_default_initializer_uses_dot_zero_suffix():
    model = pk.ricker_model()
    rec = pk.simulate(model, seed=0)[0]
    assert rec.states[0, 0] == 7.0   # N.0
    assert rec.states[0, 1] == 0.0   # e.0


@pytest.mark.parametrize("component", ["initializer", "rprocess", "rmeasure"])
def test_callback_omitting_a_name_is_model_component_error(component):
    model = pk.ModelSpec(
        data=TimeSeriesData.empty(0.0, [1.0, 2.0], ("y",)),
        state_names=("x", "z"),
        initializer=lambda p, t0, rng, n: {"x": 1.0, "z": np.zeros(n)},
        rprocess=lambda x, p, t0, t1, rng, cv: x,
        rmeasure=lambda x, p, t, rng, cv: {"y": x["x"]},
    )
    drop_z = {
        "initializer": lambda p, t0, rng, n: {"x": 1.0},
        "rprocess": lambda x, p, t0, t1, rng, cv: {"x": x["x"]},
        "rmeasure": lambda x, p, t, rng, cv: {},
    }[component]
    model = dataclasses.replace(model, **{component: drop_z})
    with pytest.raises(ModelComponentError, match=component):
        pk.simulate(model, ParamVector({"a": 1.0}), seed=0)


def test_custom_initializer_overrides_suffix_rule():
    model = pk.sir_model(years=0.1)
    rec = pk.simulate(model, seed=0)[0]
    s0, i0, r0, h0 = rec.states[0]
    fracs = np.array([26.0 / 400.0, 0.002, 1.0])
    expected = np.round(500000.0 * fracs / fracs.sum())
    assert [s0, i0, r0] == expected.tolist()
    assert h0 == 0.0


def test_missing_observations_contribute_zero_loglik(gompertz_fitted):
    data = gompertz_fitted.data
    obs = data.observations.copy()
    obs[10] = np.nan
    obs[42] = np.nan
    holey = gompertz_fitted.with_data(
        TimeSeriesData(t0=data.t0, times=data.times, observations=obs,
                       obs_names=data.obs_names))
    out = pk.pfilter(holey, num_particles=100, seed=3)
    assert out.cond_logliks[10] == 0.0
    assert out.cond_logliks[42] == 0.0
    assert np.isfinite(out.loglik)


def test_simulate_then_fit_with_placeholder_data():
    # The placeholder dataset is all-NA; filtering it works (every step
    # contributes zero) and simulation replaces it.
    model = pk.gompertz_model(n_obs=10)
    out = pk.pfilter(model, num_particles=20, seed=1)
    assert out.loglik == 0.0
    rec = pk.simulate(model, seed=2)[0]
    fitted = pk.attach_data(model, rec)
    assert pk.pfilter(fitted, num_particles=20, seed=3).loglik != 0.0


def test_accumulator_reset_matches_no_reset_twin():
    import dataclasses

    model = pk.sir_model(years=2.0)
    twin = dataclasses.replace(model, accumulators=())
    rec = pk.simulate(model, seed=31)[0]
    rec_twin = pk.simulate(twin, seed=31)[0]
    h = rec.state_column("H")[1:]
    h_twin = rec_twin.state_column("H")[1:]
    assert np.allclose(np.cumsum(h), h_twin)
    # identical randomness: the other compartments agree exactly
    assert np.array_equal(rec.state_column("S"), rec_twin.state_column("S"))


# ---------------------------------------------------------------------------
# simulate_paths against a reference loop on the (nsim, q) state matrix


def _reference_measure(model, state_mat, params, t, rng):
    """One measurement draw per row of the state matrix: ``rmeasure`` on column
    views of the matrix, stacked by ``_stack``."""
    cv = model.covariates.lookup(t) if model.covariates is not None else None
    y = model.rmeasure(core._as_state_dict(model, state_mat), params, t, rng, cv)
    return core._stack(y, model.obs_names, state_mat.shape[0], "rmeasure", "measure")


def _reference_simulate_paths(model, params, seed, nsim, with_obs):
    p = core.params_to_dict(model.default_params(params))
    rng_proc = pk.stream(seed, "simulate-process")
    rng_meas = pk.stream(seed, "simulate-measure")
    x = core._init_states(model, p, model.data.t0, rng_proc, nsim)
    states, obs = [x.copy()], []
    t_prev = model.data.t0
    for t in model.data.times:
        x = core.advance(model, x, p, t_prev, t, rng_proc)
        states.append(x.copy())
        if with_obs:
            obs.append(_reference_measure(model, x, p, t, rng_meas))
        core._reset_accumulators(model, x)
        t_prev = t
    return np.stack(states, axis=1), np.stack(obs, axis=1) if with_obs else None


def _toy(state_names, rprocess, rmeasure, obs_names=("y",), accumulators=(), **params):
    return pk.ModelSpec(
        data=TimeSeriesData.empty(0.0, np.arange(1.0, 9.0), obs_names),
        state_names=state_names, rprocess=rprocess, rmeasure=rmeasure,
        accumulators=accumulators, params=ParamVector(params),
    )


def _floats(x):
    assert all(v.dtype == np.float64 for v in x.values()), "callbacks receive float states"
    return x


def _shared_accumulator_step(x, p, t0, t1, rng, cv):
    v = x["a"] + rng.normal(0.0, 1.0, size=x["a"].shape)
    return {"a": v, "b": v}  # one array under two names; only b is reset


PATH_MODELS = {
    "scalars": lambda: _toy(
        ("x", "c"),
        lambda x, p, t0, t1, rng, cv: {"x": 0.9 * x["x"] + rng.normal(0.0, 0.1, x["x"].shape),
                                       "c": 3.0},
        lambda x, p, t, rng, cv: {"y": x["x"] + x["c"] * rng.standard_normal(x["x"].shape),
                                  "w": 2.0},
        obs_names=("y", "w"), **{"x.0": 0.5, "c.0": 1.0}),
    "int-arrays": lambda: _toy(
        ("k", "m"),
        lambda x, p, t0, t1, rng, cv: {"k": rng.poisson(_floats(x)["k"] + 1.0),
                                       "m": np.full(x["k"].shape, 2, dtype=np.int32)},
        lambda x, p, t, rng, cv: {"y": rng.binomial(_floats(x)["k"].astype(np.int64), 0.5)},
        **{"k.0": 3.0, "m.0": 0.0}),
    "input-dict": lambda: _toy(
        ("x",), lambda x, p, t0, t1, rng, cv: x,
        lambda x, p, t, rng, cv: {"y": rng.normal(p["mu"] * np.ones_like(x["x"]), 1.0)},
        mu=0.3, **{"x.0": 0.0}),
    "accumulator": lambda: _toy(
        ("a", "b"), _shared_accumulator_step,
        lambda x, p, t, rng, cv: {"y": x["a"] + x["b"] + rng.standard_normal(x["a"].shape)},
        accumulators=("b",), **{"a.0": 0.0, "b.0": 0.0}),
    "gompertz": pk.gompertz_model,
    "ricker": pk.ricker_model,
    "sir": lambda: pk.sir_model(years=0.2),
    "sir-seasonal": lambda: pk.sir_seasonal_model(years=0.2),
}


@pytest.mark.parametrize("with_obs", [True, False], ids=["obs", "no-obs"])
@pytest.mark.parametrize("case", sorted(PATH_MODELS))
def test_simulate_paths_matches_matrix_reference_draw_for_draw(case, with_obs):
    model = PATH_MODELS[case]()
    states, obs = pk.simulate_paths(model, None, 17, 5, with_obs=with_obs)
    ref_states, ref_obs = _reference_simulate_paths(model, None, 17, 5, with_obs)
    assert np.array_equal(states, ref_states)
    if with_obs:
        assert np.array_equal(obs, ref_obs)
    else:
        assert obs is None


@pytest.mark.parametrize("with_obs", [True, False], ids=["obs", "no-obs"])
@pytest.mark.parametrize("case", sorted(PATH_MODELS))
def test_simulate_paths_at_nsim_1_matches_matrix_reference_draw_for_draw(case, with_obs):
    model = PATH_MODELS[case]()
    states, obs = pk.simulate_paths(model, None, 17, 1, with_obs=with_obs)
    ref_states, ref_obs = _reference_simulate_paths(model, None, 17, 1, with_obs)
    assert np.array_equal(states, ref_states)
    if with_obs:
        assert np.array_equal(obs, ref_obs)
    else:
        assert obs is None


@pytest.mark.parametrize("nsim", [1, 5])
@pytest.mark.parametrize("case", ["scalars", "sir"])
def test_simulate_paths_returns_c_contiguous_float_arrays(case, nsim):
    # a transposed view of a time-major buffer holds the same values, but
    # reductions over it (the probes') add in another order
    model = PATH_MODELS[case]()
    states, obs = pk.simulate_paths(model, None, 3, nsim)
    n_obs = model.data.n_obs
    assert states.shape == (nsim, n_obs + 1, model.n_states)
    assert obs.shape == (nsim, n_obs, len(model.obs_names))
    for arr in (states, obs):
        assert arr.dtype == np.float64 and arr.flags.c_contiguous


def test_simulate_paths_turns_a_simulator_value_error_into_a_domain_error():
    def step(x, p, t0, t1, rng, cv):
        return {"x": rng.normal(x["x"], -1.0 if t1 >= 3.0 else 1.0)}

    model = _toy(("x",), step, lambda x, p, t, rng, cv: {"y": x["x"]}, **{"x.0": 0.0})
    with pytest.raises(DomainError, match=r"process simulation over \[2, 3\]") as err:
        pk.simulate_paths(model, None, 0, 4)
    assert isinstance(err.value.__cause__, ValueError)


def test_simulate_paths_turns_a_measurement_value_error_into_a_domain_error():
    def rmeasure(x, p, t, rng, cv):
        return {"y": rng.normal(x["x"], -1.0 if t >= 3.0 else 1.0)}

    model = _toy(("x",), lambda x, p, t0, t1, rng, cv: x, rmeasure, **{"x.0": 0.0})
    with pytest.raises(DomainError, match=r"^measurement simulation at t=3 failed: ") as err:
        pk.simulate_paths(model, None, 0, 4)
    assert isinstance(err.value.__cause__, ValueError)


def test_pfilter_turns_a_measurement_density_value_error_into_a_domain_error():
    def dmeasure(y, x, p, t, log, cv):
        if t >= 3.0:
            raise ValueError("scale < 0")
        return np.zeros_like(x["x"])

    model = pk.ModelSpec(
        data=TimeSeriesData(0.0, [1.0, 2.0, 3.0, 4.0], np.ones((4, 1)), ("y",)),
        state_names=("x",), rprocess=lambda x, p, t0, t1, rng, cv: x, dmeasure=dmeasure,
        params=ParamVector({"x.0": 1.0}),
    )
    with pytest.raises(DomainError, match=r"^measurement density at t=3 failed: scale <") as err:
        pk.pfilter(model, num_particles=5, seed=0)
    assert isinstance(err.value.__cause__, ValueError)


@pytest.mark.parametrize("run", ["simulate_paths", "pfilter"])
def test_an_initializer_value_error_is_a_domain_error_naming_t0(run):
    def initializer(p, t0, rng, n):
        return {"x": rng.normal(0.0, -1.0, size=n)}

    model = pk.ModelSpec(
        data=TimeSeriesData(0.0, [1.0, 2.0], np.ones((2, 1)), ("y",)), state_names=("x",),
        rprocess=lambda x, p, t0, t1, rng, cv: x, rmeasure=lambda x, p, t, rng, cv: {"y": x["x"]},
        dmeasure=lambda y, x, p, t, log, cv: np.zeros_like(x["x"]), initializer=initializer,
        params=ParamVector({"x.0": 0.0}),
    )
    with pytest.raises(DomainError, match=r"^initial-state simulation at t=0 failed: ") as err:
        if run == "simulate_paths":
            pk.simulate_paths(model, None, 0, 3)
        else:
            pk.pfilter(model, num_particles=3, seed=0)
    assert isinstance(err.value.__cause__, ValueError)


def test_a_transform_value_error_is_a_domain_error_naming_the_direction():
    def to_est(params):
        return {n: np.log(v) if v > 0 else float("nan") for n, v in params.items()}

    def from_est(params):
        raise ValueError("math domain error")

    model = dataclasses.replace(pk.gompertz_model(), to_estimation=to_est,
                                from_estimation=from_est)
    with pytest.raises(DomainError, match=r"^from-estimation transform failed: math") as err:
        pk.transform_params(model, model.params, "from-estimation")
    assert isinstance(err.value.__cause__, ValueError)


def test_a_pomp_kit_error_from_a_callback_passes_through_unchanged():
    refusal = ModelComponentError("rmeasure (by design)", "measure")

    def rmeasure(x, p, t, rng, cv):
        raise refusal

    model = _toy(("x",), lambda x, p, t0, t1, rng, cv: x, rmeasure, **{"x.0": 0.0})
    with pytest.raises(ModelComponentError) as err:
        pk.simulate_paths(model, None, 0, 2)
    assert err.value is refusal


def _wrong_length_model(component):
    model = pk.ModelSpec(
        data=TimeSeriesData(0.0, [1.0, 2.0, 3.0], np.ones((3, 1)), ("y",)),
        state_names=("x",),
        rprocess=lambda x, p, t0, t1, rng, cv: x,
        rmeasure=lambda x, p, t, rng, cv: {"y": x["x"]},
        dmeasure=lambda y, x, p, t, log, cv: np.zeros_like(x["x"]),
        params=ParamVector({"x.0": 1.0}),
    )
    two = {
        "initializer": lambda p, t0, rng, n: {"x": np.ones(2)},
        "rprocess": lambda x, p, t0, t1, rng, cv: {"x": np.ones(2)},
        "rmeasure": lambda x, p, t, rng, cv: {"y": np.ones(2)},
        "dmeasure": lambda y, x, p, t, log, cv: np.zeros(2),
    }[component]
    return dataclasses.replace(model, **{component: two})


@pytest.mark.parametrize("component, run", [
    ("initializer", "simulate_paths"), ("rprocess", "simulate_paths"),
    ("rmeasure", "simulate_paths"), ("initializer", "pfilter"), ("rprocess", "pfilter"),
    ("dmeasure", "pfilter"),
])
def test_a_callback_output_of_the_wrong_length_is_a_domain_error(component, run):
    model = _wrong_length_model(component)
    with pytest.raises(DomainError, match=rf"^{component} returned .* of shape \(2,\); "
                                          rf".*needs shape \(5,\)"):
        if run == "simulate_paths":
            pk.simulate_paths(model, None, 0, 5)
        else:
            pk.pfilter(model, num_particles=5, seed=0)


@pytest.mark.parametrize("component, operation", [("rprocess", "advance"),
                                                  ("rmeasure", "measure")])
def test_simulate_paths_names_the_callback_that_omits_an_output(component, operation):
    model = _toy(("x",), lambda x, p, t0, t1, rng, cv: x,
                 lambda x, p, t, rng, cv: {"y": x["x"]}, **{"x.0": 1.0})
    model = dataclasses.replace(model, **{component: lambda *args: {}})
    with pytest.raises(ModelComponentError) as err:
        pk.simulate_paths(model, None, 0, 3)
    missing = "x" if component == "rprocess" else "y"
    assert err.value.component == f"{component} ('{missing}' not returned)"
    assert err.value.operation == operation


@pytest.mark.parametrize("rmeasure", [
    lambda x, p, t, rng, cv: {"y": x["x"] + x["z"]},                  # scanned at the end
    lambda x, p, t, rng, cv: {"y": rng.poisson(x["x"] + x["z"])},      # crashes on NaN
], ids=["final-scan", "measurement-crash"])
def test_simulate_paths_divergence_names_first_time_and_states(rmeasure):
    def step(x, p, t0, t1, rng, cv):
        z = x["z"] * np.nan if t1 >= 3.0 else x["z"] + 1.0
        return {"x": x["x"] * np.inf if t1 >= 5.0 else x["x"], "z": z}

    model = _toy(("x", "z"), step, rmeasure, **{"x.0": 1.0, "z.0": 1.0})
    with pytest.raises(SimulationDivergedError) as err:
        pk.simulate_paths(model, None, 0, 4)
    assert err.value.time == 3.0
    assert err.value.state_names == ("z",)


@pytest.mark.parametrize("times, t0", [
    ([3.0, 2.0, 1.0], 0.0),      # decreasing: the states would stay put
    ([1.0, 1.0, 2.0], 0.0),
    ([1.0, 2.0], 1.5),           # starts before t0
    (None, 5.0),                 # t0 alone, after the dataset's first time
    ([1.0, np.nan], 0.0),
    ([1.0, 2.0], -np.inf),
    ([], 0.0),
])
def test_simulate_paths_rejects_bad_times(times, t0):
    with pytest.raises(DomainError):
        pk.simulate_paths(pk.gompertz_model(), None, 1, 1, times=times, t0=t0)


def test_discrete_time_process_rejects_a_fractional_interval_on_every_call():
    steps = []
    rprocess = pk.discrete_time_process(lambda x, p, t, dt, rng, cv: steps.append(t) or x, 1.0)
    x, rng = {"X": np.ones(2)}, np.random.default_rng(0)
    for _ in range(2):
        with pytest.raises(DomainError, match="whole number of steps"):
            rprocess(x, {}, 0.0, 1.5, rng)
    # more distinct spans than the plan cache holds: each still takes its own count
    for k in range(100):
        steps.clear()
        rprocess(x, {}, 10.0, 10.0 + k, rng)
        assert steps == [10.0 + i for i in range(k)]
    with pytest.raises(DomainError, match="whole number of steps"):
        rprocess(x, {}, 0.0, 1.5, rng)


def test_time_series_holds_a_read_only_copy_of_the_times():
    # every filter pass reads data.times, so a later write to the caller's
    # array must not reach it
    times = np.arange(1.0, 6.0)
    data = TimeSeriesData(t0=0.0, times=times, observations=np.ones((5, 1)), obs_names=("y",))
    times[2] = 100.0
    assert data.times.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(ValueError, match="read-only"):
        data.times[2] = 100.0


def test_duplicate_observation_and_state_names_are_rejected():
    with pytest.raises(DomainError, match="observation"):
        TimeSeriesData(t0=0.0, times=[1.0, 2.0], observations=np.ones((2, 2)),
                       obs_names=("y", "y"))
    data = TimeSeriesData(t0=0.0, times=[1.0, 2.0], observations=np.ones((2, 1)),
                          obs_names=("y",))
    with pytest.raises(DomainError, match="state"):
        core.ModelSpec(data=data, state_names=("X", "X"))


def test_param_vector_hash_agrees_with_equality_for_signed_zeros():
    plus, minus = ParamVector(a=0.0, b=1.0), ParamVector(a=-0.0, b=1.0)
    assert plus == minus and hash(plus) == hash(minus)
    assert len({plus, minus}) == 1
    assert hash(ParamVector(a=1.0)) != hash(ParamVector(a=2.0))
