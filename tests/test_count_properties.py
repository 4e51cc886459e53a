"""Property: a drawn count either runs or raises DomainError, never a numpy error."""

import math

import pytest

import pompkit as pk
from pompkit.exceptions import DomainError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# counts stay small: a whole float such as 1e9 is a valid count, and that many
# simulations would not fit in memory
DRAWN_COUNTS = st.one_of(
    st.integers(-3, 60),
    st.floats(-3.0, 60.0),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None]),
    st.text(max_size=3),
)
PROPERTY = hypothesis.settings(max_examples=50, deadline=None, database=None)
SMALL = pk.gompertz_model(n_obs=5)
SMALL = pk.attach_data(SMALL, pk.simulate(SMALL, seed=4)[0])
MEAN = [pk.probe_mean("Y")]
BATCH = {"Y": SMALL.data.observations[:, 0][None]}


def _runs_or_domain_error(call, value):
    try:
        call(value)
    except DomainError:
        pass


@PROPERTY
@hypothesis.given(DRAWN_COUNTS)
def test_probe_nsim_property(value):
    _runs_or_domain_error(lambda v: pk.probe(SMALL, None, MEAN, nsim=v, seed=1), value)


@PROPERTY
@hypothesis.given(DRAWN_COUNTS)
def test_simulate_paths_nsim_property(value):
    _runs_or_domain_error(lambda v: pk.simulate_paths(SMALL, None, 1, v), value)


@PROPERTY
@hypothesis.given(DRAWN_COUNTS, DRAWN_COUNTS)
def test_pfilter_counts_property(num_particles, max_fail):
    _runs_or_domain_error(lambda v: pk.pfilter(SMALL, num_particles=v, seed=1,
                                               max_fail=max_fail), num_particles)


@PROPERTY
@hypothesis.given(DRAWN_COUNTS, DRAWN_COUNTS, DRAWN_COUNTS, DRAWN_COUNTS)
def test_nlf_settings_property(lag, n_rbf, sim_length, transient):
    _runs_or_domain_error(lambda v: pk.NlfSettings(lags=(v,), n_rbf=n_rbf,
                                                   sim_length=sim_length,
                                                   transient=transient), lag)


@PROPERTY
@hypothesis.given(DRAWN_COUNTS)
def test_probe_acf_lags_property(value):
    _runs_or_domain_error(lambda v: pk.probe_acf("Y", [v]).apply(BATCH), value)
