"""Property: K filters run as the blocks of one swarm give exactly what a plain
loop gives that weights and resamples each block on its own, one uniform per
unfailed block in block order, failures and the errors they raise included."""

import dataclasses

import numpy as np
import pytest

import pompkit as pk
from pompkit import core, smc
from pompkit.exceptions import DomainError, FilteringFailureError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(max_examples=100, deadline=None, database=None)
N_OBS = 6
GOMP = pk.gompertz_model(n_obs=N_OBS)
GOMP = pk.attach_data(GOMP, pk.simulate(GOMP, seed=3)[0])


def forcing(model, J, forced):
    """The model with block k's log weights all set to ``value`` at step n, for
    each (k, n, value) in ``forced``; blocks are the swarm's rows k*J..(k+1)*J-1."""
    dmeasure = model.dmeasure

    def forced_dmeasure(y, x, p, t, log, cv):
        out = np.array(dmeasure(y, x, p, t, log, cv), dtype=float)
        for k, n, value in forced:
            if t == model.data.times[n]:
                out[k * J:(k + 1) * J] = value
        return out

    return dataclasses.replace(model, dmeasure=forced_dmeasure)


def plain_blocks(model, blocks, J, seed, max_fail):
    """The batched filter written out block by block: one FilterResult per block."""
    K, N, q = len(blocks), model.data.n_obs, model.n_states
    p = smc._block_params([b.as_dict() for b in blocks], J)
    rng = pk.stream(seed, "pfilter")
    x = core._init_states(model, p, model.data.t0, rng, K * J)
    cond_logliks, ess = np.empty((K, N)), np.empty((K, N))
    means, n_failures = np.empty((K, N, q)), [0] * K
    t_prev = model.data.t0
    for n, t in enumerate(model.data.times.tolist()):
        x = core.advance(model, x, p, t_prev, t, rng)
        logw = core.measurement_logdensity(model, model.data._records[n], x, p, t)
        idx = np.arange(K * J)
        for k in range(K):
            rows = slice(k * J, (k + 1) * J)
            max_logw = logw[rows].max()
            if np.isnan(max_logw):
                raise DomainError(f"dmeasure returned NaN at t={t}; "
                                  "it must return finite values or -inf")
            if max_logw == -np.inf:
                n_failures[k] += 1
                if n_failures[k] > max_fail:
                    raise FilteringFailureError(n + 1, t)
                cond_logliks[k, n], ess[k, n] = -np.inf, J
                means[k, n] = x[rows].mean(axis=0)
                continue
            w = np.exp(logw[rows] - max_logw)
            cond_logliks[k, n] = max_logw + np.log(w.sum() / J)
            w_norm = w / w.sum()
            ess[k, n] = 1.0 / (w_norm * w_norm).sum()
            means[k, n] = w_norm @ x[rows]
            idx[rows] = k * J + smc._systematic_resample(w_norm, rng, np.arange(J))
        x = x[idx]
        t_prev = t
    return [smc.FilterResult(loglik=float(cond_logliks[k].sum()), cond_logliks=cond_logliks[k],
                             ess=ess[k], filter_means=means[k], num_particles=J,
                             n_failures=n_failures[k], final_particles=x[k * J:(k + 1) * J])
            for k in range(K)]


def outcome(run):
    """``run()``'s results, or the type and message of the error it raised."""
    try:
        return run()
    except (DomainError, FilteringFailureError) as err:
        return type(err), str(err), getattr(err, "step", None)


BLOCK_PARAMS = st.fixed_dictionaries({"r": st.floats(0.05, 0.5), "sigma": st.floats(0.05, 0.3),
                                      "tau": st.floats(0.05, 0.3)})


@st.composite
def block_filters(draw):
    K = draw(st.integers(1, 5))
    J = draw(st.integers(1, 40))
    blocks = [GOMP.params.replace(**draw(BLOCK_PARAMS)) for _ in range(K)]
    # (block, step, value): few steps, so that blocks often share one
    forced = draw(st.lists(st.tuples(st.integers(0, K - 1), st.integers(0, N_OBS - 1),
                                     st.sampled_from([-np.inf] * 9 + [np.nan])),
                           max_size=5))
    return blocks, J, forced, draw(st.integers(0, 2)), draw(st.integers(0, 2**32))


@PROPERTY
@hypothesis.given(block_filters())
def test_blocks_match_the_plain_per_block_loop(case):
    blocks, J, forced, max_fail, seed = case
    model = forcing(GOMP, J, forced)
    got = outcome(lambda: smc._pfilter_blocks(model, blocks, J, seed, max_fail))
    want = outcome(lambda: plain_blocks(model, blocks, J, seed, max_fail))
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, list) and len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.loglik, g.n_failures, g.num_particles) == (w.loglik, w.n_failures, J)
        for field in ("cond_logliks", "ess", "filter_means", "final_particles"):
            assert np.array_equal(getattr(g, field), getattr(w, field)), field


def searched_indices(cumulative, u, failed):
    """Per-row ``searchsorted`` systematic resampling of (K, J) cumulative sums, as
    global indices, with the identity for each failed row."""
    K, J = cumulative.shape
    queries = (u[:, None] + np.arange(J, dtype=float)) / J
    idx = np.concatenate([row.searchsorted(q, side="left") + k * J
                          for k, (row, q) in enumerate(zip(cumulative, queries))])
    for k in failed:
        idx[k * J:(k + 1) * J] = np.arange(k * J, (k + 1) * J)
    return idx


@st.composite
def resampling_rows(draw, K, J):
    """(K, J) row cumulative sums of normalized weights, made as the filter makes
    them, one uniform per row and a list of failed rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    w = np.empty((K, J))
    u = np.empty(K)
    for k in range(K):
        kind = draw(st.sampled_from(["equal", "counts", "sparse", "one", "spread"]))
        if kind == "equal":
            w[k] = 1.0
        elif kind == "counts":  # small integers, many zeros: sums land on the query grid
            w[k] = rng.integers(0, 4, J)
        elif kind == "sparse":
            w[k] = rng.exponential(size=J) * (rng.random(J) < 0.05)
        elif kind == "one":
            w[k] = 0.0
        else:
            w[k] = rng.exponential(size=J) ** 8
        if not w[k].any():
            w[k, draw(st.integers(0, J - 1))] = 1.0
        u[k] = draw(st.one_of(st.sampled_from([0.0, np.nextafter(1.0, 0.0)]),
                              st.integers(0, J - 1).map(lambda i: i / J),
                              st.floats(0.0, 1.0, exclude_max=True)))
    w /= w.sum(axis=1)[:, None]
    cumulative = np.add.accumulate(w, axis=1)
    cumulative[:, -1] = 1.0
    failed = draw(st.lists(st.integers(0, K - 1), unique=True, max_size=K - 1).map(sorted))
    u[failed] = 0.0
    return cumulative, u, failed


@st.composite
def resampling_cases(draw):
    K = draw(st.integers(1, 6))
    J = draw(st.one_of(st.integers(1, 40), st.integers(1, 2000)))
    return K, J, [draw(resampling_rows(K, J)) for _ in range(2)]


@PROPERTY
@hypothesis.given(resampling_cases())
def test_counting_gives_the_indices_of_the_per_row_searches(case):
    K, J, draws = case
    resample = smc._counting_resampler(K, J)
    for cumulative, u, failed in draws:  # the second call reuses the first one's buffers
        assert np.array_equal(resample(cumulative, u, failed),
                              searched_indices(cumulative, u, failed))


def test_a_swarm_resampled_by_counting_matches_the_plain_per_block_loop():
    K, J = 8, 600
    assert K * J >= smc._COUNTING_MIN_SWARM
    blocks = [GOMP.params.replace(r=0.05 * (k + 1)) for k in range(K)]
    model = forcing(GOMP, J, [(5, 2, -np.inf)])
    got = smc._pfilter_blocks(model, blocks, J, 17, 1)
    want = plain_blocks(model, blocks, J, 17, 1)
    assert [g.n_failures for g in got] == [0] * 5 + [1] + [0] * 2
    for g, w in zip(got, want):
        assert (g.loglik, g.n_failures) == (w.loglik, w.n_failures)
        for field in ("cond_logliks", "ess", "filter_means", "final_particles"):
            assert np.array_equal(getattr(g, field), getattr(w, field)), field
