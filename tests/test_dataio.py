import csv
import math

import numpy as np
import pytest

import pompkit as pk
from pompkit import dataio
from pompkit.core import SimulationRecord
from pompkit.exceptions import DomainError
from pompkit.mif import MifResult
from pompkit.pmcmc import Chain
from pompkit.probes import ProbeResult

# every float that formats unusually: NaN, signed infinities and zero, the
# extremes of the range, a sum with a long repr, and integer-valued floats
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e-324, 0.1 + 0.2,
                    3.0, -2.0, 1e16, 123456789.0, 1.7976931348623157e308])


def _fmt(value) -> str:
    """Per-value reference formatting: shortest round-trip repr, NA for NaN."""
    v = float(value)
    if math.isnan(v):
        return "NA"
    return repr(v)


def values(shape, seed):
    """Random floats of ``shape`` with every SPECIAL value mixed in."""
    g = np.random.default_rng(seed)
    out = g.normal(size=shape) * 10.0 ** g.integers(-5, 6, size=shape)
    flat = out.reshape(-1)
    picks = g.choice(flat.size, size=min(flat.size, 2 * SPECIAL.size), replace=False)
    flat[picks] = np.resize(SPECIAL, picks.size)
    return out


def record(n_obs, seed, times=None, state_names=("S", "I"), obs_names=("cases",)):
    times = values(n_obs + 1, seed) if times is None else times
    return SimulationRecord(
        times=times, states=values((n_obs + 1, len(state_names)), seed + 1),
        observations=values((n_obs, len(obs_names)), seed + 2),
        state_names=state_names, obs_names=obs_names,
        params=pk.ParamVector({"beta": 1.0}))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# -- per-value reference writers --------------------------------------------


def reference_simulations(path, records, include_states=True):
    many = len(records) > 1
    first = records[0]
    header = (["sim"] if many else []) + ["time"]
    if include_states:
        header += list(first.state_names)
    header += list(first.obs_names)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j, rec in enumerate(records):
            for n in range(rec.observations.shape[0]):
                row = ([j] if many else []) + [_fmt(rec.times[n + 1])]
                if include_states:
                    row += [_fmt(v) for v in rec.states[n + 1]]
                row += [_fmt(v) for v in rec.observations[n]]
                writer.writerow(row)


def reference_trace(path, result):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration"] + list(result.param_names) + ["loglik"])
        for m in range(result.trace.shape[0]):
            writer.writerow([m + 1] + [_fmt(v) for v in result.trace[m]]
                            + [_fmt(result.logliks[m])])


def reference_chain(path, chain):
    extra_cols = [k for k, v in chain.extras.items()
                  if isinstance(v, np.ndarray) and v.ndim == 1 and v.size == chain.n_steps]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + list(chain.param_names)
                        + ["loglik", "logprior", "accepted"] + extra_cols)
        for m in range(chain.n_steps):
            row = [m + 1] + [_fmt(v) for v in chain.samples[m]]
            row += [_fmt(chain.logliks[m]), _fmt(chain.log_priors[m]),
                    int(chain.accepted[m])]
            row += [_fmt(chain.extras[k][m]) for k in extra_cols]
            writer.writerow(row)


def reference_probes(path, result):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["which"] + list(result.labels))
        writer.writerow(["observed"] + [_fmt(v) for v in result.observed])
        for j in range(result.n_sim):
            writer.writerow([f"sim{j}"] + [_fmt(v) for v in result.simulated[j]])


def assert_same_bytes(tmp_path, writer, reference, *args, **kwargs):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    writer(str(got), *args, **kwargs)
    reference(str(want), *args, **kwargs)
    assert read_bytes(got) == read_bytes(want)
    return read_bytes(got)


# -- the writers -------------------------------------------------------------


@pytest.mark.parametrize("include_states", [True, False])
def test_simulations_one_record_matches_reference(tmp_path, include_states):
    out = assert_same_bytes(tmp_path, dataio.write_simulations_csv, reference_simulations,
                            [record(12, 1)], include_states=include_states)
    for cell in (b"NA", b"inf", b"-inf", b"-0.0", b"1e-300", b"0.30000000000000004"):
        assert cell in out
    assert out.count(b"\r\n") == 13 and out.count(b"\n") == 13


@pytest.mark.parametrize("include_states", [True, False])
def test_simulations_shared_time_grid_matches_reference(tmp_path, include_states):
    times = np.concatenate(([0.0], np.arange(1.0, 9.0), [np.nan, 10.5]))
    records = [record(10, 10 * j, times=times) for j in range(4)]
    assert_same_bytes(tmp_path, dataio.write_simulations_csv, reference_simulations,
                      records, include_states=include_states)


@pytest.mark.parametrize("include_states", [True, False])
def test_simulations_per_record_times_match_reference(tmp_path, include_states):
    # equal grids held in distinct arrays, and records of different lengths
    grid = np.arange(0.0, 8.0)
    records = [record(7, 3, times=grid), record(7, 4, times=grid.copy()),
               record(4, 5), record(9, 6)]
    assert_same_bytes(tmp_path, dataio.write_simulations_csv, reference_simulations,
                      records, include_states=include_states)


def test_simulations_without_state_columns_match_reference(tmp_path):
    rec = record(6, 7, state_names=(), obs_names=("a", "b", "c"))
    assert_same_bytes(tmp_path, dataio.write_simulations_csv, reference_simulations,
                      [rec, rec], include_states=True)


def test_trace_matches_reference(tmp_path):
    for n_iter in (7, 0):
        result = MifResult(theta_hat=pk.ParamVector({"r": 0.1, "tau": 0.2}),
                           trace=values((n_iter, 2), 20), logliks=values(n_iter, 21),
                           param_names=("r", "tau"), final_filter=None)
        assert_same_bytes(tmp_path, dataio.write_trace_csv, reference_trace, result)


def test_chain_matches_reference(tmp_path):
    n = 15
    accepted = np.random.default_rng(30).random(n) < 0.5
    chain = Chain(param_names=("r", "sigma", "tau"), samples=values((n, 3), 31),
                  logliks=values(n, 32), log_priors=values(n, 33), accepted=accepted,
                  extras={"distance": values(n, 34), "scale": np.ones(4),
                          "note": "not a column"})
    out = assert_same_bytes(tmp_path, dataio.write_chain_csv, reference_chain, chain)
    assert out.startswith(b"step,r,sigma,tau,loglik,logprior,accepted,distance\r\n")


def test_probes_with_a_nan_probe_value_match_reference(tmp_path):
    simulated = values((9, 3), 40)
    simulated[:, 1] = np.nan  # a probe that is undefined on every simulation
    result = ProbeResult(labels=("mean", "acf[1]", "marg"), observed=SPECIAL[:3].copy(),
                         simulated=simulated, synth_loglik=float("nan"),
                         p_values=np.full(3, 0.5), correlations=np.zeros(3),
                         simulated_obs=np.zeros((9, 5, 1)))
    out = assert_same_bytes(tmp_path, dataio.write_probes_csv, reference_probes, result)
    assert out.splitlines()[1] == b"observed,NA,inf,-inf"


def test_probe_shaped_simulations_with_signed_zero_counts_match_reference(tmp_path):
    # what pomp-kit probe writes: many realisations of counts on one time grid,
    # where a cached cell text must not merge -0.0 into 0.0
    n_obs, nsim = 51, 200
    times = np.arange(n_obs + 1.0)
    no_states = np.empty((n_obs + 1, 0))
    counts = np.random.default_rng(50).poisson(3.0, size=(nsim, n_obs, 1)).astype(float)
    counts[counts == 0.0] *= np.resize([1.0, -1.0], int((counts == 0.0).sum()))
    records = [SimulationRecord(times=times, states=no_states, observations=obs,
                                state_names=(), obs_names=("y",),
                                params=pk.ParamVector({"r": 1.0}))
               for obs in counts]
    out = assert_same_bytes(tmp_path, dataio.write_simulations_csv, reference_simulations,
                            records, include_states=False)
    assert b",-0.0\r\n" in out and b",0.0\r\n" in out
    assert out.count(b"\r\n") == nsim * n_obs + 1


# -- rejected input ----------------------------------------------------------


def test_simulations_writer_rejects_no_records(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(DomainError, match="no records"):
        dataio.write_simulations_csv(str(path), [])
    with pytest.raises(DomainError, match="no records"):
        dataio.write_simulations_csv(str(path), iter(()))
    assert not path.exists()


def test_simulations_writer_rejects_records_with_different_names(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(DomainError, match="record 1 has obs_names"):
        dataio.write_simulations_csv(
            str(path), [record(4, 1), record(4, 2, obs_names=("deaths",))])
    with pytest.raises(DomainError, match="record 2 has state_names"):
        dataio.write_simulations_csv(
            str(path), [record(4, 1), record(4, 2), record(4, 3, state_names=("S", "R"))])
    assert not path.exists()
    # state names that are not written may differ
    dataio.write_simulations_csv(
        str(path), [record(4, 1), record(4, 3, state_names=("S", "R"))],
        include_states=False)
    assert read_bytes(path).startswith(b"sim,time,cases\r\n")


def test_simulations_writer_rejects_records_shorter_than_their_observations(tmp_path):
    path = tmp_path / "out.csv"
    short = record(5, 1)
    short = SimulationRecord(times=short.times[:4], states=short.states,
                             observations=short.observations, state_names=short.state_names,
                             obs_names=short.obs_names, params=short.params)
    with pytest.raises(DomainError, match="unequal lengths"):
        dataio.write_simulations_csv(str(path), [record(5, 2), short])
    assert not path.exists()


# ---------------------------------------------------------------------------
# reading


def _per_cell_table(path):
    """Every data row parsed cell by cell, as the reader parsed all rows before
    its fast path: the reference for it."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[dataio._parse(c, f"{path}:{reader.line_num}") for c in row]
                         for row in reader if row], dtype=float)


READ_CELLS = ["", "NA", " NA ", "nan", "NaN", "-nan", " 2.5 ", "\t7", "inf", "-inf",
              "+Infinity", "1e-3", "-2.5E+4", "0", "-0.0", "1_000", "12"]


def test_read_table_matches_the_per_cell_parse_bit_for_bit(tmp_path):
    path = tmp_path / "cells.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "a", "b"])
        for i, cell in enumerate(READ_CELLS):
            writer.writerow([i, cell, "1.5"])      # missing cells take the slow path
            writer.writerow([i, "3.25", cell])
        writer.writerow([])                        # blank lines are skipped
        writer.writerow([99, " 4 ", "5e0"])        # every cell numeric: fast path
    header, table = dataio._read_table(path, "time")
    expected = _per_cell_table(path)
    assert header == ["time", "a", "b"]
    assert table.shape == expected.shape == (2 * len(READ_CELLS) + 1, 3)
    assert table.tobytes() == expected.tobytes()


def test_non_numeric_cell_names_file_and_line_in_one_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,Y\n1,0.5\n2, abc \n3,0.7\n", encoding="utf-8")
    with pytest.raises(DomainError) as err:
        dataio.load_time_series(path, 0.0)
    assert str(err.value) == f"{path}:3: not a number: 'abc'"
