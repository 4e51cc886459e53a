"""CSV ingestion and result serialization.

All files are UTF-8 CSV with a header row.  Datasets carry a ``time`` column
plus one column per observable; covariate tables look the same with covariate
columns.  Floats are written with ``repr`` so files round-trip exactly.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .core import CovariateTable, TimeSeriesData
from .exceptions import DomainError
from .pmcmc import Chain
from .probes import ProbeResult

__all__ = [
    "load_time_series",
    "load_covariates",
    "write_simulations_csv",
    "write_trace_csv",
    "write_chain_csv",
    "write_probes_csv",
]


def _fmt(value) -> str:
    v = float(value)
    if math.isnan(v):
        return "NA"
    return repr(v)


def _parse(cell: str, where: str) -> float:
    cell = cell.strip()
    if cell in ("", "NA", "NaN", "nan"):
        return float("nan")
    try:
        return float(cell)
    except ValueError:
        raise DomainError(f"{where}: not a number: {cell!r}") from None


def _read_table(path, time_col):
    """Header and (rows, columns) float table of a CSV file.

    Malformed content raises :class:`DomainError` naming the file and line;
    a file that cannot be opened raises the ``OSError``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DomainError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if time_col not in header:
                raise DomainError(f"{path}: no {time_col!r} column (found {header})")
            rows = []
            for row in reader:
                if not row:
                    continue
                where = f"{path}:{reader.line_num}"
                if len(row) != len(header):
                    raise DomainError(f"{where}: {len(row)} cells, but the header has "
                                      f"{len(header)}")
                rows.append([_parse(c, where) for c in row])
        except (UnicodeDecodeError, csv.Error) as err:
            raise DomainError(f"{path}: unreadable CSV: {err}") from None
    if not rows:
        raise DomainError(f"{path}: no data rows")
    return header, np.array(rows, dtype=float)


def load_time_series(path, t0, time_col="time", observables=None, sim=None) -> TimeSeriesData:
    """Read a dataset CSV: a time column plus observable columns.

    ``observables`` selects and orders columns (default: every non-time
    column).  A ``sim`` column (written for multi-realization files) requires
    choosing one realization via ``sim=``.
    """
    header, table = _read_table(path, time_col)
    if "sim" in header and time_col != "sim":
        if sim is None:
            sims = sorted(set(table[:, header.index("sim")]))
            raise DomainError(
                f"{path}: file holds {len(sims)} realizations; pass sim= to pick one"
            )
        mask = table[:, header.index("sim")] == float(sim)
        if not mask.any():
            raise DomainError(f"{path}: no rows with sim={sim}")
        table = table[mask]
    if observables is None:
        observables = [h for h in header if h not in (time_col, "sim")]
    missing = [c for c in observables if c not in header]
    if missing:
        raise DomainError(f"{path}: missing observable columns {missing}")
    times = table[:, header.index(time_col)]
    obs = np.column_stack([table[:, header.index(c)] for c in observables])
    try:
        return TimeSeriesData(t0=t0, times=times, observations=obs,
                              obs_names=tuple(observables))
    except DomainError as err:
        raise DomainError(f"{path}: {err}") from None


def load_covariates(path, time_col="time") -> CovariateTable:
    header, table = _read_table(path, time_col)
    names = [h for h in header if h != time_col]
    if not names:
        raise DomainError(f"{path}: covariate file has no value columns")
    values = np.column_stack([table[:, header.index(c)] for c in names])
    try:
        return CovariateTable(times=table[:, header.index(time_col)], values=values,
                              names=tuple(names))
    except DomainError as err:
        raise DomainError(f"{path}: {err}") from None


def write_simulations_csv(path, records, include_states=True):
    """Write simulation records; one row per (realization, observation time).

    Single realizations omit the ``sim`` column so the file feeds straight
    back into :func:`load_time_series`.
    """
    records = list(records)
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


def write_trace_csv(path, result):
    """Write a parameter-search trace: one row per iteration, holding the
    estimate and the log likelihood of that iteration's perturbed filter."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration"] + list(result.param_names) + ["loglik"])
        for m in range(result.trace.shape[0]):
            writer.writerow([m + 1] + [_fmt(v) for v in result.trace[m]]
                            + [_fmt(result.logliks[m])])


def write_chain_csv(path, chain: Chain):
    """Write an MCMC chain: params, loglik, logprior, accepted, plus any
    per-step extras (e.g. the ABC scaled distance)."""
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


def write_probes_csv(path, result: ProbeResult):
    """Write probe values: the observed row followed by one row per simulation."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["which"] + list(result.labels))
        writer.writerow(["observed"] + [_fmt(v) for v in result.observed])
        for j in range(result.n_sim):
            writer.writerow([f"sim{j}"] + [_fmt(v) for v in result.simulated[j]])
