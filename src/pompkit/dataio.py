"""CSV ingestion and result serialization.

All files are UTF-8 CSV with a header row.  Datasets carry a ``time`` column
plus one column per observable; covariate tables look the same with covariate
columns.  Floats are written with ``repr`` so files round-trip exactly.  The
writers format each distinct value once per column and reuse its text for
every cell holding it; the bytes are the same as formatting cell by cell.
"""

from __future__ import annotations

import csv

import numpy as np

from .core import CovariateTable, TimeSeriesData
from .exceptions import DomainError, require_names
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
                if len(row) != len(header):
                    raise DomainError(f"{path}:{reader.line_num}: {len(row)} cells, but the "
                                      f"header has {len(header)}")
                # float() strips the cell as _parse does, so the fast path accepts
                # exactly what _parse would, with the same values; any other row
                # (missing values, bad cells) goes through _parse
                try:
                    rows.append([float(c) for c in row])
                except ValueError:
                    where = f"{path}:{reader.line_num}"
                    rows.append([_parse(c, where) for c in row])
        except (UnicodeDecodeError, csv.Error) as err:
            raise DomainError(f"{path}: unreadable CSV: {err}") from None
    if not rows:
        raise DomainError(f"{path}: no data rows")
    return header, np.array(rows, dtype=float)


def load_time_series(path, t0, observables=None, sim=None) -> TimeSeriesData:
    """Read a dataset CSV: a ``time`` column plus observable columns.

    ``observables`` selects and orders columns (default: every non-time
    column).  A ``sim`` column (written for multi-realization files) requires
    choosing one realization via ``sim=``.
    """
    header, table = _read_table(path, "time")
    if "sim" in header:
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
        observables = [h for h in header if h not in ("time", "sim")]
    try:
        require_names("observable columns", observables, header)
        times = table[:, header.index("time")]
        obs = np.column_stack([table[:, header.index(c)] for c in observables])
        return TimeSeriesData(t0=t0, times=times, observations=obs,
                              obs_names=tuple(observables))
    except DomainError as err:
        raise DomainError(f"{path}: {err}") from None


def load_covariates(path) -> CovariateTable:
    header, table = _read_table(path, "time")
    names = [h for h in header if h != "time"]
    if not names:
        raise DomainError(f"{path}: covariate file has no value columns")
    values = np.column_stack([table[:, header.index(c)] for c in names])
    try:
        return CovariateTable(times=table[:, header.index("time")], values=values,
                              names=tuple(names))
    except DomainError as err:
        raise DomainError(f"{path}: {err}") from None


def _gather(texts, index) -> list:
    """The cells ``texts[i]`` for each ``i`` in ``index``."""
    return np.array(texts, dtype=object)[index].tolist()


def _fmt_column(values) -> list:
    """CSV cells of a float column: shortest round-trip ``repr``, ``NA`` for NaN.

    Each distinct value is formatted once.  Values are told apart by their
    bits, not by ``==``, which would merge ``-0.0`` into ``0.0``.
    """
    col = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    texts = list(map(repr, distinct.tolist()))
    for i in np.flatnonzero(np.isnan(distinct)).tolist():
        texts[i] = "NA"
    return _gather(texts, inverse)


def _int_column(values) -> list:
    """CSV cells of an integer column, each distinct value formatted once."""
    distinct, inverse = np.unique(np.asarray(values, dtype=np.int64), return_inverse=True)
    return _gather(list(map(str, distinct.tolist())), inverse)


def _write_csv(path, header, columns):
    """Write the header row and then the rows of the equal-length cell columns,
    with the CRLF row ends of :mod:`csv`'s default dialect."""
    lengths = sorted(set(map(len, columns)))
    if len(lengths) > 1:
        raise DomainError(f"{path}: columns of unequal lengths {lengths}")
    # one flat list, row after row, of each cell followed by its separator: a
    # single join of it is cheaper than joining each row first
    stride, n_rows = 2 * len(columns), lengths[0]
    pieces = [","] * (stride * n_rows)
    for i, cells in enumerate(columns):
        pieces[2 * i::stride] = cells
    pieces[stride - 1::stride] = ["\r\n"] * n_rows
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(pieces))


def write_simulations_csv(path, records, include_states=True):
    """Write simulation records; one row per (realization, observation time).

    Single realizations omit the ``sim`` column so the file feeds straight
    back into :func:`load_time_series`.  Every record must carry the first
    one's observable names (and state names, when they are written).
    """
    records = list(records)
    if not records:
        raise DomainError("write_simulations_csv: no records to write")
    first = records[0]
    for attr in ("obs_names", "state_names") if include_states else ("obs_names",):
        for j, rec in enumerate(records):
            if tuple(getattr(rec, attr)) != tuple(getattr(first, attr)):
                raise DomainError(f"write_simulations_csv: record {j} has {attr} "
                                  f"{getattr(rec, attr)}, record 0 has {getattr(first, attr)}")
    many = len(records) > 1
    header = (["sim"] if many else []) + ["time"]
    if include_states:
        header += list(first.state_names)
    header += list(first.obs_names)
    counts = [rec.observations.shape[0] for rec in records]
    columns = []
    if many:
        columns.append([cell for j, n in enumerate(counts) for cell in [str(j)] * n])
    if all(rec.times is first.times for rec in records) and len(set(counts)) == 1:
        columns.append(_fmt_column(first.times[1:counts[0] + 1]) * len(records))
    else:
        columns.append(_fmt_column(np.concatenate(
            [rec.times[1:n + 1] for rec, n in zip(records, counts)])))
    table = np.concatenate([rec.observations for rec in records])
    if include_states:
        table = np.hstack([np.concatenate([rec.states[1:n + 1]
                                           for rec, n in zip(records, counts)]), table])
    columns += [_fmt_column(col) for col in table.T]
    _write_csv(path, header, columns)


def write_trace_csv(path, result):
    """Write a parameter-search trace: one row per iteration, holding the
    estimate and the log likelihood of that iteration's perturbed filter."""
    M = result.trace.shape[0]
    columns = [list(map(str, range(1, M + 1)))]
    columns += [_fmt_column(col) for col in result.trace.T]
    columns.append(_fmt_column(result.logliks[:M]))
    _write_csv(path, ["iteration"] + list(result.param_names) + ["loglik"], columns)


def write_chain_csv(path, chain: Chain):
    """Write an MCMC chain: params, loglik, logprior, accepted and, for ABC, the
    per-step scaled probe distance; the other extras are not per step."""
    M = chain.n_steps
    extra_cols = ["distance"] if "distance" in chain.extras else []
    columns = [list(map(str, range(1, M + 1)))]
    columns += [_fmt_column(col) for col in chain.samples.T]
    columns += [_fmt_column(chain.logliks[:M]), _fmt_column(chain.log_priors[:M]),
                _int_column(chain.accepted[:M])]
    columns += [_fmt_column(chain.extras[k]) for k in extra_cols]
    _write_csv(path, ["step"] + list(chain.param_names)
               + ["loglik", "logprior", "accepted"] + extra_cols, columns)


def write_probes_csv(path, result: ProbeResult):
    """Write probe values: the observed row followed by one row per simulation."""
    table = np.vstack([result.observed, result.simulated])
    columns = [["observed"] + [f"sim{j}" for j in range(result.n_sim)]]
    columns += [_fmt_column(col) for col in table.T]
    _write_csv(path, ["which"] + list(result.labels), columns)
