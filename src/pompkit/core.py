"""Model abstraction and whole-model simulation.

A partially observed Markov process is described here by a :class:`ModelSpec`:
a latent-state simulator (``rprocess``), a measurement simulator and/or
density (``rmeasure`` / ``dmeasure``), an initial-state simulator
(``initializer``), optional prior callbacks, optional parameter transforms,
a dataset, and optional covariates.

Vectorized callback convention
------------------------------
All callbacks operate on *batches*: states and parameters are mappings from
name to a numpy array whose leading axis indexes the batch (particles or
replicate simulations).  Scalar parameter values broadcast against batched
states.  Signatures:

``rprocess(x, params, t0, t1, rng, covars) -> x``
    Advance every batch member from time ``t0`` to ``t1``.  ``covars`` is the
    model's :class:`CovariateTable` (or None); the step-function wrappers
    below handle interpolation.

``rmeasure(x, params, t, rng, covars_t) -> y``
    Draw one observation per batch member; ``covars_t`` is a dict of covariate
    values at ``t``.

``dmeasure(y, x, params, t, log, covars_t) -> array``
    Density of the single observation record ``y`` (dict of scalars, possibly
    NaN for missing components) under each batch member's state.  Must return
    finite values or ``-inf`` when ``log=True``; never NaN.

``initializer(params, t0, rng, n) -> x``
    Draw ``n`` initial states.  Values may be scalars (broadcast) or arrays of
    length ``n``.

``rprior(rng, n) -> params`` and ``dprior(params, log) -> scalar``
    Prior simulator and density over a plain parameter dict.

``to_estimation(params) / from_estimation(params)``
    Elementwise dict-to-dict transform pair between the natural and the
    unconstrained estimation scale.

Every named output of ``rprocess``, ``rmeasure`` and ``initializer``, and
``dmeasure``'s result, is a float64 array of length n, taken as it is, or
anything that broadcasts to one, a scalar say, taken as a float copy.  A
missing name raises :class:`ModelComponentError` and any other shape
:class:`DomainError`, each naming the callback.

Callbacks must be pure given their inputs and the supplied generator, which
makes a constructed model immutable and safe to share across workers.  Pure
includes never modifying an input array in place: :func:`simulate_paths`
writes each step's outputs straight into the arrays it returns and passes the
arrays ``rprocess`` returned back in, unchanged, as the next step's ``x`` and
as ``rmeasure``'s ``x``, so an array a callback receives may be one it
returned on an earlier call.
"""

from __future__ import annotations

import bisect
import functools
import logging
import threading
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .exceptions import (
    DomainError,
    ModelComponentError,
    PompKitError,
    SimulationDivergedError,
    TransformDomainError,
    require_batch,
    require_integer,
    require_names,
)
from .rng import stream

__all__ = [
    "ParamVector",
    "TimeSeriesData",
    "CovariateTable",
    "ModelSpec",
    "SimulationRecord",
    "simulate",
    "simulate_paths",
    "transform_params",
    "discrete_time_process",
    "euler_process",
    "log_exp_transforms",
    "attach_data",
]

logger = logging.getLogger("pompkit")

INIT_SUFFIX = ".0"

# ``warned`` holds the (table id, side) of each covariate extrapolation
# already warned about in the run in progress on this thread; it is None
# outside a run (see one_run).  A thread-local rather than a ContextVar:
# setting a ContextVar slows every numpy ufunc call made while it is set.
_run_state = threading.local()


def one_run(fn):
    """Decorator: a call of ``fn`` is one run, which warns once per covariate
    table and side about extrapolation.  A call made inside another run
    belongs to that run, so a pmcmc chain or a CLI run warns once in all."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        if getattr(_run_state, "warned", None) is not None:
            return fn(*args, **kwargs)
        _run_state.warned = set()
        try:
            return fn(*args, **kwargs)
        finally:
            _run_state.warned = None

    return run


class ParamVector(Mapping):
    """Named, ordered parameter vector with total name lookup."""

    __slots__ = ("_names", "_values")

    def __init__(self, entries=None, **kwargs):
        if entries is None:
            items = list(kwargs.items())
        elif isinstance(entries, Mapping):
            items = list(entries.items()) + list(kwargs.items())
        else:
            items = list(entries) + list(kwargs.items())
        names = tuple(str(k) for k, _ in items)
        if not names:
            raise DomainError(f"{type(self).__name__} cannot be empty")
        if any(n == "" for n in names):
            raise DomainError(f"{type(self).__name__} names must be non-empty")
        self._names = _unique(names, type(self).__name__)
        self._values = np.array([float(v) for _, v in items], dtype=float)

    @property
    def names(self) -> tuple:
        return self._names

    @property
    def values(self) -> np.ndarray:
        return self._values.copy()

    def __getitem__(self, name):
        try:
            return float(self._values[self._names.index(name)])
        except ValueError:
            raise KeyError(
                f"no entry named {name!r}; declared names: {list(self._names)}"
            ) from None

    def __iter__(self):
        return iter(self._names)

    def __len__(self):
        return len(self._names)

    def as_dict(self) -> dict:
        return {n: float(v) for n, v in zip(self._names, self._values)}

    def replace(self, **updates) -> "ParamVector":
        require_names("parameter names", updates, self._names)
        return type(self)({**self.as_dict(), **updates})

    def __repr__(self):
        body = ", ".join(f"{n}={v:.6g}" for n, v in zip(self._names, self._values))
        return f"{type(self).__name__}({body})"

    def __eq__(self, other):
        return (
            isinstance(other, ParamVector)
            and self._names == other._names
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self):
        return hash((self._names, (self._values + 0.0).tobytes()))  # -0.0 == 0.0


def _unique(names, what) -> tuple:
    """``names`` as a tuple; :class:`DomainError` if any ``what`` name repeats."""
    names = tuple(names)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DomainError(f"duplicate {what} names: {dupes}")
    return names


def _checked_times(t0, times, what="observation") -> np.ndarray:
    """A read-only float copy of ``times``, checked to be finite and strictly
    increasing and, unless ``t0`` is None, to satisfy t0 <= t1 < ... < tN."""
    times = np.array(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError(f"{what} times must be a non-empty 1-D array")
    if not (np.all(np.isfinite(times)) and (t0 is None or np.isfinite(t0))):
        raise DomainError(f"t0 and the {what} times must be finite")
    if np.any(np.diff(times) <= 0):
        raise DomainError(f"{what} times must be strictly increasing")
    if t0 is not None and t0 > times[0]:
        raise DomainError(f"t0={t0} exceeds first {what} time {times[0]}")
    times.flags.writeable = False
    return times


def _checked_table(times, values, names, what, t0=None):
    """Read-only float copies ``(times, values, names)`` of a table of ``what``
    ("observation" or "covariate") values, one row per time: times as
    :func:`_checked_times` checks them, unique names, and values of shape
    (n_times, n_names), given either way round."""
    times = _checked_times(t0, times, what)
    values = np.atleast_2d(np.array(values, dtype=float))
    if values.shape[0] != times.size and values.shape[1] == times.size:
        values = values.T
    names = _unique(names, what)
    if values.shape != (times.size, len(names)):
        raise DomainError(f"{what} values shape {values.shape} does not match "
                          f"(n_times={times.size}, n_names={len(names)})")
    values.flags.writeable = False
    return times, values, names


def _even_step(times):
    """The step of the grid ``times`` (at least two points), or None when its
    steps differ by more than 1e-8 relative to the first."""
    diffs = np.diff(times)
    step = float(diffs[0])
    return None if np.any(np.abs(diffs - step) > 1e-8 * max(1.0, abs(step))) else step


@dataclass(frozen=True)
class TimeSeriesData:
    """Observation times, observation records, and the initial time.

    ``observations`` is an (N, r) array aligned with ``times``; missing values
    are NaN.  Times must satisfy t0 <= t1 < t2 < ... < tN.
    """

    t0: float
    times: np.ndarray
    observations: np.ndarray
    obs_names: tuple

    def __post_init__(self):
        # read-only copies: the filter's records below are built from them once
        times, obs, names = _checked_table(self.times, self.observations, self.obs_names,
                                           "observation", self.t0)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "obs_names", names)
        object.__setattr__(self, "_records", tuple(
            dict(zip(self.obs_names, row)) for row in obs.tolist()))
        object.__setattr__(self, "_all_missing", np.isnan(obs).all(axis=1).tolist())

    @property
    def n_obs(self) -> int:
        return int(self.times.size)

    def column(self, name) -> np.ndarray:
        require_names("observation names", (name,), self.obs_names)
        return self.observations[:, self.obs_names.index(name)].copy()

    @staticmethod
    def empty(t0, times, obs_names) -> "TimeSeriesData":
        """Placeholder dataset of NaNs, to be filled by simulation."""
        return TimeSeriesData(
            t0=t0,
            times=times,
            observations=np.full((np.size(times), len(obs_names)), np.nan),
            obs_names=obs_names,
        )


@dataclass(frozen=True)
class CovariateTable:
    """Time-varying covariates with linear interpolation between rows."""

    times: np.ndarray
    values: np.ndarray
    names: tuple

    def __post_init__(self):
        # read-only copies: lookup answers from the plain-float copies below
        times, values, names = _checked_table(self.times, self.values, self.names,
                                              "covariate")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", names)
        # plain-float copies: lookup runs once per simulator step, and Python
        # float arithmetic gives the same IEEE results as numpy scalars
        object.__setattr__(self, "_time_list", times.tolist())
        object.__setattr__(self, "_value_rows", values.tolist())

    def lookup(self, t) -> dict:
        """Covariate values at time ``t``: exact at nodes, linear between them.

        Outside the table range the nearest two nodes are extrapolated
        linearly and a warning is logged once per side and run (every time
        outside a run; see :func:`one_run`).
        """
        times, rows = self._time_list, self._value_rows
        t = float(t)
        if len(times) == 1:
            return dict(zip(self.names, rows[0]))
        if t < times[0] or t > times[-1]:
            side = "before" if t < times[0] else "after"
            warned = getattr(_run_state, "warned", None)
            if warned is None or (id(self), side) not in warned:
                if warned is not None:
                    warned.add((id(self), side))
                logger.warning(
                    "covariate lookup at t=%g extrapolates %s the table range [%g, %g]",
                    t,
                    side,
                    times[0],
                    times[-1],
                )
            i = 0 if t < times[0] else len(times) - 2
        else:
            i = min(max(bisect.bisect_right(times, t) - 1, 0), len(times) - 2)
        w = (t - times[i]) / (times[i + 1] - times[i])
        return {n: lo + w * (hi - lo) for n, lo, hi in zip(self.names, rows[i], rows[i + 1])}


@dataclass(frozen=True)
class ModelSpec:
    """A partially observed Markov process model plus its dataset.

    Immutable after construction; see the module docstring for the callback
    contract.  ``accumulators`` lists state variables that sum events within a
    reporting interval and are reset to zero after each observation.
    """

    data: TimeSeriesData
    state_names: tuple
    rprocess: Optional[Callable] = None
    rmeasure: Optional[Callable] = None
    dmeasure: Optional[Callable] = None
    initializer: Optional[Callable] = None
    rprior: Optional[Callable] = None
    dprior: Optional[Callable] = None
    to_estimation: Optional[Callable] = None
    from_estimation: Optional[Callable] = None
    accumulators: tuple = ()
    params: Optional[ParamVector] = None
    covariates: Optional[CovariateTable] = None
    name: str = "model"

    def __post_init__(self):
        object.__setattr__(self, "state_names", _unique(self.state_names, "state"))
        object.__setattr__(self, "accumulators",
                           require_names("accumulators", self.accumulators, self.state_names))
        if (self.to_estimation is None) != (self.from_estimation is None):
            raise DomainError("to_estimation and from_estimation must be given together")

    @property
    def obs_names(self) -> tuple:
        return self.data.obs_names

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def require(self, operation, *components):
        for c in components:
            if getattr(self, c) is None:
                raise ModelComponentError(c, operation)

    def with_data(self, data: TimeSeriesData) -> "ModelSpec":
        return replace(self, data=data)

    def with_params(self, params: ParamVector) -> "ModelSpec":
        return replace(self, params=params)

    def default_params(self, params=None) -> ParamVector:
        p = params if params is not None else self.params
        if p is None:
            raise DomainError(f"no parameters supplied and model '{self.name}' has no default")
        return p


@dataclass(frozen=True)
class SimulationRecord:
    """One realization: latent states at (t0, t1..tN) and observations at t1..tN.

    Accumulator columns report the within-interval totals as seen by the
    measurement at each observation time; the internal carry is zeroed after
    each observation.
    """

    times: np.ndarray
    states: np.ndarray
    observations: np.ndarray
    state_names: tuple
    obs_names: tuple
    params: ParamVector

    def state_column(self, name) -> np.ndarray:
        require_names("state names", (name,), self.state_names)
        return self.states[:, self.state_names.index(name)].copy()

    def obs_column(self, name) -> np.ndarray:
        require_names("observation names", (name,), self.obs_names)
        return self.observations[:, self.obs_names.index(name)].copy()

    def as_dataset(self, t0) -> TimeSeriesData:
        return TimeSeriesData(
            t0=t0, times=self.times[1:], observations=self.observations,
            obs_names=self.obs_names,
        )


# ---------------------------------------------------------------------------
# Parameter handling


def params_to_dict(params) -> dict:
    if isinstance(params, ParamVector):
        return params.as_dict()
    if isinstance(params, Mapping):
        return dict(params)
    raise TypeError(f"expected ParamVector or mapping, got {type(params)!r}")


def transform_params(model: ModelSpec, params, direction: str):
    """Map parameters between natural and estimation scales.

    ``direction`` is ``"to-estimation"`` or ``"from-estimation"``.  When the
    model registers no transform pair this is the identity.  Non-finite output
    raises :class:`TransformDomainError` naming the offending parameters.
    """
    if direction not in ("to-estimation", "from-estimation"):
        raise DomainError(f"unknown transform direction: {direction!r}")
    d = _transformed(model, params_to_dict(params), direction)
    return ParamVector(d) if isinstance(params, ParamVector) else d


def _transformed(model: ModelSpec, d: dict, direction: str, checked=None) -> dict:
    """``d`` through the model's transform in ``direction``; the entries named
    in ``checked`` (all of them by default) must come out finite."""
    fn = model.to_estimation if direction == "to-estimation" else model.from_estimation
    if fn is None:
        return d
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        d = dict(fn(d))
    bad = [k for k in (d if checked is None else checked) if not np.isfinite(d[k]).all()]
    if bad:
        raise TransformDomainError(bad, direction)
    return d


def _to_estimation(model: ModelSpec, params, names) -> dict:
    """Estimation-scale values of the parameters in ``names``; see
    :func:`_from_estimation`."""
    origin = _transformed(model, dict.fromkeys(params, 0.0), "from-estimation", ())
    work = _transformed(model, origin | {n: params[n] for n in names}, "to-estimation", names)
    return {n: work[n] for n in names}


def _from_estimation(model: ModelSpec, params, values: dict) -> dict:
    """The natural parameters ``params`` with those in ``values`` mapped back
    from the estimation scale.  The transforms act elementwise, so every other
    parameter enters them at the scale's origin and keeps its value bit for
    bit: one that does not move never crosses them (``sigma = 0`` has no
    value on a log scale)."""
    work = _transformed(model, dict.fromkeys(params, 0.0) | values, "from-estimation", values)
    return {**params, **{n: work[n] for n in values}}


def _check_scales(what, sd) -> None:
    """:class:`DomainError` unless every random-walk scale in ``sd`` is finite and >= 0."""
    scales = np.array([float(v) for v in sd.values()])
    if not np.all(np.isfinite(scales) & (scales >= 0)):
        raise DomainError(f"{what} scales must be finite and non-negative, got {dict(sd)}")


def _walk_scales(what, sd, names) -> np.ndarray:
    """The checked scales ``sd`` (name -> scale) in ``names`` order, 0 for a name it omits."""
    require_names(f"{what} names", sd, names)
    _check_scales(what, sd)
    return np.array([float(sd.get(n, 0.0)) for n in names])


def log_exp_transforms(names, logit_names=()):
    """Return a (to_estimation, from_estimation) pair taking ``names`` through
    log/exp and ``logit_names`` (probabilities) through logit/expit."""
    names, logit_names = tuple(names), tuple(logit_names)

    def to_est(params):
        out = dict(params)
        for n in names:
            out[n] = np.log(out[n])
        for n in logit_names:
            out[n] = np.log(out[n] / (1.0 - out[n]))
        return out

    def from_est(params):
        out = dict(params)
        for n in names:
            out[n] = np.exp(out[n])
        for n in logit_names:
            out[n] = 1.0 / (1.0 + np.exp(-out[n]))
        return out

    return to_est, from_est


# ---------------------------------------------------------------------------
# Process wrappers

_PLAN_CACHE_SIZE = 64


def _planned_process(step_fn, delta_t, plan):
    """An rprocess applying ``step_fn`` ``nstep`` times in steps of ``dt``,
    where ``(nstep, dt) = plan(t0, t1)`` depends on ``t1 - t0`` alone."""

    # step plan per span: a model's observation grid has few distinct gaps.
    # A span whose plan raises is never stored, so it raises on every call;
    # threads racing on a new span can only store the same plan.
    plans = {}

    def rprocess(x, params, t0, t1, rng, covars=None):
        span = t1 - t0
        step_plan = plans.get(span)
        if step_plan is None:
            step_plan = plan(t0, t1)
            if len(plans) < _PLAN_CACHE_SIZE:
                plans[span] = step_plan
        nstep, dt = step_plan
        t = t0
        for _ in range(nstep):
            cv = covars.lookup(t) if covars is not None else None
            x = step_fn(x, params, t, dt, rng, cv)
            t += dt
        return x

    rprocess.delta_t = delta_t
    return rprocess


def discrete_time_process(step_fn, delta_t):
    """Wrap a one-step map into an rprocess advancing in fixed steps of ``delta_t``.

    ``step_fn(x, params, t, delta_t, rng, covars_t) -> x`` is applied
    round((t1 - t0) / delta_t) times; the gap must be an integral number of
    steps.
    """

    def plan(t0, t1):
        span = t1 - t0
        nstep = int(round(span / delta_t))
        if abs(span - nstep * delta_t) > 1e-8 * max(1.0, abs(span)):
            raise DomainError(
                f"interval [{t0}, {t1}] is not a whole number of steps of {delta_t}"
            )
        return nstep, delta_t

    return _planned_process(step_fn, delta_t, plan)


def euler_process(step_fn, delta_t):
    """Wrap a step function into an rprocess using Euler sub-steps of at most ``delta_t``.

    The interval [t0, t1] is divided into ceil((t1-t0)/delta_t) equal sub-steps,
    so the step size actually used never exceeds ``delta_t``.
    """

    def plan(t0, t1):
        span = t1 - t0
        if span <= 0:
            return 0, 0.0
        nstep = max(1, int(np.ceil(span / delta_t - 1e-9)))
        return nstep, span / nstep

    return _planned_process(step_fn, delta_t, plan)


# ---------------------------------------------------------------------------
# Initialization and batch-state helpers


def default_initializer(model: ModelSpec):
    """Point initializer copying '<state>.0' parameters into like-named states.

    Accumulator states without a '.0' parameter start at zero.
    """

    def initializer(params, t0, rng, n):
        out = {}
        for s in model.state_names:
            key = s + INIT_SUFFIX
            if key in params:
                out[s] = params[key]
            elif s in model.accumulators:
                out[s] = 0.0
            else:
                raise ModelComponentError(
                    f"initializer (no parameter '{key}' for state '{s}')", "initialize"
                )
        return out

    return initializer


_FLOAT64 = np.dtype(np.float64)


def _column(out, name, n: int, component: str, operation: str) -> np.ndarray:
    """A callback's output ``out[name]`` as a float (n,) array, by the one rule
    for callback outputs (see the module docstring): a float64 (n,) array
    passes on as it is, anything that broadcasts to (n,) as a float copy.  A
    missing name raises :class:`ModelComponentError`, any other shape
    :class:`DomainError`."""
    try:
        v = out[name]
    except KeyError:
        raise ModelComponentError(f"{component} ('{name}' not returned)", operation) from None
    if type(v) is np.ndarray and v.dtype == _FLOAT64 and v.shape == (n,):
        return v  # the common case on the hot paths
    v = np.asarray(v, dtype=float)
    try:
        return np.broadcast_to(v, (n,)).copy()
    except ValueError:
        raise DomainError(f"{component} returned '{name}' of shape {v.shape}; "
                          f"{operation} needs shape ({n},) or a scalar") from None


def _stack(out: dict, names, n: int, component: str, operation: str) -> np.ndarray:
    """The (n, k) matrix of a callback's named outputs (see :func:`_column`)."""
    mat = np.empty((n, len(names)))
    for i, name in enumerate(names):
        mat[:, i] = _column(out, name, n, component, operation)
    return mat


def _init_states(model: ModelSpec, params: dict, t0, rng, n) -> np.ndarray:
    init = model.initializer if model.initializer is not None else default_initializer(model)
    return _stack(init(params, t0, rng, n), model.state_names, n, "initializer", "initialize")


def _as_state_dict(model: ModelSpec, mat: np.ndarray) -> dict:
    return {s: mat[:, i] for i, s in enumerate(model.state_names)}


def _rprocess(model: ModelSpec, x: dict, params: dict, t0, t1, rng) -> dict:
    """``model.rprocess`` over [t0, t1].

    A ``ValueError`` from the simulator itself (say, numpy refusing a negative
    scale because a parameter left its domain) is re-raised as
    :class:`DomainError` naming the interval.
    """
    try:
        return model.rprocess(x, params, t0, t1, rng, model.covariates)
    except PompKitError:
        raise
    except ValueError as err:
        raise DomainError(f"process simulation over [{t0:g}, {t1:g}] failed: {err}") from err


def advance(model: ModelSpec, state_mat: np.ndarray, params: dict, t0, t1, rng) -> np.ndarray:
    """Propagate a (n, q) state matrix from t0 to t1 through rprocess.

    A ``ValueError`` from the simulator becomes :class:`DomainError` (see
    :func:`_rprocess`).
    """
    x = _rprocess(model, _as_state_dict(model, state_mat), params, t0, t1, rng)
    return _stack(x, model.state_names, state_mat.shape[0], "rprocess", "advance")


def measurement_logdensity(model: ModelSpec, y: dict, state_mat: np.ndarray, params: dict, t):
    """Log measurement density of record ``y`` under each row of the state matrix.

    ``y`` has at least one observed component: a record whose components are
    all missing contributes log-density zero (the conditioning convention), so
    the filter does not evaluate it.  Models receive NaN for partially missing
    components and apply the same convention per component.

    Its shape goes through :func:`_column`; its values are returned unchecked.
    The filter kernel (:func:`pompkit.smc._filter_pass`) enforces the never-NaN
    contract through the maximum log weight it already takes, which is NaN
    whenever any entry is, and raises :class:`DomainError` naming ``t``.
    """
    cv = model.covariates.lookup(t) if model.covariates is not None else None
    logw = model.dmeasure(y, _as_state_dict(model, state_mat), params, t, True, cv)
    return _column({"log density": logw}, "log density", state_mat.shape[0], "dmeasure",
                   "weighting")


def _reset_accumulators(model: ModelSpec, state_mat: np.ndarray):
    for s in model.accumulators:
        state_mat[:, model.state_names.index(s)] = 0.0


# ---------------------------------------------------------------------------
# Simulation


@one_run
def simulate_paths(model: ModelSpec, params, seed, nsim, times=None, t0=None,
                   with_obs=True):
    """Simulate ``nsim`` realizations, vectorized over the batch axis.

    Returns ``(states, observations)`` with shapes (nsim, N+1, q) and
    (nsim, N, r); ``observations`` is None when ``with_obs`` is false.
    Accumulator columns in ``states`` report pre-reset values.  Given
    ``times`` or ``t0`` must satisfy t0 <= t1 < ... < tN (else :class:`DomainError`).

    The latent process and the measurements draw from separate child streams,
    so the state paths for a given seed do not depend on whether (or what)
    measurements are drawn.  Each step's outputs are written straight into the
    returned arrays, and the arrays ``rprocess`` returned pass on unchanged as
    the batch state of the next step and of ``rmeasure`` (see the module
    docstring).
    """
    nsim = require_integer("nsim", nsim, 1)
    model.require("simulate", "rprocess")
    if with_obs:
        model.require("simulate", "rmeasure")
    p = params_to_dict(model.default_params(params))
    t0 = model.data.t0 if t0 is None else float(t0)
    times = model.data.times if times is None else times
    if times is not model.data.times or t0 != model.data.t0:  # else checked at construction
        times = _checked_times(t0, times)
    n_steps = times.size
    _require_datasets(model, nsim, n_steps)
    rng_proc = stream(seed, "simulate-process")
    rng_meas = stream(seed, "simulate-measure") if with_obs else None
    state_names, obs_names, covars = model.state_names, model.obs_names, model.covariates

    x0 = _init_states(model, p, t0, rng_proc, nsim)
    states = np.empty((nsim, n_steps + 1, model.n_states))
    states[:, 0, :] = x0
    x = _as_state_dict(model, x0)
    obs = np.empty((nsim, n_steps, len(obs_names))) if with_obs else None

    def diverged(step_index):
        bad = ~np.isfinite(states[:, : step_index + 2, :]).all(axis=0)
        steps, cols = np.where(bad)
        first = steps.min()
        names = sorted({model.state_names[i]
                        for s, i in zip(steps, cols) if s == first})
        return SimulationDivergedError(times[first - 1] if first > 0 else t0, names)

    state_cols, obs_cols = list(enumerate(state_names)), list(enumerate(obs_names))
    t_prev = t0
    for n, t in enumerate(times.tolist()):
        out = _rprocess(model, x, p, t_prev, t, rng_proc)
        x = {}
        for i, name in state_cols:
            x[name] = states[:, n + 1, i] = _column(out, name, nsim, "rprocess", "advance")
        if with_obs:
            cv = covars.lookup(t) if covars is not None else None
            try:
                y = model.rmeasure(x, p, t, rng_meas, cv)
            except (ValueError, FloatingPointError):
                # a non-finite state often crashes the measurement sampler;
                # report the divergence rather than the downstream symptom
                if not np.isfinite(states[:, n + 1, :]).all():
                    raise diverged(n) from None
                raise
            for j, name in obs_cols:
                obs[:, n, j] = _column(y, name, nsim, "rmeasure", "measure")
        for s in model.accumulators:
            x[s] = np.zeros(nsim)  # zeroing in place would write into a callback's output
        t_prev = t
    # one vectorized divergence scan instead of a per-step check
    if not np.all(np.isfinite(states)):
        raise diverged(n_steps - 1)
    return states, obs


def _require_datasets(model: ModelSpec, nsim, n_times) -> None:
    """Refuse ``nsim`` simulated datasets of ``n_times`` time points that no array
    can hold: their (nsim, n_times+1, q) states and (nsim, n_times, r)
    observations, the largest arrays :func:`simulate_paths` builds."""
    require_batch(nsim * (n_times + 1) * max(model.n_states, len(model.obs_names)),
                  f"{nsim} dataset(s) of {n_times} time(s)")


def simulate(model: ModelSpec, params=None, seed=0, nsim=1):
    """Simulate the full model; returns a list of :class:`SimulationRecord`.

    Deterministic given ``(seed, nsim)``.
    """
    pv = model.default_params(params)
    return _records(model, pv, *simulate_paths(model, pv, seed, nsim), model.state_names)


def _records(model: ModelSpec, params, states, obs, state_names) -> list:
    """One :class:`SimulationRecord` per realization of (nsim, N+1, q) ``states``
    and (nsim, N, r) ``obs`` on the model's time grid, all sharing one times array."""
    times = np.concatenate(([model.data.t0], model.data.times))
    return [SimulationRecord(times=times, states=path, observations=path_obs,
                             state_names=state_names, obs_names=model.obs_names,
                             params=params)
            for path, path_obs in zip(states, obs)]


def attach_data(model: ModelSpec, record: SimulationRecord) -> ModelSpec:
    """Return the model with its dataset replaced by a simulated realization."""
    return model.with_data(record.as_dataset(model.data.t0)).with_params(record.params)
