"""Exception hierarchy for pomp-kit.

Every error raised deliberately by the library derives from :class:`PompKitError`,
so callers can catch the whole family with one clause.  Errors that are really
argument-domain violations also derive from ``ValueError``.  The module also
holds the boundary checks: :func:`require_integer`, the one check for counts
and seeds, which refuses a ``bool``, and :func:`require_names`, the one check
that a set of names (random-walk scales, estimated parameters, accumulators,
observables, column lookups) draws only on the names an operation knows.
"""


class PompKitError(Exception):
    """Base class for all pomp-kit errors."""


class ModelComponentError(PompKitError):
    """A model component (rprocess, dmeasure, ...) needed by an operation is missing."""

    def __init__(self, component, operation):
        self.component = component
        self.operation = operation
        super().__init__(
            f"{operation} requires the model component '{component}', which is not defined"
        )


class SimulationDivergedError(PompKitError):
    """The process simulator produced a non-finite state value."""

    def __init__(self, time, state_names):
        self.time = time
        self.state_names = tuple(state_names)
        names = ", ".join(self.state_names)
        super().__init__(f"simulation diverged at t={time}: non-finite state ({names})")


class TransformDomainError(PompKitError, ValueError):
    """A parameter transform produced a non-finite value."""

    def __init__(self, param_names, direction):
        self.param_names = tuple(param_names)
        self.direction = direction
        names = ", ".join(self.param_names)
        super().__init__(f"{direction} transform produced non-finite values for: {names}")


class FilteringFailureError(PompKitError):
    """All particle weights vanished at an observation (particle depletion)."""

    def __init__(self, step, time=None):
        self.step = step
        self.time = time
        at = f" (t={time})" if time is not None else ""
        super().__init__(f"filtering failure: all particle weights zero at step {step}{at}")


class DomainError(PompKitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularCovarianceError(PompKitError):
    """The sample covariance of simulated probes is singular."""

    def __init__(self, probe_names, detail=""):
        self.probe_names = tuple(probe_names)
        names = ", ".join(self.probe_names) or "<unknown>"
        msg = f"singular probe covariance; collinear or degenerate probes: {names}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ConfigError(PompKitError, ValueError):
    """A run configuration failed validation."""


def require_integer(name, value, minimum=None) -> int:
    """``value`` as an ``int``; :class:`DomainError` naming ``name`` unless it is
    a whole number of at least ``minimum`` (of any sign when ``minimum`` is None).

    The one boundary check for counts and seeds: an entry point calls it once
    on its arguments, so a fractional particle count fails instead of being
    truncated, and no step loop repeats it.  A whole float such as ``20.0``
    is taken as ``20``; a ``bool`` is refused, although Python counts it as
    an integer.
    """
    bound = "" if minimum is None else f" of at least {minimum}"
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if (whole is None or whole != value or isinstance(value, bool)
            or (minimum is not None and whole < minimum)):
        raise DomainError(f"{name} must be a whole number{bound}, got {value!r}")
    return whole


def require_names(what, names, known) -> tuple:
    """``names`` (a mapping gives its keys) as a tuple; :class:`DomainError` naming
    ``what``, the unknown names (sorted) and the known ones unless all are known."""
    names = tuple(names)
    unknown = set(names).difference(known)
    if unknown:
        raise DomainError(f"unknown {what} {sorted(unknown, key=str)}; known: {list(known)}")
    return names
