"""Exception hierarchy for pomp-kit.

Every error raised deliberately by the library derives from :class:`PompKitError`,
so callers can catch the whole family with one clause.  Errors that are really
argument-domain violations also derive from ``ValueError``.  The module also
holds :func:`require_integer`, the shared boundary check for counts and seeds.
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


def require_integer(name, value, minimum) -> int:
    """``value`` as an ``int``; :class:`DomainError` unless it is a whole number
    of at least ``minimum``.

    The boundary check for counts and seeds: an entry point calls it once on
    its arguments, so a fractional particle count fails instead of being
    truncated, and no step loop repeats it.
    """
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a whole number, got {value!r}") from None
    if whole != value or whole < minimum:
        raise DomainError(f"{name} must be a whole number of at least {minimum}, "
                          f"got {value!r}")
    return whole
