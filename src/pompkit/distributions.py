"""Random deviates and densities for the built-in models.

The Euler-multinomial family describes the exits from a compartment of size
``size`` over a time step ``dt`` when ``k`` competing exponential exit routes
run at constant rates.  Route ``j`` receives probability

    p_j = (rate_j / sum(rates)) * (1 - exp(-sum(rates) * dt)),

and the vector of exit counts is multinomial with the remaining mass staying
put.  A zero total rate is the analytic limit p_j = 0 (all counts zero), not a
0/0 error, so edge states such as an empty infected compartment work.

Everything here is a pure function taking an explicit generator, safe for
concurrent use with distinct streams.

Validation contract: each primitive checks its inputs once per call, with one
``min``/``max`` reduction per argument, and raises :class:`DomainError` on a
violation.  NaN fails every ordered comparison, so those reductions reject
NaN too; an integer-dtype size needs no whole-number test.  The one
exception is the scale of :func:`dlnorm`: a positive float (a Python float
or ``np.float64``, such as the Gompertz filter's constant ``tau``) is checked
by one comparison, and any other value takes the reduction.  The samplers run
once per particle step, so nothing else is re-checked per call, and the
particle filter's kernel does not re-check the weights it has made itself
(:func:`pompkit.smc.systematic_resample` checks weights handed in from
outside).  A tau-leap sub-step that draws several compartments' exits
(:func:`pompkit.models.sir_step_flows`) validates once: all its rates, all its
compartment sizes and its ``dt``, one reduction each, with the messages of
:func:`reulermultinom`.

scipy is imported inside the densities that use it, which keeps it out of
``import pompkit``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DomainError

__all__ = [
    "euler_multinomial_probs",
    "reulermultinom",
    "deulermultinom",
    "dnbinom_mu",
    "rnbinom_mu",
    "dpois",
    "dlnorm",
]


_HALF_LOG_2PI = 0.5 * np.log(2 * np.pi)


def _check_step(sizes, rates, dt):
    """Raise :class:`DomainError` unless ``rates`` are finite and non-negative,
    ``sizes`` are non-negative integers and ``dt`` is a positive scalar."""
    if not (rates.min(initial=0.0) >= 0 and rates.max(initial=0.0) < np.inf):
        raise DomainError("rates must be finite and non-negative")
    if sizes.dtype.kind in "iu":
        whole = sizes.min(initial=0) >= 0
    else:
        whole = (sizes.min(initial=0.0) >= 0 and sizes.max(initial=0.0) < np.inf
                 and (sizes == np.floor(sizes)).all())
    if not whole:
        raise DomainError("size must be a non-negative integer")
    if not (isinstance(dt, float) or np.ndim(dt) == 0) or not dt > 0:
        raise DomainError("dt must be a positive scalar")


def _validate_spec(size, rates, dt):
    """Checked (size, rates) as arrays, rates 2-D; see the module docstring."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim == 1:
        rates = rates[None, :]
    size_arr = np.asarray(size)
    if size_arr.dtype.kind not in "iu":
        size_arr = size_arr.astype(float, copy=False)
    _check_step(size_arr, rates, dt)
    return size_arr, rates


def _exit_probs(rates, dt):
    """:func:`euler_multinomial_probs` of ``rates`` holding the k routes on
    axis 0: (k, ...) rates give (k, ...) probabilities."""
    # for two routes one addition equals the row reduction bit for bit, and is
    # several times cheaper
    total = rates[0] + rates[1] if rates.shape[0] == 2 else rates.sum(axis=0)
    p = np.divide(rates, total, out=np.zeros(rates.shape), where=total > 0)
    p *= -np.expm1(-total * float(dt))
    return p


def _binomial_probs(rates, dt):
    """Stick-breaking probabilities of the Euler-multinomial exits at (k, ...) rates.

    Route ``j`` takes Binomial(left, q[j]) of the ``left`` members that routes
    ``0..j-1`` did not take, so the k draws are Euler-multinomial.  The axes
    after the first (compartments, particles) are elementwise.
    """
    q = _exit_probs(rates, dt)
    mass_left = 1.0 - q[0]
    np.minimum(q[0], 1.0, out=q[0])
    for j in range(1, q.shape[0]):
        qj = np.divide(q[j], mass_left, out=np.zeros(mass_left.shape), where=mass_left > 0)
        mass_left -= q[j]
        np.minimum(qj, 1.0, out=q[j])
    return q


def euler_multinomial_probs(rates, dt) -> np.ndarray:
    """Per-route exit probabilities over a step of length ``dt``.

    ``rates`` may be (k,) or (n, k); the result has the same shape.  Rows with
    zero total rate get all-zero probabilities.
    """
    rates = np.asarray(rates, dtype=float)
    return _exit_probs(rates.T, dt).T


def reulermultinom(size, rates, dt, rng) -> np.ndarray:
    """Draw Euler-multinomial exit counts.

    ``size`` scalar or (n,), ``rates`` (k,) or (n, k).  Returns integer counts
    with the same leading shape as the broadcast of the two; the counts never
    exceed ``size`` row-wise.
    """
    rates = np.asarray(rates, dtype=float)
    size_arr, rates2 = _validate_spec(size, rates, dt)
    scalar = size_arr.ndim == 0 and rates.ndim == 1
    n = max(rates2.shape[0], size_arr.size if size_arr.ndim else 1)
    q = _binomial_probs(rates2.T, dt)
    remaining = size_arr.astype(np.int64, copy=False)
    if remaining.shape != (n,):
        remaining = np.broadcast_to(remaining, (n,))
    counts = np.empty((n, len(q)), dtype=np.int64)
    for j in range(len(q)):
        counts[:, j] = draw = rng.binomial(remaining, q[j])
        remaining = remaining - draw
    return counts[0] if scalar else counts


def deulermultinom(counts, size, rates, dt, log=False):
    """Probability mass of Euler-multinomial exit counts.

    Counts exceeding ``size`` (or negative) have density 0 (log: -inf) rather
    than raising, so density-evaluation loops never abort on impossible
    proposals.
    """
    from scipy.special import gammaln, xlogy

    size_arr, rates2 = _validate_spec(size, rates, dt)
    counts = np.asarray(counts, dtype=float)
    scalar = counts.ndim == 1
    c = counts[None, :] if scalar else counts
    if c.shape[1] != rates2.shape[1]:
        raise DomainError(
            f"counts have {c.shape[1]} routes but rates have {rates2.shape[1]}"
        )
    n = max(c.shape[0], rates2.shape[0], size_arr.size if size_arr.ndim else 1)
    c = np.broadcast_to(c, (n, c.shape[1]))
    sz = np.broadcast_to(np.asarray(size_arr, dtype=float), (n,))
    p = euler_multinomial_probs(np.broadcast_to(rates2, (n, rates2.shape[1])), dt)

    stay = sz - c.sum(axis=1)
    valid = (stay >= 0) & np.all(c >= 0, axis=1) & np.all(c == np.floor(c), axis=1)
    p_stay = np.clip(1.0 - p.sum(axis=1), 0.0, 1.0)
    logpmf = (
        gammaln(sz + 1)
        - gammaln(np.where(valid, stay, 0.0) + 1)
        - gammaln(c + 1).sum(axis=1)
        + xlogy(c, p).sum(axis=1)
        + xlogy(np.where(valid, stay, 0.0), p_stay)
    )
    logpmf = np.where(valid, logpmf, -np.inf)
    out = logpmf if log else np.exp(logpmf)
    return float(out[0]) if scalar else out


def dnbinom_mu(y, size, mu, log=False):
    """Negative binomial pmf parameterized by mean ``mu`` and dispersion ``size``.

    Mean mu, variance mu + mu**2/size.  ``mu = 0`` is the point mass at zero.
    """
    from scipy.special import gammaln, xlogy

    size = np.asarray(size, dtype=float)
    mu = np.asarray(mu, dtype=float)
    y = np.asarray(y, dtype=float)
    if not size.min(initial=np.inf) > 0:
        raise DomainError("dispersion (size) must be positive")
    if not mu.min(initial=0.0) >= 0:
        raise DomainError("mu must be non-negative")
    valid = (y >= 0) & (y == np.floor(y))
    yv = np.where(valid, y, 0.0)
    logpmf = (
        gammaln(yv + size)
        - gammaln(size)
        - gammaln(yv + 1)
        + size * (np.log(size) - np.log(size + mu))
        + xlogy(yv, mu)
        - yv * np.log(size + mu)
    )
    logpmf = np.where(valid, logpmf, -np.inf)
    out = logpmf if log else np.exp(logpmf)
    return float(out) if np.ndim(out) == 0 else out


def rnbinom_mu(size, mu, rng, n=None):
    """Draw negative binomial deviates with mean ``mu`` and dispersion ``size``.

    Uses the gamma-Poisson mixture, which accepts real dispersion and mu = 0.
    """
    size = np.asarray(size, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if not size.min(initial=np.inf) > 0:
        raise DomainError("dispersion (size) must be positive")
    if not mu.min(initial=0.0) >= 0:
        raise DomainError("mu must be non-negative")
    shape = (n,) if n is not None else np.broadcast_shapes(size.shape, mu.shape)
    lam = rng.gamma(np.broadcast_to(size, shape), np.broadcast_to(mu / size, shape))
    return rng.poisson(lam)


def dpois(y, lam, log=False):
    """Poisson pmf; lam = 0 is the point mass at zero."""
    from scipy.special import gammaln, xlogy

    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not lam.min(initial=0.0) >= 0:
        raise DomainError("Poisson rate must be non-negative")
    valid = (y >= 0) & (y == np.floor(y))
    yv = np.where(valid, y, 0.0)
    logpmf = np.where(valid, xlogy(yv, lam) - lam - gammaln(yv + 1), -np.inf)
    out = logpmf if log else np.exp(logpmf)
    return float(out) if np.ndim(out) == 0 else out


def dlnorm(y, meanlog, sdlog, log=False):
    """Lognormal density; zero (log: -inf) for y <= 0 and for NaN y."""
    meanlog = np.asarray(meanlog, dtype=float)
    if not (isinstance(sdlog, float) and sdlog > 0):  # a positive float needs no reduction
        sdlog = np.asarray(sdlog, dtype=float)
        if not sdlog.min(initial=np.inf) > 0:
            raise DomainError("sdlog must be positive")
    if isinstance(y, float) and y > 0:
        # one positive observation, the filter's case: nothing to mask
        ly, positive = np.log(y), None
    else:
        y = np.asarray(y, dtype=float)
        positive = y > 0
        ly = np.log(y, out=np.zeros(y.shape), where=positive)
    z = (ly - meanlog) / sdlog
    logpdf = -0.5 * z**2 - np.log(sdlog) - _HALF_LOG_2PI - ly
    if positive is not None:
        logpdf = np.where(positive, logpdf, -np.inf)
    out = logpdf if log else np.exp(logpdf)
    return float(out) if np.ndim(out) == 0 else out
