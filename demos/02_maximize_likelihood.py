"""Maximum likelihood by iterated filtering, checked against the exact answer.

Iterated filtering (IF2) gives every particle its own parameter vector and
runs the particle filter over and over while those parameters take a
shrinking random walk.  Resampling favours the parameters that explain the
data, so the swarm climbs the likelihood surface, and its mean after the last
pass is the estimate.  On the Gompertz model the exact maximum is available
from the Kalman filter, so the gap is measurable.
"""

import numpy as np

import pompkit as pk

model = pk.gompertz_model()
model = pk.attach_data(model, pk.simulate(model, seed=42)[0])
truth = model.params

theta_star, loglik_star, _ = pk.kalman_exact_mle(model.data, truth)
print(f"exact MLE: {theta_star}  (log likelihood {loglik_star:.3f})")

# Five searches from starting points dispersed around the truth (lognormal
# jitter, one log unit of spread), each estimating r, sigma, tau.
rng = np.random.default_rng(99)
best = None
for i, seed in enumerate(pk.child_seeds(99, "searches", 5)):
    start = truth.as_dict()
    for name in ("r", "sigma", "tau"):
        start[name] = float(np.exp(np.log(start[name]) + rng.standard_normal()))
    settings = pk.MifSettings(
        start=pk.ParamVector(start),
        n_iterations=60,
        num_particles=1000,
        rw_sd={"r": 0.02, "sigma": 0.02, "tau": 0.02},
        cooling_fraction=0.7,
        var_factor=2.0,
    )
    result = pk.mif(model, settings, seed=seed)
    evals = np.array([
        pk.pfilter(model, result.theta_hat, num_particles=1000, seed=s).loglik
        for s in pk.child_seeds(seed, "eval", 5)
    ])
    loglik, se = pk.logmeanexp(evals, with_se=True)
    print(f"search {i}: {result.theta_hat}  loglik {loglik:.3f} +- {se:.3f}")
    if best is None or loglik > best[1]:
        best = (result.theta_hat, loglik)

print(f"\nbest search ends {loglik_star - best[1]:.3f} log units below the exact maximum")
print(f"best estimate: {best[0]}")
