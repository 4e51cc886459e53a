"""Span tracing for the traced benchmark run, installed from outside the library.

The tracer replaces the public functions of each pompkit module, and the
``ModelSpec`` callbacks of the models the benchmark runs, with wrappers that
record one span per call: name, start, end, parent span and a few counts.
Names that one module imports from another (``reulermultinom`` in ``models``,
``stream`` in every module, ``apply_probes`` in ``abc``, ``pfilter`` in
``pmcmc``) are replaced where they are looked up, so every call is seen.
Spans stay in memory; :meth:`Tracer.dump` writes them out once the run ends.

A span's self time is its duration minus the union of its children's
intervals; a span also records the CPU time of its thread.  Calls made in
worker threads take as parent the innermost span open on the main thread,
which is the CLI run that started the pool.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import itertools
import json
import math
import os
import threading
import time

import numpy as np

_mod = importlib.import_module  # pompkit re-exports functions over some module names


def _rows(result, *args, **kwargs):
    return {"rows": result.shape[0] if np.ndim(result) == 2 else 1}


def _sim_rows(result, *args, **kwargs):
    states = result[0]
    return {"rows": states.shape[0] * (states.shape[1] - 1), "nsim": states.shape[0]}


def _filter_counts(result, *args, **kwargs):
    J = result.num_particles
    return {"particle_steps": J * result.cond_logliks.size,
            "ess_fraction": float(np.mean(result.ess)) / J,
            "failures": result.n_failures}


def _mif_counts(result, *args, **kwargs):
    return {"iterations": result.trace.shape[0]}


def _chain_counts(result, *args, **kwargs):
    return {"steps": result.n_steps, "accepted": int(np.sum(result.accepted))}


def _written_bytes(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _cli_counts(result, argv=None, *args, **kwargs):
    argv = list(argv or [])
    counts = {"command": argv[0] if argv else ""}
    for flag in ("--threads", "--nsim"):
        if flag in argv:
            counts[flag[2:]] = int(argv[argv.index(flag) + 1])
    return counts


def _rprocess_counts(result, x, params, t0, t1, *args, delta_t=1.0, **kwargs):
    rows = len(np.atleast_1d(next(iter(x.values()))))
    span = t1 - t0
    substeps = max(1, math.ceil(span / delta_t - 1e-9)) if span > 0 else 0
    return {"particle_steps": rows * substeps}


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans = []          # [id, name, parent id, start, end, counts, thread cpu s]
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1][0]
            else:
                parent = None
            span = [next(tracer._ids), name, parent, time.perf_counter(), None, None,
                    time.thread_time()]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                span[6] = time.thread_time() - span[6]
                stack.pop()
            if count is not None:
                span[5] = count(result, *args, **kwargs)
            return result

        return traced

    def _patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def instrument_model(self, model):
        """The model with its rprocess, rmeasure and dmeasure callbacks traced."""
        rprocess = model.rprocess
        count = functools.partial(_rprocess_counts,
                                  delta_t=getattr(rprocess, "delta_t", 1.0))
        return dataclasses.replace(
            model,
            rprocess=self.wrap("models.rprocess", rprocess, count),
            rmeasure=self.wrap("models.rmeasure", model.rmeasure),
            dmeasure=self.wrap("models.dmeasure", model.dmeasure),
        )

    def install(self):
        """Replace the traced functions in every pompkit module that uses them."""
        core, dist = _mod("pompkit.core"), _mod("pompkit.distributions")
        models = _mod("pompkit.models")
        smc, mif, pmcmc = _mod("pompkit.smc"), _mod("pompkit.mif"), _mod("pompkit.pmcmc")
        abc, probes, nlf = _mod("pompkit.abc"), _mod("pompkit.probes"), _mod("pompkit.nlf")
        rng, dataio, cli = _mod("pompkit.rng"), _mod("pompkit.dataio"), _mod("pompkit.cli")

        for owner in (dist, models):
            self._patch(owner, "reulermultinom", "distributions.reulermultinom", _rows)
            for density in ("dlnorm", "dpois", "dnbinom_mu"):
                self._patch(owner, density, "distributions.density")
        self._patch(core, "advance", "core.advance")
        self._patch(core, "measurement_logdensity", "core.measurement_logdensity")
        self._patch(core.CovariateTable, "lookup", "core.covariate_lookup")
        self._patch(core, "simulate_paths", "core.simulate_paths", _sim_rows)
        self._patch(core, "transform_params", "core.transform_params")
        for owner in (rng, core, smc, mif, pmcmc, abc, probes, nlf, cli):
            self._patch(owner, "stream", "rng.stream")
        for owner in (smc, pmcmc):
            self._patch(owner, "pfilter", "smc.pfilter", _filter_counts)
        self._patch(smc, "systematic_resample", "smc.systematic_resample")
        self._patch(mif, "mif", "mif", _mif_counts)
        self._patch(cli, "run_mif", "mif", _mif_counts)
        self._patch(pmcmc, "pmcmc", "pmcmc", _chain_counts)
        self._patch(cli, "run_pmcmc", "pmcmc", _chain_counts)
        self._patch(abc, "abc", "abc", _chain_counts)
        self._patch(cli, "run_abc", "abc", _chain_counts)
        self._patch(probes, "probe", "probes.probe")
        for owner in (probes, abc):
            self._patch(owner, "apply_probes", "probes.apply")
        self._patch(probes, "synth_loglik", "probes.synth_loglik")
        self._patch(nlf, "nlf_quasi_loglik", "nlf.quasi_loglik")
        for writer in ("write_simulations_csv", "write_trace_csv", "write_chain_csv",
                       "write_probes_csv"):
            self._patch(dataio, writer, "dataio.write", _written_bytes)
        for reader in ("load_time_series", "load_covariates"):
            self._patch(dataio, reader, "dataio.read")
        self._patch(cli, "main", "cli", _cli_counts)
        build_model = models.build_model
        self._undo.append((models, "build_model", build_model))
        models.build_model = lambda *a, **kw: self.instrument_model(build_model(*a, **kw))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write every span as [id, name, parent, start, end, counts, cpu], gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end", "counts", "cpu"],
                       "spans": self.spans}, fh, separators=(",", ":"))

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        children = {}
        for span in self.spans:
            children.setdefault(span[2], []).append((span[3], span[4]))
        out = {}
        for sid, _, _, start, end, _, _ in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (end - start) - covered
        return out


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics, each a per-round mean over ``rounds`` traced rounds."""
    spans = tracer.spans
    self_s = tracer.self_times()
    by_id = {s[0]: s for s in spans}
    calls, self_total, counts = {}, {}, {}
    for sid, name, _, _, _, c, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + self_s[sid]
        for key, value in (c or {}).items():
            if isinstance(value, (int, float)):
                counts[(name, key)] = counts.get((name, key), 0) + value

    def ancestor(span, name):
        while span[2] is not None:
            span = by_id[span[2]]
            if span[1] == name:
                return span
        return None

    def ratio(num, den):
        return num / den if den else 0.0

    filters = [s for s in spans if s[1] == "smc.pfilter"]
    pmcmc_filters = sum(1 for s in filters if ancestor(s, "pmcmc") is not None)
    abc_sims = sum(1 for s in spans
                   if s[1] == "core.simulate_paths" and ancestor(s, "abc") is not None)

    def cli_runs(command):
        return [s for s in spans if s[1] == "cli" and s[5] and s[5]["command"] == command]

    def parallel_efficiency(command, tasks):
        # a task is busy while its thread runs, not while it waits for the GIL
        busy = wall = 0.0
        for run in cli_runs(command):
            threads = run[5].get("threads", 1)
            wall += (run[4] - run[3]) * threads
            busy += sum(s[6] for s in spans if s[2] == run[0] and s[1] in tasks)
        return ratio(busy, wall)

    probe_sims = probe_nsim = 0
    for run in cli_runs("probe"):
        probe_nsim += run[5].get("nsim", 0)
        probe_sims += sum(s[5]["nsim"] for s in spans
                          if s[1] == "core.simulate_paths" and ancestor(s, "cli") is run)

    totals = {
        "distributions.reulermultinom.calls": calls.get("distributions.reulermultinom", 0),
        "distributions.reulermultinom.rows": counts.get(("distributions.reulermultinom", "rows"), 0),
        "distributions.reulermultinom.self_s": self_total.get("distributions.reulermultinom", 0.0),
        "distributions.density.calls": calls.get("distributions.density", 0),
        "distributions.density.self_s": self_total.get("distributions.density", 0.0),
        "models.rprocess.calls": calls.get("models.rprocess", 0),
        "models.rprocess.particle_steps": counts.get(("models.rprocess", "particle_steps"), 0),
        "models.rprocess.self_s": self_total.get("models.rprocess", 0.0),
        "models.dmeasure.self_s": self_total.get("models.dmeasure", 0.0),
        "models.rmeasure.self_s": self_total.get("models.rmeasure", 0.0),
        "core.advance.self_s": self_total.get("core.advance", 0.0),
        "core.measurement_logdensity.self_s": self_total.get("core.measurement_logdensity", 0.0),
        "core.covariate_lookup.calls": calls.get("core.covariate_lookup", 0),
        "core.covariate_lookup.self_s": self_total.get("core.covariate_lookup", 0.0),
        "core.simulate_paths.calls": calls.get("core.simulate_paths", 0),
        "core.simulate_paths.rows": counts.get(("core.simulate_paths", "rows"), 0),
        "core.simulate_paths.self_s": self_total.get("core.simulate_paths", 0.0),
        "core.transform_params.calls": calls.get("core.transform_params", 0),
        "core.transform_params.self_s": self_total.get("core.transform_params", 0.0),
        "rng.stream.calls": calls.get("rng.stream", 0),
        "rng.stream.self_s": self_total.get("rng.stream", 0.0),
        "smc.pfilter.calls": calls.get("smc.pfilter", 0),
        "smc.pfilter.self_s": self_total.get("smc.pfilter", 0.0),
        "smc.particle_steps": counts.get(("smc.pfilter", "particle_steps"), 0),
        "smc.systematic_resample.calls": calls.get("smc.systematic_resample", 0),
        "smc.systematic_resample.self_s": self_total.get("smc.systematic_resample", 0.0),
        "smc.filter_failures": counts.get(("smc.pfilter", "failures"), 0),
        "mif.iterations": counts.get(("mif", "iterations"), 0),
        "mif.self_s": self_total.get("mif", 0.0),
        "pmcmc.steps": counts.get(("pmcmc", "steps"), 0),
        "pmcmc.filter_passes": pmcmc_filters,
        "pmcmc.self_s": self_total.get("pmcmc", 0.0),
        "abc.steps": counts.get(("abc", "steps"), 0),
        "abc.simulations": abc_sims,
        "abc.self_s": self_total.get("abc", 0.0),
        "probes.probe.calls": calls.get("probes.probe", 0),
        "probes.apply.self_s": self_total.get("probes.apply", 0.0),
        "probes.synth_loglik.self_s": self_total.get("probes.synth_loglik", 0.0),
        "nlf.quasi_loglik.calls": calls.get("nlf.quasi_loglik", 0),
        "nlf.quasi_loglik.self_s": self_total.get("nlf.quasi_loglik", 0.0),
        "dataio.write.calls": calls.get("dataio.write", 0),
        "dataio.write.bytes": counts.get(("dataio.write", "bytes"), 0),
        "dataio.write.self_s": self_total.get("dataio.write", 0.0),
        "dataio.read.self_s": self_total.get("dataio.read", 0.0),
        "cli.self_s": self_total.get("cli", 0.0),
        "trace.spans": len(spans),
    }
    metrics = {name: value / rounds for name, value in totals.items()}
    # ratios are per span, not per round
    metrics["smc.ess_fraction_mean"] = ratio(
        counts.get(("smc.pfilter", "ess_fraction"), 0.0), calls.get("smc.pfilter", 0))
    metrics["pmcmc.acceptance"] = ratio(counts.get(("pmcmc", "accepted"), 0),
                                        counts.get(("pmcmc", "steps"), 0))
    metrics["abc.acceptance"] = ratio(counts.get(("abc", "accepted"), 0),
                                      counts.get(("abc", "steps"), 0))
    metrics["cli.probe.simulations_per_nsim"] = ratio(probe_sims, probe_nsim)
    metrics["cli.mif.parallel_efficiency"] = parallel_efficiency("mif", ("mif", "smc.pfilter"))
    metrics["cli.pfilter.parallel_efficiency"] = parallel_efficiency("pfilter", ("smc.pfilter",))
    return metrics
