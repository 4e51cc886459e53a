"""pomp-kit benchmark: one workload, timed with tracing off, or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload gompertz-filter --seed 1 --seconds 20 --trace 0

The run builds its inputs from ``--seed``, starts whole rounds of operations
while less than ``--seconds`` seconds have passed, checks every output, and
prints each metric by name and unit.  Its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  See perfbench/README.md.
"""

import time

_START = time.perf_counter()    # set-up time counts every import below

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 2               # set-ups in fresh processes, besides this one's
# Times are reported at a fixed machine speed: each is scaled by
# CALIBRATION_REF_S / (median calibration pass of the run).  The calibration
# pass takes about this long on the 2-core machine of README.md.
CALIBRATION_REF_S = 0.004

E2E_SAMPLES = ("pfilter_pass_ms", "replicate_loglik_s", "mif_iteration_ms", "pmcmc_step_ms",
               "simulate_s", "probe_eval_ms", "abc_step_ms", "nlf_eval_ms",
               "cli_pfilter_s", "cli_mif_s", "cli_probe_s")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def setup_in_fresh_process(args):
    """Set-up time of one fresh interpreter building this workload's inputs."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def measure(args, workloads, sizes, inp):
    """Whole untraced rounds, started while less than ``args.seconds`` have passed."""
    rec = workloads.Recorder(lambda: workloads.calibration_pass(inp))
    start, index = time.perf_counter(), 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        workloads.run_round(rec, inp, sizes, args.seed, index)
        index += 1
    return rec, index


def trace(args, workloads, sizes, inp):
    """Pairs of rounds on the same seeds, untraced then traced; per-layer metrics.

    A first untraced round takes the one-time costs (lazy imports, first
    allocations) so that the pairs compare like with like.
    """
    from tracing import Tracer, layer_metrics

    rec = workloads.Recorder(lambda: workloads.calibration_pass(inp))
    tracer = Tracer()
    traced_inp = inp.instrumented(tracer)
    start = time.perf_counter()
    workloads.run_round(rec, inp, sizes, args.seed, 0)
    index, pairs, untraced_s, traced_s = 1, 0, 0.0, 0.0
    while pairs == 0 or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        workloads.run_round(rec, inp, sizes, args.seed, index)
        t1 = time.perf_counter()
        tracer.install()
        try:
            workloads.run_round(rec, traced_inp, sizes, args.seed, index)
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
        index += 1
        pairs += 1
    metrics = layer_metrics(tracer, pairs)
    metrics["trace.overhead_s"] = (traced_s - untraced_s) / pairs
    os.makedirs(workloads.RUNS_DIR, exist_ok=True)
    tracer.dump(os.path.join(workloads.RUNS_DIR,
                             f"trace-{args.workload}-seed{args.seed}.json.gz"))
    return rec, pairs, metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "pompkit")):
        print(f"error: no pompkit sources under {SRC}; run from a pomp-kit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = workloads.WORKLOADS[args.workload]
    inp = workloads.build_inputs(sizes, args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    end_to_end_units, per_layer_units = declared_metrics()
    if args.trace:
        rec, rounds, values = trace(args, workloads, sizes, inp)
        units = per_layer_units
    else:
        rec, rounds = measure(args, workloads, sizes, inp)
        setups = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS)]
        raw = {name: statistics.median(rec.samples[name])
               for name in E2E_SAMPLES if name in rec.samples}
        raw["setup_s"] = statistics.median(setups)
        calibration_s = statistics.median(rec.calibration_s)
        values = {name: v * CALIBRATION_REF_S / calibration_s for name, v in raw.items()}
        values["peak_rss_mb"] = raw["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = end_to_end_units
        print(f"calibration pass: median {1e3 * calibration_s:.3f} ms of "
              f"{len(rec.calibration_s)}; times below are scaled to {1e3 * CALIBRATION_REF_S} ms "
              f"(raw value in brackets)")
    workloads.final_checks(rec, inp, sizes, args.seed)

    missing = sorted(set(units) - set(values))
    for line in rec.op_errors + rec.check_errors + [f"no value for {m}" for m in missing]:
        print(line, file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds, "
          f"{rec.attempted} operations attempted, {rec.failed} failed")
    counts = {"setup_s": 1 + SETUP_REPEATS, "peak_rss_mb": 1}
    for name, unit in units.items():
        n = rounds if args.trace else counts.get(name, len(rec.samples.get(name, ())))
        extra = "" if args.trace else f"[{raw.get(name, float('nan')):.6g}] "
        print(f"  {name:40s} {values.get(name, float('nan')):14.6g} {unit:6s} {extra}(n={n})")
    result = {
        "correct": not rec.check_errors and not missing,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
