"""Re-measure the ROADMAP baseline table on this machine.

    python3 perfbench/baseline.py [--repeats 5]

Each row is the median wall time of ``--repeats`` calls (three for the
seasonal SIR rows), on the benchmark's inputs for seed 1.  The table is
reference material for README.md; the benchmark itself is run.py.
"""

import argparse
import os
import platform
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np
import scipy

import pompkit as pk
from workloads import NPROC, WORKLOADS, bare_gompertz_filter, build_inputs, seeds


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    n = parser.parse_args().repeats
    inp = build_inputs(WORKLOADS["sir-seasonal-filter"], 1)
    g, y = inp.gompertz, inp.gompertz.data.column("Y")
    truth = g.params.as_dict()
    s = seeds(1, 3, n=4)
    rep_seeds = pk.child_seeds(s[0], "replicates", 16)
    mif_settings = pk.MifSettings(start=g.params, n_iterations=5, num_particles=1000,
                                  rw_sd={"r": 0.02, "sigma": 0.02, "tau": 0.02},
                                  cooling_fraction=0.5)

    def replicates_threaded():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda seed: pk.pfilter(g, num_particles=1000, seed=seed), rep_seeds))

    def ms(fn, repeats=n, digits=0):
        return f"{1e3 * median_time(fn, repeats):.{digits}f}"

    def bare(J):
        return bare_gompertz_filter(y, truth, J, np.random.default_rng(s[1]))

    def mif_iteration():
        pk.mif(g, mif_settings, seed=s[3], run_final_filter=False)

    rows = [
        ("`pfilter` Gompertz, N=100, J=100 / 1000 / 10000", " / ".join(
            ms(lambda: pk.pfilter(g, num_particles=J, seed=s[1])) for J in (100, 1000, 10000))
         + " ms"),
        ("the same filter as a bare numpy loop, J=100 / 1000",
         " / ".join(ms(lambda: bare(J), digits=1) for J in (100, 1000)) + " ms"),
        ("`pfilter` Ricker, N=51, J=1000",
         ms(lambda: pk.pfilter(inp.ricker, num_particles=1000, seed=s[1])) + " ms"),
        ("`pfilter` seasonal SIR (2 y, 20 Euler substeps per week), J=200",
         f"{median_time(lambda: pk.pfilter(inp.sir, num_particles=200, seed=s[1]), 3):.2f} s"),
        ("`simulate_paths` seasonal SIR, 10 y, nsim=100",
         f"{median_time(lambda: pk.simulate_paths(inp.sir_long, None, s[2], 100), 3):.1f} s"),
        ("`mif` Gompertz, J=1000",
         f"{float(ms(mif_iteration, digits=1)) / 5:.0f} ms per iteration"),
        ("`simulate_paths` Gompertz, nsim=1",
         ms(lambda: pk.simulate_paths(g, None, s[2], 1), digits=1) + " ms"),
        ("`rng.stream()`",
         f"{float(ms(lambda: [pk.stream(k, 'bench') for k in range(1000)], digits=3)):.0f}"
         " µs per call"),
        ("16 replicate pfilters, J=1000: serial / ThreadPool(2) / one J=16000 pass", " / ".join([
            f"{median_time(lambda: [pk.pfilter(g, num_particles=1000, seed=x) for x in rep_seeds], n):.2f}",
            f"{median_time(replicates_threaded, n):.2f}",
            f"{median_time(lambda: pk.pfilter(g, num_particles=16000, seed=s[1]), n):.2f}"]) + " s"),
    ]
    print(f"nproc {NPROC}, Python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}; median of {n} (3 for seasonal SIR)\n")
    print("| measurement | time |\n| --- | --- |")
    for name, value in rows:
        print(f"| {name} | {value} |")


if __name__ == "__main__":
    main()
