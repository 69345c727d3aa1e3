"""Reprint the ROADMAP "Baseline" table from fresh measurements.

Usage (from the repository root):

    python3 perfbench/baseline.py

Times each row of the table at both reference configurations: mean 0.3 / r 0.5
over gt 0..10 and mean 50 / r 1 over gt 0..50, squeezed field, 512 grid
points (64 for the oracle check).  Single-call rows average over 16 gt values
spread across the grid, so no one matrix decides the Jacobi sweep count.
Each figure is the median of REPEATS timings of at least MIN_SECONDS each.
A row whose function the package no longer has prints n/a.
"""

import json
import statistics
import time

from checkout import RESULTS

import numpy as np

from cavent.cli import SweepConfig, run_oracle_check, run_sweep
from cavent.dynamics import assemble_rho, gamma_coefficients
from cavent import entanglement
from cavent.entanglement import concurrence
from cavent.fields import SqueezedParams, solve_alpha_for_mean, squeezed_distribution
from run import environment

REPEATS = 5
MIN_SECONDS = 0.2
SINGLE_CALL_POINTS = 16
CONFIGS = {
    "mean 0.3, r 0.5": dict(target_mean=0.3, r=0.5, gt_end=10.0),
    "mean 50, r 1": dict(target_mean=50.0, r=1.0, gt_end=50.0),
}


def per_call_seconds(fn, args_list):
    """Median over REPEATS of the mean time of one call of fn over args_list; None without fn."""
    if fn is None:
        return None
    rounds = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(rounds):
            for args in args_list:
                fn(*args)
        if time.perf_counter() - t0 >= MIN_SECONDS:
            break
        rounds *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for args in args_list:
                fn(*args)
        samples.append((time.perf_counter() - t0) / (rounds * len(args_list)))
    return statistics.median(samples)


def measure(target_mean, r, gt_end):
    cfg = SweepConfig("squeezed", target_mean=target_mean, r=r, gt_end=gt_end, gt_steps=512)
    params = SqueezedParams(solve_alpha_for_mean(target_mean, r), r)
    dist = squeezed_distribution(params)
    gts = [float(g) for g in np.linspace(0.0, gt_end, SINGLE_CALL_POINTS + 2)[1:-1]]
    rhos = [(assemble_rho(gamma_coefficients(dist, gt)),) for gt in gts]
    oracle_cfg = SweepConfig("squeezed", target_mean=target_mean, r=r, gt_end=gt_end, gt_steps=64)
    rows = {
        "`squeezed_distribution`": per_call_seconds(squeezed_distribution, [(params,)]),
        "`gamma_coefficients` (1 point)": per_call_seconds(
            gamma_coefficients, [(dist, gt) for gt in gts]),
        "`symmetric_eigen` (Jacobi, 1 call)": per_call_seconds(
            getattr(entanglement, "symmetric_eigen", None), rhos),
        "`np.linalg.eigvalsh` on the same 4x4": per_call_seconds(np.linalg.eigvalsh, rhos),
        "`concurrence` (1 point, 2 Jacobi calls)": per_call_seconds(concurrence, rhos),
        "`run_sweep`, 512 points": per_call_seconds(run_sweep, [(cfg,)]),
        "`run_oracle_check`, 64 points": per_call_seconds(run_oracle_check, [(oracle_cfg,)]),
    }
    return dist.n_max, rows


def fmt(seconds):
    if seconds is None:
        return "n/a"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.3g} µs"
    return f"{seconds * 1e3:.3g} ms"


def main():
    results = {name: measure(**cfg) for name, cfg in CONFIGS.items()}
    names = list(results)
    print("| layer / command | " + " | ".join(
        f"{name} (n_max {results[name][0]})" for name in names) + " |")
    print("| --- |" + " --- |" * len(names))
    for row in results[names[0]][1]:
        print(f"| {row} | " + " | ".join(fmt(results[name][1][row]) for name in names) + " |")
    env = environment(seed=None)
    print("env " + json.dumps(env))
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "baseline.json", "w") as fh:
        json.dump({"env": env, "seconds_per_call": {
            name: {"n_max": n_max, "rows": rows} for name, (n_max, rows) in results.items()}},
            fh, indent=1)


if __name__ == "__main__":
    main()
