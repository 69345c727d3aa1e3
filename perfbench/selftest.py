"""Check the benchmark itself.

Usage (from the repository root):

    python3 perfbench/selftest.py

* A short run of every workload, untraced and traced, prints exactly the
  metric names and units listed in BENCHMARK.json, with every output correct.
* The traced runs confirm each workload's purpose: entanglement takes more
  than half of a sweep-low invocation, dynamics more than half of a
  compare-bright one, and the oracle layer runs only on oracle-high.
* Exact counts (calls, terms, CSV bytes, rows) repeat between two traced
  runs of the same code.
* A deliberately corrupted reference row drives fail_frac above 0.
* Seed 0 gives the nominal inputs; other seeds stay within the stated range.
* Without the program's source next to it, the benchmark exits non-zero and
  prints no result.

Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys

from checkout import HERE, RESULTS, ROOT

import run
from workloads import PERTURBATION, WORKLOADS, reference_rows

SECONDS = 1.0  # length of each short benchmark run

NOMINAL = {
    "sweep-low": "sweep --field squeezed --mean 0.3 --r 0.5 --gt-start 0 --gt-end 10.0 --steps 512",
    "compare-bright": "compare --mean 400.0 --r 1.0 --gt-start 0 --gt-end 50.0 --steps 128",
    "oracle-high": "oracle-check --field squeezed --mean 50.0 --r 1.0 --gt-start 0 --gt-end 50.0 --steps 512",
}


def check(condition, message):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc, what):
    check(proc.returncode == 0, f"{what} exits 0 (stderr: {proc.stderr.strip()[-300:]})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{what} ends with the result object")
    return result


def record(workload, trace):
    with open(RESULTS / f"{workload}-seed0-trace{trace}.json") as fh:
        return json.load(fh)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "every workload in BENCHMARK.json is defined")

    for name, wl in WORKLOADS.items():
        check(" ".join(wl.perturbed(0).argv()) == NOMINAL[name], f"seed 0 gives the nominal {name}")
        other = wl.perturbed(7)
        check(all(abs(getattr(other, k) / getattr(wl, k) - 1.0) <= PERTURBATION + 1e-6
                  for k in ("mean", "r", "gt_end")), f"seed 7 perturbs {name} within {PERTURBATION:.0%}")
        check(wl.perturbed(7) == other, f"seed 7 gives {name} the same inputs twice")

    shares = {}
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = last_json(bench(name, trace), f"{name} --trace {trace}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{name} --trace {trace} prints every {key} metric with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} --trace {trace}: every output is correct")
        first = record(name, 1)["details"]
        shares[name] = first["self_time_share"]
        again = last_json(bench(name, 1), f"{name} second traced run")
        check(record(name, 1)["details"]["counts"] == first["counts"] and again["correct"],
              f"{name}: calls, terms, CSV bytes and rows repeat exactly between traced runs")

    check(shares["sweep-low"]["entanglement"] > 0.5, "entanglement is over half of sweep-low")
    check(shares["compare-bright"]["dynamics"] > 0.5, "dynamics is over half of compare-bright")
    check(shares["oracle-high"]["oracle"] > 0 and shares["sweep-low"]["oracle"] == 0
          and shares["compare-bright"]["oracle"] == 0, "the oracle layer runs only on oracle-high")

    wl = WORKLOADS["sweep-low"]
    corrupted = reference_rows(wl)
    gt, c, eof = corrupted[100]
    corrupted[100] = (gt, c + 1e-3, eof)
    args = run.parse_args(["--workload", wl.name, "--seconds", str(SECONDS)])
    rec = run.run(args, reference=corrupted)
    check(rec["failed"] / rec["attempted"] > 0, "a corrupted reference row drives fail_frac above 0")

    bare = RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("sweep-low", 0, cwd=bare, script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program's source the benchmark exits non-zero and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
