"""Closed-loop benchmark of the `cavent` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process and one thread calls `cavent.cli.main(argv)`
in-process, back to back, for S seconds.  Every invocation's output is
checked: the first against an independent reference (see workloads.py), the
rest for byte-identity with the first.  Any mismatch, non-zero exit or
exception counts as a failed invocation.

--trace 0 reports the end-to-end metrics; --trace 1 alternates traced and
untraced invocations and reports the per-layer metrics (see layers.py and
README.md).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric with its unit, and the environment the result was measured in.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checkout import HERE, RESULTS, ROOT, SRC, cli

import numpy as np

from layers import LAYERS, Tracer, wrapper_cost_ns
from workloads import VALUE_TOL, WORKLOADS, check_output, reference_rows

SETUP_INTERVAL = 5.0
SETUP_MIN_SAMPLES = 5
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import cavent.cli; cavent.cli.build_parser()"
HOST_NOTE = (
    "on a 2-core virtual machine, speed drifted by up to ~40% between runs "
    "minutes apart (and up to 2x within an hour) while CPU time drifted with it, "
    "so the drift was host speed, not scheduling; host_steal_frac is the share "
    "of CPU time the hypervisor took during the run; compare commits only with "
    "runs interleaved on one host"
)


# --- environment -------------------------------------------------------------


def _git_commit():
    """HEAD commit read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None where unavailable."""
    try:
        ticks = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "cavent").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "blas_threads": 1,
        "host_note": HOST_NOTE,
    }


# --- measurement -------------------------------------------------------------


@dataclass
class Sample:
    seconds: float
    traced: bool
    problems: list = field(default_factory=list)
    csv_bytes: int = 0
    rows: int = 0


def invoke(argv, out_path, tracer=None):
    """Run one invocation; return (seconds, exit status or error text, stdout, csv).

    With a tracer, a `cli` span covers `cavent.cli.main` and nothing else.
    """
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        span = tracer.begin("cli", "main") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            status = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash fails the invocation, not the benchmark
            status = exc
        elapsed = time.perf_counter() - t0
        if span is not None:
            tracer.end(span)
    if isinstance(status, BaseException):
        status = f"{type(status).__name__}: {status}"
    csv = None
    if out_path is not None and out_path.is_file():
        csv = out_path.read_bytes().decode()  # no newline translation: bytes must match
        out_path.unlink()
    return elapsed, status, stdout.getvalue(), csv


def workload_argv(wl, tag):
    """The workload's argv, writing its CSV (if any) to a scratch file in RESULTS."""
    if wl.command == "oracle-check":
        return wl.argv(), None
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{wl.name}-{os.getpid()}-{tag}.csv"
    return wl.argv() + ["--out", str(out_path)], out_path


def closed_loop(wl, reference, seconds, tracer=None, between=None):
    """Invoke back to back for `seconds`; with a tracer, every other invocation is traced.

    The first invocation's output is checked against the reference, every
    later one for byte-identity with the first.  `between()` runs after every
    invocation, and its time is left out of the loop's wall time.  Returns
    (wall seconds, samples, largest deviation of the first output from the
    reference).
    """
    argv, out_path = workload_argv(wl, "loop")
    samples = []
    first = None
    deviation = None
    paused = 0.0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(samples) % 2 == 0
        if traced:
            tracer.invocation = len(samples)
            with tracer.installed(cli):
                elapsed, status, stdout, csv = invoke(argv, out_path, tracer)
        else:
            elapsed, status, stdout, csv = invoke(argv, out_path)
        sample = Sample(elapsed, traced)
        if csv is not None:
            sample.csv_bytes = len(csv.encode())
            sample.rows = sum(1 for ln in csv.splitlines()[1:] if not ln.startswith("#"))
        if status != 0:
            sample.problems.append(f"exit status {status!r}")
        elif first is None:
            first = (csv, stdout)
            first_problems, deviation = check_output(wl, reference, csv, stdout)
            sample.problems += first_problems
        elif (csv, stdout) != first:
            sample.problems.append("output differs from the run's first invocation")
        elif first_problems:
            sample.problems.append("same output as the first invocation, which failed its check")
        samples.append(sample)
        if between is not None:
            t0 = time.perf_counter()
            between()
            paused += time.perf_counter() - t0
        wall = time.perf_counter() - start - paused
        if wall >= seconds and (tracer is None or len(samples) >= 2):
            return wall, samples, deviation


class SetupTimer:
    """Wall time for a fresh interpreter to import cavent.cli and build the parser.

    Called between invocations, it starts one interpreter every
    SETUP_INTERVAL seconds, so the samples span the whole run and drift of
    the host's speed within a run averages out.
    """

    def __init__(self):
        self.times = []
        self._spawn()  # warms the file cache; not counted
        self._next = time.perf_counter()

    def _spawn(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, cwd=ROOT)
        return time.perf_counter() - t0

    def __call__(self):
        if time.perf_counter() >= self._next:
            self.times.append(self._spawn())
            self._next = time.perf_counter() + SETUP_INTERVAL

    def median(self):
        while len(self.times) < SETUP_MIN_SAMPLES:
            self.times.append(self._spawn())
        return statistics.median(self.times)


def peak_rss_mb(wl):
    """High-water RSS of a fresh process that runs only one of the workload's invocations."""
    argv, out_path = workload_argv(wl, "rss")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_rss.py"), str(SRC), *argv],
            check=True, cwd=ROOT, capture_output=True, text=True,
        )
    finally:
        if out_path is not None:
            out_path.unlink(missing_ok=True)
    return int(proc.stdout.split()[-1]) / 1024.0


def tail(values):
    """(value, percentile) of the highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum stands in.
    """
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


# --- the two kinds of run ----------------------------------------------------


def end_to_end(wl, reference, seconds):
    """Untraced closed loop; metrics map name -> (value, unit, note)."""
    setup = SetupTimer()
    wall, samples, deviation = closed_loop(wl, reference, seconds, between=setup)
    rss = peak_rss_mb(wl)
    completed = sum(1 for s in samples if not s.problems)
    latencies = [s.seconds * 1e3 for s in samples]
    tail_ms, tail_pct = tail(latencies)
    n = len(samples)
    metrics = {
        "points_per_s": (completed * wl.points / wall, "1/s", f"{wl.points} points per invocation"),
        "latency_ms.p50": (statistics.median(latencies), "ms", f"n={n}"),
        "latency_ms.tail": (tail_ms, "ms", f"p{tail_pct:.1f}, n={n}"),
        "setup_s": (setup.median(), "s", f"median of {len(setup.times)} fresh interpreters"),
        "peak_rss_mb": (rss, "MB", "fresh process, one invocation"),
    }
    return samples, metrics, {"max_deviation": deviation, "latencies_ms": latencies}


def per_layer(wl, reference, seconds):
    """Closed loop alternating traced and untraced invocations, plus one tracemalloc pass."""
    tracer = Tracer()
    _, samples, deviation = closed_loop(wl, reference, seconds, tracer)
    layers = tracer.per_invocation()
    traced = sorted(layers)
    counts = {}
    for i in traced:
        counts[i] = dict(layers[i]["counts"], **{
            "cli.csv_bytes": samples[i].csv_bytes, "cli.rows": samples[i].rows})
    # exact counts repeat in every traced invocation of the same code
    expected = counts[traced[0]]
    for i in traced[1:]:
        if counts[i] != expected:
            samples[i].problems.append(f"layer counts {counts[i]} differ from {expected}")

    def self_ms(key):
        return statistics.median(layers[i]["self_ns"].get(key, 0) for i in traced) / 1e6

    # The wrappers' own bookkeeping lands in the cli span; take it out.
    wrapper_ns = wrapper_cost_ns()
    wrapped_calls = sum(expected.get(f"{layer}.calls", 0) for layer in LAYERS)
    cli_self_ms = statistics.median(
        layers[i]["self_ns"]["cli"] - wrapped_calls * wrapper_ns for i in traced) / 1e6

    untraced = [s.seconds for s in samples if not s.traced]
    traced_s = [s.seconds for s in samples if s.traced]

    alloc = Tracer(alloc=True)
    with alloc.installed(cli):
        invoke(*workload_argv(wl, "alloc"))

    invocation_ms = statistics.median(traced_s) * 1e3
    per_inv = "per invocation"
    metrics = {
        "entanglement.calls": (expected.get("entanglement.calls", 0), "count", per_inv),
        "entanglement.ms": (self_ms("entanglement"), "ms", "self time " + per_inv),
        "entanglement.errors": (expected.get("entanglement.errors", 0), "count", per_inv),
        "dynamics.calls": (expected.get("dynamics.calls", 0), "count", per_inv),
        "dynamics.ms": (self_ms("dynamics"), "ms", "self time " + per_inv),
        "dynamics.terms": (expected.get("dynamics.terms", 0), "count", "sum of n_max+1 " + per_inv),
        "oracle.calls": (expected.get("oracle.calls", 0), "count", per_inv),
        "oracle.state_ms": (self_ms("tripartite_state"), "ms", "self time " + per_inv),
        "oracle.trace_ms": (self_ms("trace_out_field"), "ms", "self time " + per_inv),
        "fields.calls": (expected.get("fields.calls", 0), "count", per_inv),
        "fields.ms": (self_ms("fields"), "ms", "self time " + per_inv),
        "fields.terms": (expected.get("fields.terms", 0), "count", "sum of n_max+1 " + per_inv),
        "cli.self_ms": (cli_self_ms, "ms", (
            f"outside every layer span, less {wrapped_calls} wrapped calls x "
            f"{wrapper_ns:.0f} ns of wrapper cost, " + per_inv)),
        "cli.invocation_ms": (invocation_ms, "ms", "traced invocation"),
        "cli.csv_bytes": (expected["cli.csv_bytes"], "count", "CSV bytes " + per_inv),
    }
    for layer in ("dynamics", "entanglement", "oracle"):
        metrics[f"{layer}.alloc_peak_kb"] = (
            alloc.alloc_peak.get(layer, 0) / 1024.0, "kB", "tracemalloc, largest sampled call")
    metrics["trace.overhead"] = (
        statistics.fmean(traced_s) / statistics.fmean(untraced), "ratio",
        f"points_per_s untraced / traced, {len(untraced)} and {len(traced_s)} interleaved invocations",
    )
    shares = {layer: self_ms(layer) / invocation_ms for layer in LAYERS}
    shares["cli"] = cli_self_ms / invocation_ms
    return samples, metrics, {
        "max_deviation": deviation, "counts": expected, "self_time_share": shares,
        "wrapper_ns_per_call": wrapper_ns, "missing_layer_functions": sorted(tracer.missing),
        "spans": tracer.spans}


# --- command line ------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the cavent CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run(args, reference=None):
    """One benchmark run; returns the result record.  `reference` overrides the computed one."""
    wl = WORKLOADS[args.workload].perturbed(args.seed)
    if reference is None and wl.command != "oracle-check":
        reference = reference_rows(wl)
    measure = per_layer if args.trace else end_to_end
    ticks = cpu_ticks()
    samples, metrics, details = measure(wl, reference, args.seconds)
    env = environment(args.seed)
    if ticks is not None and (after := cpu_ticks()) is not None and after[1] > ticks[1]:
        env["host_steal_frac"] = (after[0] - ticks[0]) / (after[1] - ticks[1])
    failed = sum(1 for s in samples if s.problems)
    return {
        "workload": wl.name,
        "argv": wl.argv(),
        "trace": args.trace,
        "env": env,
        "attempted": len(samples),
        "failed": failed,
        "problems": sorted({p for s in samples for p in s.problems})[:20],
        "metrics": metrics,
        "details": details,
    }


def report(record):
    """Print the human-readable lines, write the record to RESULTS, print the JSON line."""
    print(f"workload {record['workload']}: cavent {' '.join(record['argv'])}")
    print("env " + json.dumps(record["env"]))
    attempted, failed = record["attempted"], record["failed"]
    for name, (value, unit, note) in record["metrics"].items():
        print(f"{name:24} {value:14.6g} {unit:6} {note}")
    print(f"{'fail_frac':24} {failed / attempted:14.6g} {'ratio':6} {failed} of {attempted} invocations")
    deviation = record["details"]["max_deviation"]
    if deviation is not None:
        print(f"largest deviation from the reference: {deviation:.3e} (tolerance {VALUE_TOL:g})")
    for problem in record["problems"]:
        print("FAILED: " + problem)
    if record["trace"]:
        shares = record["details"]["self_time_share"]
        print("self-time share of a traced invocation: " + ", ".join(
            f"{layer} {100 * share:.1f}%" for layer, share in shares.items()))
        missing = record["details"]["missing_layer_functions"]
        if missing:
            print("not in cavent.cli, so not traced (reads as zero calls): " + ", ".join(missing))
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{record['workload']}-seed{record['env']['seed']}-trace{record['trace']}"
    spans = record["details"].pop("spans", None)
    if spans is not None:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            fh.write("# id,parent,invocation,layer,function,start_ns,end_ns,raised,terms\n")
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in record["metrics"].items()},
    }))


if __name__ == "__main__":
    report(run(parse_args()))
