"""Workload definitions, seed perturbation and the independent output check.

Each workload is one fixed `cavent` command line.  Seed 0 gives exactly the
nominal inputs; any other seed scales --mean, --r and --gt-end by factors
drawn uniformly from [1 - PERTURBATION, 1 + PERTURBATION] (rounded to six
significant digits), so a claim can be re-checked on inputs nobody tuned for.

The reference shares neither the photon distributions, the ten gamma sums
nor the Jacobi solver with the program.  The photon distributions come from
their closed forms in 30-digit arithmetic (mpmath): the Poissonian for the
coherent field, and for the squeezed field P_n = c_n^2 with

    c_n = exp(-beta^2 (1 - nu/mu) / 2) / sqrt(mu)
          * (nu / 2 mu)^(n/2) H_n(beta / sqrt(2 mu nu)) / sqrt(n!),

mu = cosh r, nu = sinh r, beta = (mu + nu) alpha, H_n the Hermite polynomial.
rho comes from the Fock-space oracle (`tripartite_state` followed by
`trace_out_field`) and the Wootters concurrence from LAPACK (`np.linalg.eigh`)
through the factorization rho = W W^T, whose spin-flipped Gram matrix
W^T Y W has the Wootters lambdas as its absolute eigenvalues.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import mpmath
import numpy as np

from cavent.fields import PhotonDistribution
from cavent.oracle import trace_out_field, tripartite_state

PERTURBATION = 0.02

# Concurrence and E_F lie in [0, 1].  The tolerance is the program's own
# concurrence contract (cavent.cli.CONCURRENCE_CHECK_TOL): its square-root
# route loses up to ~sqrt(eps) on small eigenvalues (2.6e-10 on compare-bright,
# where the reference agrees with a 40-digit evaluation to 2.5e-16).  It passes
# that and any 12th-digit CSV drift, and catches every wrong number; the
# largest deviation seen is reported with each run.
VALUE_TOL = 1e-8
GT_REL_TOL = 1e-11
# The reference distribution stops once less than this mass is left.
REFERENCE_TAIL = 1e-16

_Y = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))  # sigma_y (x) sigma_y, real


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    field: str | None  # None: compare, which runs squeezed and coherent
    mean: float
    r: float
    gt_end: float
    steps: int

    @property
    def fields(self) -> tuple[str, ...]:
        return (self.field,) if self.field else ("squeezed", "coherent")

    @property
    def points(self) -> int:
        """Grid points per invocation: gt values times field configurations."""
        return self.steps * len(self.fields)

    def argv(self) -> list[str]:
        argv = [self.command]
        if self.field:
            argv += ["--field", self.field]
        argv += [
            "--mean", repr(self.mean), "--r", repr(self.r),
            "--gt-start", "0", "--gt-end", repr(self.gt_end),
            "--steps", str(self.steps),
        ]
        return argv

    def perturbed(self, seed: int) -> "Workload":
        if seed == 0:
            return self
        rng = random.Random(seed)

        def scale(x):
            factor = 1.0 + PERTURBATION * (2.0 * rng.random() - 1.0)
            return float(f"{x * factor:.6g}")

        return Workload(
            self.name, self.command, self.field,
            scale(self.mean), scale(self.r), scale(self.gt_end), self.steps,
        )

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.gt_end, self.steps)


# Why each workload was chosen, and which layer it loads: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-low", "sweep", "squeezed", 0.3, 0.5, 10.0, 512),
        Workload("compare-bright", "compare", None, 400.0, 1.0, 50.0, 128),
        Workload("oracle-high", "oracle-check", "squeezed", 50.0, 1.0, 50.0, 512),
    )
}


# --- reference ---------------------------------------------------------------


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def reference_distribution(field: str, mean: float, r: float) -> PhotonDistribution:
    """P_n from the closed forms in the module docstring, at least up to n = mean."""
    with mpmath.workdps(30):
        if field == "coherent":
            m = mpmath.mpf(mean)

            def term(n):
                return mpmath.exp(-m) * m**n / mpmath.factorial(n)
        else:
            mu, nu = mpmath.cosh(r), mpmath.sinh(r)
            beta = (mu + nu) * mpmath.sqrt(mean - nu**2)
            x = beta / mpmath.sqrt(2 * mu * nu)
            k2 = mpmath.exp(-beta**2 * (1 - nu / mu)) / mu
            t2 = nu / (2 * mu)

            def term(n):
                return k2 * t2**n * mpmath.hermite(n, x) ** 2 / mpmath.factorial(n)

        probs, total, n = [], mpmath.mpf(0), 0
        while n <= mean or total < 1 - REFERENCE_TAIL:
            p = term(n)
            probs.append(float(p))
            total += p
            n += 1
        return PhotonDistribution(np.array(probs), max(0.0, float(1 - total)))


def reference_concurrence(rho: np.ndarray) -> float:
    values, vectors = np.linalg.eigh(rho)
    w = vectors * np.sqrt(np.clip(values, 0.0, None))
    lam = np.sort(np.abs(np.linalg.eigvalsh(w.T @ _Y @ w)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def reference_rows(wl: Workload) -> list[tuple[float, ...]]:
    """(gt, concurrence, eof) per field, joined per gt like the CSV rows."""
    grid = wl.grid()
    columns = []
    for field in wl.fields:
        dist = reference_distribution(field, wl.mean, 0.0 if field == "coherent" else wl.r)
        col = []
        for gt in grid:
            c = reference_concurrence(trace_out_field(tripartite_state(dist, float(gt))))
            col.append((c, _binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))))
        columns.append(col)
    return [
        (float(gt),) + tuple(v for col in columns for v in col[i])
        for i, gt in enumerate(grid)
    ]


# --- output check ------------------------------------------------------------


def check_output(wl: Workload, reference, csv_text: str | None, stdout: str):
    """(problems, largest deviation from the reference) of one invocation's output.

    An empty problem list means the output is correct.  oracle-check writes no
    CSV; it must report every grid point and result=PASS.
    """
    if wl.command == "oracle-check":
        problems = []
        if f"points={wl.steps}\n" not in stdout:
            problems.append(f"oracle-check did not report points={wl.steps}")
        if "result=PASS\n" not in stdout:
            problems.append("oracle-check did not print result=PASS")
        return problems, None
    try:
        return _check_csv(wl, reference, csv_text, stdout)
    except ValueError as exc:  # a cell that is not a number
        return [f"malformed CSV: {exc}"], None


def _check_csv(wl, reference, csv_text, stdout):
    if csv_text is None:
        return ["no CSV written"], None
    lines = csv_text.split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"], None
    lines.pop()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    expected_header = (
        "gt,concurrence,eof" if wl.field else "gt,concurrence_a,eof_a,concurrence_b,eof_b"
    )
    if not body or body[0] != expected_header:
        return [f"CSV header is not {expected_header!r}"], None
    rows = [ln.split(",") for ln in body[1:]]
    if len(rows) != len(reference):
        return [f"CSV has {len(rows)} rows, expected {len(reference)}"], None
    problems = []
    deviation = 0.0
    for i, (row, ref) in enumerate(zip(rows, reference)):
        values = [float(x) for x in row]
        if len(values) != len(ref):
            problems.append(f"row {i} has {len(values)} columns, expected {len(ref)}")
            continue
        if abs(values[0] - ref[0]) > GT_REL_TOL * max(1.0, ref[0]):
            problems.append(f"row {i}: gt {values[0]!r} != {ref[0]!r}")
        worst = max(abs(v - r) for v, r in zip(values[1:], ref[1:]))
        deviation = max(deviation, worst)
        if worst > VALUE_TOL:
            problems.append(f"row {i} (gt={row[0]}): deviates from the reference by {worst:.3e}")
    if not wl.field:
        problems += _check_peaks(body[1:], comments, stdout)
    return problems, deviation


def _check_peaks(rows: list[str], comments: list[str], stdout: str) -> list[str]:
    """The `# peak_eof_x=` lines and the stdout peak lines must agree with the rows."""
    problems = []
    printed = dict(ln.split(" at gt=") for ln in stdout.splitlines() if " at gt=" in ln)
    cells = [row.split(",") for row in rows]
    for key, column in (("peak_eof_a", 2), ("peak_eof_b", 4)):
        peak = max(cells, key=lambda c: float(c[column]))[column]
        if f"# {key}={peak}" not in comments:
            problems.append(f"CSV lacks '# {key}={peak}'")
        gt = printed.get(f"{key}={peak}")
        if gt is None:
            problems.append(f"stdout lacks the line '{key}={peak} at gt=...'")
        elif not any(c[0] == gt and c[column] == peak for c in cells):
            problems.append(f"stdout reports {key} at gt={gt}, where the CSV has no such peak")
    return problems
