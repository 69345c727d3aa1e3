"""Command-line surface: entanglement sweeps, fixed-mean comparisons, oracle checks.

Three subcommands, all emitting deterministic output:

* ``sweep``        - concurrence and entanglement of formation versus the Rabi
                     angle gt for one field configuration, as CSV.
* ``compare``      - the squeezed-versus-coherent comparison at a fixed mean
                     photon number: config A is the squeezed field (--mean,
                     --r), config B the coherent field with the same mean, on
                     the same gt grid.  CSV plus a peak summary.
* ``oracle-check`` - re-derives every grid point through the Fock-space
                     oracle and reports the worst deviation of the analytic
                     density matrix and concurrence.

Exit codes: 0 success, 1 configuration error, 2 numerical error,
3 oracle-check failure.
"""

from __future__ import annotations

import argparse
import io
import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import _blocks, assemble_rho, gamma_coefficients
from .entanglement import concurrence, eof_from_concurrence
from .errors import NumericsError, ParameterError, _real_number
from .fields import DEFAULT_TAIL_TOL, SqueezedParams, solve_alpha_for_mean, squeezed_distribution
from .oracle import trace_out_field, tripartite_state

RHO_CHECK_TOL = 1e-10
CONCURRENCE_CHECK_TOL = 1e-8

DEFAULT_GT_END = 10.0
DEFAULT_STEPS = 512
DEFAULT_ORACLE_STEPS = 64


@dataclass(frozen=True)
class SweepConfig:
    """One field configuration plus the gt grid it is swept over.

    Exactly one of ``alpha`` / ``target_mean`` must be given; ``r`` is only
    meaningful for the squeezed field.  Construction checks what only the
    configuration knows: the field kind, the amplitude inputs, r with the
    coherent field, grid ends that are finite, ordered real numbers, and an
    integer number of steps, at least two and few enough for numpy to size
    the grid (a bool is not an integer here).
    Every other value is checked where it is consumed, when the sweep runs:
    alpha and r by `SqueezedParams`, target_mean and r by
    `solve_alpha_for_mean`, tail_tol by the photon distribution, and the
    grid angles (gt_start >= 0) by `gamma_coefficients`.
    """

    field_kind: str
    alpha: float | None = None
    target_mean: float | None = None
    r: float = 0.0
    gt_start: float = 0.0
    gt_end: float = DEFAULT_GT_END
    gt_steps: int = DEFAULT_STEPS
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.field_kind not in ("coherent", "squeezed"):
            raise ParameterError(
                f"field_kind must be 'coherent' or 'squeezed', got {self.field_kind!r}"
            )
        if (self.alpha is None) == (self.target_mean is None):
            raise ParameterError("exactly one of alpha / target_mean must be supplied")
        if self.field_kind == "coherent" and self.r != 0.0:
            raise ParameterError("r applies to the squeezed field only")
        # np.linspace would turn an infinite end into NaN angles
        start = _real_number(self.gt_start, "gt_start")
        end = _real_number(self.gt_end, "gt_end")
        if not (math.isfinite(start) and math.isfinite(end) and start < end):
            raise ParameterError(
                f"the grid needs finite gt_start < gt_end, got [{self.gt_start}, {self.gt_end}]"
            )
        if isinstance(self.gt_steps, bool) or not isinstance(self.gt_steps, numbers.Integral):
            raise ParameterError(f"gt_steps must be an integer, got {self.gt_steps!r}")
        if self.gt_steps < 2:
            raise ParameterError(f"gt_steps must be >= 2, got {self.gt_steps}")
        # numpy cannot size a float64 array of more bytes than an index counts
        if self.gt_steps > np.iinfo(np.intp).max // 8:
            raise ParameterError(f"gt_steps={self.gt_steps} is too large for a grid array")

    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        return solve_alpha_for_mean(self.target_mean, self.r)

    def distribution(self):
        """Photon distribution of the field; the coherent field is the squeezed
        field at r = 0."""
        params = SqueezedParams(self.resolved_alpha(), self.r)
        return squeezed_distribution(params, self.tail_tol)

    def gt_grid(self) -> np.ndarray:
        return np.linspace(self.gt_start, self.gt_end, self.gt_steps)


class SweepResult(NamedTuple):
    """A sweep as columns: three (G,) float arrays, ascending in gt.

    concurrence comes from `concurrence` (a pivoted Cholesky factor of each
    density matrix, checked against it, and one LAPACK eigensolve per
    matrix), eof from `eof_from_concurrence` over the whole column.
    """

    gt: np.ndarray
    concurrence: np.ndarray
    eof: np.ndarray


@dataclass(frozen=True)
class CompareResult:
    """Two sweeps over one shared grid, a the squeezed and b the coherent
    field of `compare`, with the first maximum of each eof column."""

    a: SweepResult
    b: SweepResult
    peak_eof_a: float
    peak_gt_a: float
    peak_eof_b: float
    peak_gt_b: float


@dataclass(frozen=True)
class OracleReport:
    points: int
    max_rho_deviation: float
    max_concurrence_deviation: float

    @property
    def passed(self) -> bool:
        return (
            self.max_rho_deviation < RHO_CHECK_TOL
            and self.max_concurrence_deviation < CONCURRENCE_CHECK_TOL
        )


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Entanglement of the emerging atom pair at every grid angle, ascending in gt."""
    dist = cfg.distribution()
    grid = cfg.gt_grid()
    values = concurrence(assemble_rho(gamma_coefficients(dist, grid)))
    return SweepResult(grid, values, eof_from_concurrence(values))


def run_compare(cfg_a: SweepConfig, cfg_b: SweepConfig) -> CompareResult:
    """Sweep two configurations over one shared grid and report each peak E_F."""
    if (cfg_a.gt_start, cfg_a.gt_end, cfg_a.gt_steps) != (
        cfg_b.gt_start,
        cfg_b.gt_end,
        cfg_b.gt_steps,
    ):
        raise ParameterError("compare requires identical gt grids for both configs")
    a = run_sweep(cfg_a)
    b = run_sweep(cfg_b)
    # argmax keeps the first of equal peaks
    i = int(np.argmax(a.eof))
    j = int(np.argmax(b.eof))
    return CompareResult(a, b, float(a.eof[i]), float(a.gt[i]), float(b.eof[j]), float(b.gt[j]))


def run_oracle_check(cfg: SweepConfig) -> OracleReport:
    """Compare the analytic density matrix against the Fock-space partial trace.

    Failures are reported in the returned record, never raised.
    """
    dist = cfg.distribution()
    grid = cfg.gt_grid()
    rho_sum = assemble_rho(gamma_coefficients(dist, grid))
    # block by block, so that peak memory does not grow with the grid
    rho_oracle = np.empty_like(rho_sum)
    for block in _blocks(len(grid), len(dist.probs)):
        rho_oracle[block] = trace_out_field(tripartite_state(dist, grid[block]))
    max_rho = float(np.max(np.abs(rho_sum - rho_oracle)))
    max_conc = float(np.max(np.abs(concurrence(rho_sum) - concurrence(rho_oracle))))
    return OracleReport(len(grid), max_rho, max_conc)


# --- output formatting -------------------------------------------------------


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _write_rows(header, columns, stream):
    """One CSV line per row of the (G,) columns, each cell formatted as _fmt does."""
    table = np.column_stack(columns)
    line = ",".join(["%.12g"] * table.shape[1]) + "\n"
    stream.write(header + "\n" + line * len(table) % tuple(table.ravel().tolist()))


def write_sweep_csv(result: SweepResult, stream):
    _write_rows("gt,concurrence,eof", result, stream)


def write_compare_csv(result: CompareResult, stream):
    a, b = result.a, result.b
    _write_rows(
        "gt,concurrence_a,eof_a,concurrence_b,eof_b",
        (a.gt, a.concurrence, a.eof, b.concurrence, b.eof),
        stream,
    )
    stream.write(f"# peak_eof_a={_fmt(result.peak_eof_a)}\n")
    stream.write(f"# peak_eof_b={_fmt(result.peak_eof_b)}\n")


def format_oracle_report(report: OracleReport) -> str:
    return (
        f"points={report.points}\n"
        f"max_rho_deviation={_fmt(report.max_rho_deviation)}\n"
        f"max_concurrence_deviation={_fmt(report.max_concurrence_deviation)}\n"
        f"rho_tolerance={_fmt(RHO_CHECK_TOL)}\n"
        f"concurrence_tolerance={_fmt(CONCURRENCE_CHECK_TOL)}\n"
        f"result={'PASS' if report.passed else 'FAIL'}\n"
    )


# --- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this tool reserves 2 for
    # numerical errors, so route config mistakes to code 1
    def error(self, message):
        raise ParameterError(message)


def _add_grid_arguments(parser, default_steps):
    parser.add_argument("--gt-start", type=float, default=0.0, help="first Rabi angle")
    parser.add_argument("--gt-end", type=float, default=DEFAULT_GT_END, help="last Rabi angle")
    parser.add_argument("--steps", type=int, default=default_steps, help="grid points")
    parser.add_argument(
        "--tail-tol", type=float, default=DEFAULT_TAIL_TOL,
        help="photon-distribution truncation tolerance",
    )
    parser.add_argument("--out", help="write output here instead of stdout")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="reserved for interface stability; unused (the computation is deterministic)",
    )


def _add_field_arguments(parser):
    parser.add_argument(
        "--field", required=True, choices=("coherent", "squeezed"), help="cavity field kind"
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, help="field amplitude")
    group.add_argument("--mean", type=float, help="target mean photon number")
    parser.add_argument("--r", type=float, default=0.0, help="squeezing parameter (squeezed only)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cavent", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="entanglement of formation versus gt, as CSV")
    _add_field_arguments(sweep)
    _add_grid_arguments(sweep, DEFAULT_STEPS)

    compare = sub.add_parser(
        "compare",
        help="squeezed (config a) versus coherent (config b) at the same mean photon number",
    )
    compare.add_argument("--mean", type=float, required=True, help="shared mean photon number")
    compare.add_argument("--r", type=float, required=True, help="squeezing of config a")
    # config a; main derives config b from it
    compare.set_defaults(field="squeezed", alpha=None)
    _add_grid_arguments(compare, DEFAULT_STEPS)

    oracle = sub.add_parser(
        "oracle-check", help="validate the analytic pipeline against the Fock-space oracle"
    )
    _add_field_arguments(oracle)
    _add_grid_arguments(oracle, DEFAULT_ORACLE_STEPS)
    return parser


def _config_from_args(args) -> SweepConfig:
    return SweepConfig(
        field_kind=args.field,
        alpha=args.alpha,
        target_mean=args.mean,
        r=args.r,
        gt_start=args.gt_start,
        gt_end=args.gt_end,
        gt_steps=args.steps,
        tail_tol=args.tail_tol,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # format everything before writing anything: an error leaves stdout and --out untouched
        buf = io.StringIO()
        summary, status = "", 0  # the summary goes to stdout when buf goes to --out
        if args.command == "sweep":
            write_sweep_csv(run_sweep(_config_from_args(args)), buf)
        elif args.command == "compare":
            cfg_a = _config_from_args(args)
            result = run_compare(cfg_a, replace(cfg_a, field_kind="coherent", r=0.0))
            write_compare_csv(result, buf)
            summary = (
                f"peak_eof_a={_fmt(result.peak_eof_a)} at gt={_fmt(result.peak_gt_a)}\n"
                f"peak_eof_b={_fmt(result.peak_eof_b)} at gt={_fmt(result.peak_gt_b)}\n"
            )
        else:  # oracle-check, the last command argparse admits
            report = run_oracle_check(_config_from_args(args))
            summary = format_oracle_report(report)
            buf.write(summary)
            status = 0 if report.passed else 3
        if args.out is None:
            sys.stdout.write(buf.getvalue())
        else:
            try:
                with open(args.out, "w", newline="") as fh:
                    fh.write(buf.getvalue())
            except OSError as exc:
                raise ParameterError(f"cannot write {args.out}: {exc.strerror}") from exc
            sys.stdout.write(summary)
        return status
    except ParameterError as exc:
        print(f"cavent: configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"cavent: numerical error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # the field and the trig blocks are bounded, so only the grid outgrows memory
        print(f"cavent: configuration error: no memory for a grid of {args.steps} points",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
