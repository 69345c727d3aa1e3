"""Point imports at this checkout's own cavent source, with one BLAS thread.

Every benchmark script imports this module before anything imports numpy or
cavent.  It caps BLAS/OpenMP at one thread for this process and every process
it starts, and makes sure `cavent` comes from `src/` next to this directory,
never from an installed copy: without that source the benchmark exits with a
non-zero status instead of measuring something else.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

if not (SRC / "cavent" / "cli.py").is_file():
    raise SystemExit(f"perfbench: no cavent source at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import cavent.cli as cli  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: imported cavent from {cli.__file__}, not from {SRC}")
