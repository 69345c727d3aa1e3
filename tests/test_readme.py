"""README.md's documented usage runs as written.

* the ```python block of the Library section executes in a fresh
  interpreter that finds `cavent` in `src/` alone, so a removed public name
  or a changed signature it uses fails here;
* the fixed-mean `cavent compare` command prints the peak prefixes that the
  README quotes next to it.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_library_example_runs(tmp_path):
    (example,) = fenced_blocks("python")
    proc = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True, cwd=tmp_path, env=ENV
    )
    assert proc.returncode == 0, proc.stderr
    concurrence, eof = map(float, proc.stdout.split())
    assert 0.0 < eof < concurrence < 1.0


def test_compare_prints_the_documented_peaks(tmp_path):
    (block,) = [b for b in fenced_blocks("sh") if "cavent compare" in b]
    command, comment = block.splitlines()[:2]
    quoted = re.findall(r"(peak_eof_[ab]=[0-9.]+?)\.\.\.", comment)
    assert len(quoted) == 2
    argv = shlex.split(command)
    assert argv[0] == "cavent"
    proc = subprocess.run(
        [sys.executable, "-m", "cavent", *argv[1:]],
        capture_output=True, text=True, cwd=tmp_path, env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    for line, prefix in zip(proc.stdout.splitlines(), quoted, strict=True):
        assert line.startswith(prefix)
