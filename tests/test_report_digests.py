"""Every benchmark invocation prints the report bytes recorded in
tools/report_digests.txt.

A change that moves report bytes writes the new output of
`python3 tools/report_digests.py` into that file and names each changed
line in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _by_invocation(text: str) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in text.splitlines())


def test_every_benchmark_report_keeps_its_recorded_digest():
    # A subprocess, so the tool pins one BLAS thread before numpy loads.
    # It writes its inputs under perfbench/out, as the benchmark does.
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digests.py")],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    want = _by_invocation((ROOT / "tools" / "report_digests.txt").read_text(encoding="utf-8"))
    got = _by_invocation(run.stdout)
    differing = [f"{name}: recorded {want.get(name)!r}, printed {got.get(name)!r}"
                 for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]
    assert not differing, "\n".join(differing)
