"""Print the SHA-256 of every benchmark report, one line per invocation.

    python3 tools/report_digests.py [ROOT]

ROOT is a checkout of the repository (default: the one holding this
script).  The script imports pmdkit from ROOT/src and the benchmark's
workloads from ROOT/perfbench, writes each workload variant's inputs with
`workloads.make_invocations` (under ROOT/perfbench/out, as the benchmark
does), and runs all of them through `pmdkit.cli.run` in this one process
from ROOT, with one BLAS thread as the benchmark's workers have.  Each
line reads

    workload/variant/index rc=N stdout=SHA256 stderr=SHA256

so two checkouts print the same reports byte for byte exactly when the
diff of their outputs is empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit(__doc__)
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("PMDKIT_MAX_QUBITS", None)
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import pmdkit.cli
    import workloads
    if Path(pmdkit.__file__).resolve().parent != root / "src" / "pmdkit":
        sys.exit(f"imported pmdkit from {pmdkit.__file__}, not from {root / 'src'}")
    os.chdir(root)  # the invocations name their inputs relative to root
    for workload in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            invocations = workloads.make_invocations(workload, variant, root)
            for index, args in enumerate(invocations):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = pmdkit.cli.run(args)
                print(f"{workload}/{variant}/{index} rc={rc} "
                      f"stdout={_sha(out.getvalue())} stderr={_sha(err.getvalue())}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
