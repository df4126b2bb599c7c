"""Record the exact answers of every workload variant in references.json.

    PYTHONPATH=src python3 perfbench/make_references.py [--workload NAME ...]

Run this only at the commit whose answers are the baseline: the
benchmark counts any later difference as a failed invocation.  Besides
recording, it checks the answers that have an independent oracle or a
pinned value: every report passes its own checks, the substitution
attack's wrong-accept probability equals `substitution_overlap_oracle`,
the sampled PMD argmax attains the reported epsilon, and the seed-21
searched non-malleable code has eps_nm = 2/3.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from pmdkit import cli  # noqa: E402


def _oracle_checks(argv: list[str], payload: dict, gate: workloads.Gate) -> None:
    command = payload["command"]
    if not payload["passed"]:
        raise AssertionError(f"{' '.join(argv)}: a check failed")
    if command == "pmd verify":
        problems = gate.check_argmax(argv, payload)
        if problems:
            raise AssertionError(problems)
    if command == "nm search" and argv[argv.index("--seed") + 1] == str(workloads.NM_SEED):
        eps = float(payload["checks"][0]["value"])
        if abs(eps - 2 / 3) > 1e-9:
            raise AssertionError(f"seed {workloads.NM_SEED}: eps_nm {eps} != 2/3")
    if command == "auth simulate" and payload["config"]["protocol"] == "third":
        from pmdkit.aqec import compose
        from pmdkit.auth import (Auth13Protocol, substitution_attack,
                                 substitution_overlap_oracle, systematic_parity_nm)
        from pmdkit.pmd import build_pmd
        from pmdkit.ptc import build_bcgst_family
        from pmdkit.symplectic import parse_code

        outer = parse_code((ROOT / payload["config"]["outer"]).read_text(encoding="utf-8"))
        proto = Auth13Protocol(compose(build_pmd(build_bcgst_family(2, 1)), outer),
                               systematic_parity_nm(2 * outer.n))
        key = json.loads((ROOT / payload["config"]["attack"]).read_text())["key"]
        _, _, marginals = substitution_attack(proto, key)
        _, wrong = substitution_overlap_oracle(proto, marginals, key)
        got = float(payload["checks"][0]["value"])
        if abs(got - wrong) > workloads.FLOAT_TOL:
            raise AssertionError(f"key {key}: p_accept_wrong {got} != oracle {wrong}")


def record(workload: str, variant: int) -> list[dict]:
    invocations = workloads.make_invocations(workload, variant, ROOT)
    gate = workloads.Gate([])
    out = []
    for argv in invocations:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
        if rc != 0:
            raise AssertionError(f"{' '.join(argv)}: exit code {rc}")
        payload = json.loads(buf.getvalue())
        _oracle_checks(argv, payload, gate)
        out.append(workloads.observe(payload))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="re-record only these workloads (default: all)")
    args = parser.parse_args()
    path = HERE / "references.json"
    refs = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
            else {"variants": workloads.VARIANTS, "workloads": {}})
    os.chdir(ROOT)
    for name in args.workload or list(workloads.WORKLOADS):
        refs["workloads"][name] = {}
        for variant in range(workloads.VARIANTS):
            refs["workloads"][name][str(variant)] = record(name, variant)
            sys.stderr.write(f"{name} variant {variant} recorded\n")
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
