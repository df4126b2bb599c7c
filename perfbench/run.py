"""pmdkit end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Closed loop, one client: each pass is a
fresh worker interpreter that runs the workload's `pmdkit.cli.run`
invocations in order; the next pass starts after that worker exits.
Passes repeat until S seconds have gone by.  Every invocation of every
pass is checked against the per-seed reference and against its own
report bytes in the first pass.

The host's cores change speed by up to 2x, from one second to the next
and for minutes at a time, so a pass's wall time says as much about the
host as about pmdkit.  The worker therefore times a fixed probe every
20 ms while it runs (worker.py).  --trace 0 prints run_s and setup_s at
the reference speed: the median over the timed passes of the pass's
wall time x PROBE_REF_S / the probe time over that interval; and the
median peak RSS.
--trace 1 alternates untraced and traced passes and prints the
per-layer metrics from the traced ones.  Metric names and units come
from BENCHMARK.json.  The last line of stdout is the result JSON; a
readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

# BLAS threads for every worker, the same on every commit measured.  One
# thread: on a shared 2-core host, two spinning BLAS threads made
# per-pass times of the numpy-heavy workloads spread about twice as wide.
BLAS_THREADS = 1
# Every run must exit within 180 s; leave room for the last pass and output.
DEADLINE_S = 170.0
# The worker's probe time at the reference host speed (worker.py): a
# typical probe time on the 2-core host the baseline was recorded on.
# It only sets the scale, so that times at the reference speed read in
# seconds; it is the same on every commit.
PROBE_REF_S = 2.2e-4


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: error: {message}\n")
    sys.exit(2)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PMDKIT_MAX_QUBITS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_pass(spec: dict, spec_path: Path, timeout: float) -> dict:
    """Start one worker, wait for it to exit, return its record."""
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(launched)],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not out.strip():
        return {"error": f"worker exited {proc.returncode}: {err.strip()[-500:]}"}
    return json.loads(out.strip().splitlines()[-1])


def at_reference_speed(records: list[dict], key: str) -> float:
    """Median over passes of `key` scaled to the reference host speed by
    the probe time the worker measured over that interval."""
    probe = "run_probe_s" if key == "run_s" else "setup_probe_s"
    return median(r[key] * PROBE_REF_S / r[probe] for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "pmdkit" / "cli.py").is_file():
        fail(f"no pmdkit source under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import pmdkit
    if Path(pmdkit.__file__).resolve().parent != SRC / "pmdkit":
        fail(f"imported pmdkit from {pmdkit.__file__}, not from {SRC}")
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = config["per_layer"] if args.trace else config["end_to_end"]

    # Set-up, outside every timed region: inputs, references, the gate.
    variant = args.seed % workloads.VARIANTS
    invocations = workloads.make_invocations(args.workload, variant, ROOT)
    references = workloads.load_references(REFERENCES, args.workload, variant)
    if len(references) != len(invocations):
        fail("reference count does not match the workload's invocations")
    gate = workloads.Gate(references)
    out_dir = ROOT / workloads.OUT / args.workload
    spans_path = out_dir / "spans.jsonl"
    spans_path.write_text("", encoding="utf-8")

    attempted = failed = 0
    problems: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    pass_index = 0
    while True:
        trace = bool(args.trace) and pass_index % 2 == 1
        spec = {"invocations": invocations, "trace": trace,
                "spans": str(spans_path), "pass": pass_index}
        record = run_pass(spec, out_dir / "pass.json",
                          DEADLINE_S - (time.monotonic() - started))
        attempted += len(invocations)
        if "error" in record:
            failed += len(invocations)
            problems.append(f"pass {pass_index}: {record['error']}")
            break
        for i, (inv, res) in enumerate(zip(invocations, record["results"])):
            reasons = gate.check(i, inv, res["rc"], res["stdout"])
            if reasons:
                failed += 1
                stderr = res["stderr"].strip()[-300:]
                problems.append(f"pass {pass_index} {' '.join(inv[:2])}: "
                                + "; ".join(reasons[:3])
                                + (f" (stderr: {stderr})" if stderr else ""))
        if trace:
            if record["leftover_wrappers"]:
                problems.append(f"wrappers left after the traced pass: "
                                f"{record['leftover_wrappers'][:5]}")
            traced.append(record)
        else:
            untraced.append(record)
        pass_index += 1
        elapsed = time.monotonic() - started
        if elapsed >= args.seconds and untraced and (traced or not args.trace):
            break
        if elapsed >= DEADLINE_S / 2:  # another pass might miss the deadline
            break

    if args.trace and traced:
        counts = [{name: s["calls"] for name, s in r["trace"]["spans"].items()}
                  for r in traced]
        if any(c != counts[0] for c in counts):
            problems.append("span call counts differ between traced passes")
        values = tracing.layer_metrics(
            [m["name"] for m in wanted], [r["trace"] for r in traced],
            [r["run_s"] for r in traced],
            at_reference_speed(traced, "run_s") - at_reference_speed(untraced, "run_s"))
    elif untraced and not args.trace:
        values = {"run_s": at_reference_speed(untraced, "run_s"),
                  "setup_s": at_reference_speed(untraced, "setup_s"),
                  "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced)}
    else:
        values = {}

    for line in problems[:20]:
        sys.stderr.write(f"perfbench: FAIL {line}\n")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.stderr.write(f"perfbench: no measurement for {missing}\n")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        sys.stderr.write(f"  {name} = {metric['value']:.6g} {metric['unit']}\n")
    for label, records in (("untraced", untraced), ("traced", traced)):
        for key, scale in (("run_s", 1), ("setup_s", 1), ("run_probe_s", 1e6)):
            if records:
                sys.stderr.write(f"  {label} pass {key} x {scale:g}: "
                                 + " ".join(f"{r[key] * scale:.3f}" for r in records)
                                 + "\n")
    sys.stderr.write(f"  failed_share = {failed / attempted:.6g} "
                     f"({failed} of {attempted} invocations; variant {variant})\n")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
