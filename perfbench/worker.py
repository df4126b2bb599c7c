"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json LAUNCH_TIME

SPEC.json holds {"invocations": [argv, ...], "trace": bool,
"spans": path, "pass": int}.  LAUNCH_TIME is the parent's
CLOCK_MONOTONIC reading just before it started this process (the clock
is system-wide), so set-up time covers interpreter start-up and
`import pmdkit.cli`.  The pass result is printed as one JSON line.

Host speed probe: the host's cores slow down and speed up by up to 2x
within seconds, so the worker measures how fast its core is while it
works.  A SIGALRM interval timer runs `_probe`, a fixed interpreted
loop, every PROBE_INTERVAL_S and records how long the loop took; the
loop is run once untimed first, so that the timed run starts warm
whatever pmdkit did before.  The probes cost about 2% of a pass.  The
probe time of set-up and of the invocations goes into the record, and
run.py scales the two wall times by it.  It is the mean of the fastest
three quarters of the interval's probes: the slowest quarter are single
stalls rather than the core's speed, and leaving them out tracked the
pass times more closely than the median or the mean did.
"""

import signal
import time

PROBE_INTERVAL_S = 0.02
PROBES: list = []


def _probe(signum, frame):
    x = 1
    for _ in range(1000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    started = time.perf_counter()
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    PROBES.append(time.perf_counter() - started)


signal.signal(signal.SIGALRM, _probe)
signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

import pmdkit.cli  # noqa: E402  set-up time ends when this returns

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)
SETUP_PROBES = len(PROBES)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def probe_time(probes: list) -> float:
    """Mean of the fastest three quarters of an interval's probe times;
    of the whole pass's if the interval had none."""
    fastest = sorted(probes or PROBES)
    fastest = fastest[:max(1, len(fastest) * 3 // 4)]
    return sum(fastest) / len(fastest)


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    launched = float(sys.argv[2])
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    results = []
    clock = time.perf_counter_ns
    first_probe = len(PROBES)
    first = clock()
    for argv in spec["invocations"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pmdkit.cli.run(argv)
        results.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
    last = clock()
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"setup_s": IMPORTED - launched, "run_s": (last - first) / 1e9,
              "setup_probe_s": probe_time(PROBES[:SETUP_PROBES]),
              "run_probe_s": probe_time(PROBES[first_probe:]),
              "peak_rss_mb": rss_kb / 1024.0, "results": results}
    if tracer is not None:
        tracer.restore()
        record["leftover_wrappers"] = tracing.leftover_wrappers()
        record["trace"] = tracer.aggregate()
        tracer.write_jsonl(spec["spans"], spec["pass"], first)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
