"""The benchmark's own tests, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from pmdkit import cli

ROOT = Path(__file__).resolve().parent.parent

# Small stand-ins for each workload's invocations.
TINY = {
    "pmd-sweep": [["sweep", "--points", "2:1,4:2", "--format", "json"]],
    "keyed-sampled": [
        ["ptc", "check", "--n", "4", "--lambda", "2", "--samples", "100",
         "--seed", "4", "--format", "json"],
        ["pmd", "verify", "--n", "4", "--lambda", "2", "--samples", "20",
         "--seed", "4", "--format", "json"]],
    "nm-search": [["nm", "search", "--k", "1", "--n", "4", "--trials", "1",
                   "--seed", "3", "--format", "json"]],
}


def report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    assert rc == 0
    return buf.getvalue()


def tiny_erasure_auth():
    argv = workloads.make_invocations("erasure-auth", 3, ROOT)
    aqec = argv[0]
    aqec[aqec.index("--count") + 1] = "2"
    return argv[:2] + argv[-1:]


def invocations(name):
    return tiny_erasure_auth() if name == "erasure-auth" else TINY[name]


def spec(argv, tmp_path, trace=False):
    return {"invocations": argv, "trace": trace,
            "spans": str(tmp_path / "spans.jsonl"), "pass": 1}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_plumbing_passes_the_gate(name, tmp_path):
    argv = invocations(name)
    gate = workloads.Gate([workloads.observe(json.loads(report(a))) for a in argv])
    for _ in range(2):
        record = run.run_pass(spec(argv, tmp_path), tmp_path / "pass.json", 120)
        assert record["setup_s"] > 0 and record["run_s"] > 0
        assert record["setup_probe_s"] > 0 and record["run_probe_s"] > 0
        assert record["peak_rss_mb"] > 10
        for i, (a, res) in enumerate(zip(argv, record["results"])):
            assert gate.check(i, a, res["rc"], res["stdout"]) == []


def test_reference_speed_scales_out_the_host():
    # The same pass on a core at half speed: twice the wall time and
    # twice the probe time give the same time at the reference speed.
    fast = {"run_s": 2.0, "run_probe_s": run.PROBE_REF_S,
            "setup_s": 0.5, "setup_probe_s": run.PROBE_REF_S}
    slow = {"run_s": 4.0, "run_probe_s": 2 * run.PROBE_REF_S,
            "setup_s": 1.0, "setup_probe_s": 2 * run.PROBE_REF_S}
    assert run.at_reference_speed([fast], "run_s") == 2.0
    assert run.at_reference_speed([slow], "run_s") == 2.0
    assert run.at_reference_speed([slow, fast, slow], "setup_s") == 0.5


def test_workload_inputs_are_seeded():
    first = workloads.make_invocations("erasure-auth", 5, ROOT)
    attack = (ROOT / first[1][first[1].index("--attack") + 1]).read_text()
    again = workloads.make_invocations("erasure-auth", 5, ROOT)
    assert again == first
    assert (ROOT / again[1][again[1].index("--attack") + 1]).read_text() == attack
    other = workloads.make_invocations("erasure-auth", 6, ROOT)
    assert (ROOT / other[1][other[1].index("--attack") + 1]).read_text() != attack


def test_every_variant_has_references():
    refs = json.loads(run.REFERENCES.read_text())
    assert refs["variants"] == workloads.VARIANTS
    assert set(refs["workloads"]) == set(workloads.WORKLOADS)
    for name, variants in refs["workloads"].items():
        assert set(variants) == {str(v) for v in range(workloads.VARIANTS)}
    # The pinned searched code: eps_nm = 2/3 at seed 21 (variant 0).
    assert abs(float(refs["workloads"]["nm-search"]["0"][0]["epsilon_nm"]) - 2 / 3) <= 1e-9


@pytest.mark.parametrize("name,value", [
    ("epsilon_measured", "1/5"),            # a Fraction must match exactly
    ("epsilon", "0.500000000010"),          # PMD epsilon beyond 1e-12
])
def test_tampered_reference_fails_the_gate(name, value):
    argv = TINY["keyed-sampled"]
    texts = [report(a) for a in argv]
    refs = [workloads.observe(json.loads(t)) for t in texts]
    target = 0 if name in refs[0] else 1
    refs[target][name] = value
    gate = workloads.Gate(refs)
    assert gate.check(target, argv[target], 0, texts[target])


def test_gate_tolerates_last_digit_but_not_bytes_or_exit_codes():
    argv = TINY["keyed-sampled"][1]
    text = report(argv)
    ref = workloads.observe(json.loads(text))
    ref["epsilon"] = f"{float(ref['epsilon']) + 1e-12:.12f}"
    gate = workloads.Gate([ref])
    assert gate.check(0, argv, 0, text) == []
    assert gate.check(0, argv, 0, text.replace("\n", "\n ", 1))
    assert gate.check(0, argv, 1, text) == ["exit code 1"]


def test_gate_accepts_any_maximiser_but_not_a_wrong_argmax():
    from pmdkit.pmd import build_pmd, compressed_error_norm
    from pmdkit.ptc import build_bcgst_family
    from pmdkit.symplectic import PauliOperator

    argv = ["pmd", "verify", "--n", "2", "--lambda", "1", "--format", "json"]
    text = report(argv)
    ref = workloads.observe(json.loads(text))
    assert "argmax_pauli" not in ref
    label = json.loads(text)["extras"]["argmax_pauli"]
    pmd = build_pmd(build_bcgst_family(2, 1))
    others = [p.label() for p in (PauliOperator.from_symplectic_vector(pmd.total, v)
                                  for v in range(1, 4 ** pmd.total))
              if p.label() != label
              and abs(compressed_error_norm(pmd, p) - float(ref["epsilon"])) <= 1e-12]
    assert others, "the test needs a second maximiser"
    quoted = f'"{label}"'
    assert text.count(quoted) == 1
    # Another maximiser passes through the whole gate; a non-maximiser fails.
    assert workloads.Gate([ref]).check(0, argv, 0, text.replace(quoted, f'"{others[0]}"')) == []
    wrong = workloads.Gate([ref]).check(0, argv, 0, text.replace(quoted, f'"{"I" * len(label)}"'))
    assert wrong and "norm at argmax" in wrong[0]


def test_wrappers_cover_copied_bindings_and_are_removed():
    import pmdkit.aqec
    import pmdkit.pmd
    original = pmdkit.pmd.measure_pmd_epsilon
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.measure_pmd_epsilon is not original
        assert hasattr(pmdkit.aqec.auth_unitary, "__perfbench_span__")
        assert tracing.leftover_wrappers()
        report(["pmd", "verify", "--n", "2", "--lambda", "1", "--format", "json"])
    finally:
        tracer.restore()
    assert tracing.leftover_wrappers() == []
    assert cli.measure_pmd_epsilon is original
    assert pmdkit.pmd.measure_pmd_epsilon is original
    spans = tracer.aggregate()["spans"]
    assert spans["pmd.measure_pmd_epsilon"]["calls"] == 1
    assert spans["cli.run"]["calls"] == 1
    assert spans["symplectic.syndrome"]["calls"] > 0
    # Self time excludes child spans.
    run_span = spans["cli.run"]
    assert 0 <= run_span["self_s"] < run_span["s"]


def test_traced_pass_reports_layers_and_restores(tmp_path):
    argv = tiny_erasure_auth()
    record = run.run_pass(spec(argv, tmp_path, trace=True), tmp_path / "pass.json", 120)
    assert record["leftover_wrappers"] == []
    agg = record["trace"]
    assert agg["spans"]["pmd.auth_unitary"]["calls"] >= 1
    assert agg["distinct"]["pmd.auth_unitary"] == 1
    # Time under cli.run's children only: its own self time is a gap.
    envelope = agg["spans"]["cli.run"]
    assert agg["attributed_s"] <= envelope["s"] - envelope["self_s"] + 1e-9
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == sum(span["calls"] for span in agg["spans"].values())
    first = json.loads(lines[0])
    assert set(first) == {"pass", "id", "name", "start", "end", "parent"}
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in config["per_layer"]]
    values = tracing.layer_metrics(names, [agg], [record["run_s"]], 0.0)
    assert set(values) == set(names)
    assert values["trace.unattributed_share"] < 0.1


def test_nm_distinct_share_counts_decode_tables(tmp_path):
    argv = TINY["nm-search"]
    record = run.run_pass(spec(argv, tmp_path, trace=True), tmp_path / "pass.json", 120)
    agg = record["trace"]
    calls = agg["spans"]["auth.nm_decompose"]["calls"]
    assert calls == 4 ** 4
    assert 0 < agg["distinct"]["auth.nm_decompose"] < calls


def test_per_layer_metrics_name_traced_spans():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    special = set(tracing.RATES) | {"trace.unattributed_share", "trace.overhead_s"}
    for metric in config["per_layer"]:
        name = metric["name"]
        if name in special:
            continue
        span, _, stat = name.rpartition(".")
        assert span in tracing.TARGETS, name
        assert stat in ("calls", "s", "self_s", "distinct_share"), name
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pmd-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
