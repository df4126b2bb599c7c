import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pmdkit
from pmdkit.auth import systematic_parity_nm
from pmdkit.cli import run

FOUR22_TEXT = "n=4 k=2\nXXXX\nZZZZ\n"
SEVEN6_TEXT = "n=7 k=6\nZZZZZZZ\n"


def invoke(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_pmd_verify_passes(capsys):
    rc, out, _ = invoke(capsys, ["pmd", "verify", "--n", "2", "--lambda", "1"])
    assert rc == 0
    assert "[PASS] epsilon" in out
    assert "RESULT: ok" in out


def test_unknown_flag_exits_2(capsys):
    rc, _, _ = invoke(capsys, ["pmd", "verify", "--n", "2", "--bogus"])
    assert rc == 2


def test_unknown_command_exits_2(capsys):
    rc, _, _ = invoke(capsys, ["frobnicate"])
    assert rc == 2


def test_ptc_check_json_format(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    rc, _, _ = invoke(capsys, ["ptc", "check", "--n", "2", "--lambda", "1",
                               "--format", "json", "--out", str(out_file)])
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["passed"] is True
    assert payload["checks"][0]["name"] == "epsilon_measured"
    # Every pass/fail cites the bound it checked.
    assert all(c["bound_expr"] for c in payload["checks"])


def test_qlde_decode_prints_paulis(capsys, tmp_path):
    code_file = tmp_path / "code.txt"
    code_file.write_text(FOUR22_TEXT)
    rc, out, _ = invoke(capsys, ["qlde", "decode", "--code", str(code_file),
                                 "--erased", "0,1", "--syndrome", "00"])
    assert rc == 0
    assert out.splitlines() == ["IIII", "ZZII", "XXII", "YYII"]


def test_qlde_decode_rejects_bad_code_file(capsys, tmp_path):
    code_file = tmp_path / "bad.txt"
    code_file.write_text("n=2 k=1\nXZ\nZX\n")  # dependent after reduction? no: anticommuting pair
    code_file.write_text("n=1 k=-1\nX\nZ\n")
    rc, _, err = invoke(capsys, ["qlde", "decode", "--code", str(code_file),
                                 "--erased", "", "--syndrome", "00"])
    assert rc == 2
    assert "anticommute" in err


def test_qlde_profile_bound_negative_control(capsys, tmp_path):
    # [[4,2,2]] has profile 4 at half erasures; demanding 1 must fail.
    code_file = tmp_path / "code.txt"
    code_file.write_text(FOUR22_TEXT)
    rc, out, _ = invoke(capsys, ["qlde", "profile", "--code", str(code_file),
                                 "--delta", "0.5", "--max-list", "1"])
    assert rc == 1
    assert "[FAIL]" in out
    rc, _, _ = invoke(capsys, ["qlde", "profile", "--code", str(code_file),
                               "--delta", "0.5", "--max-list", "4"])
    assert rc == 0


def test_qlde_sample_css_roundtrip(capsys, tmp_path):
    out_code = tmp_path / "sampled.txt"
    rc, out, _ = invoke(capsys, ["qlde", "sample-css", "--n", "6", "--k", "2", "--seed", "9",
                                 "--out-code", str(out_code), "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["checks"] == [] and payload["extras"]["realized_k"] == 2
    rc2, out, _ = invoke(capsys, ["qlde", "profile", "--code", str(out_code),
                                  "--delta", "0.17"])
    assert rc2 == 0


def test_qlde_sample_css_refuses_more_than_64_qubits(capsys):
    rc, out, err = invoke(capsys, ["qlde", "sample-css", "--n", "66", "--k", "2"])
    assert rc == 2 and out == ""
    assert ("draws each vector as one 64-bit word and needs n <= 64, got n = 66"
            in err)
    rc, out, _ = invoke(capsys, ["qlde", "sample-css", "--n", "64", "--k", "2",
                                 "--seed", "1", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["extras"]["realized_k"] == 2


def test_one_parser_serves_a_whole_process_like_fresh_ones(tmp_path):
    # The parser is built once per process: an error exit, a run and the
    # help texts in one interpreter print what they print one per fresh one.
    (tmp_path / "code.txt").write_text(FOUR22_TEXT)
    argvs = [["qlde", "decode", "--code"],
             ["qlde", "decode", "--code", "code.txt", "--erased", "0,1", "--syndrome", "00"],
             ["--help"],
             ["qlde", "decode", "--help"]]
    env = dict(os.environ, COLUMNS="80")
    src = str(Path(pmdkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import contextlib, io, json, sys\n"
              "from pmdkit.cli import run\n"
              "results = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "        rc = run(argv)\n"
              "    results.append([rc, out.getvalue(), err.getvalue()])\n"
              "print(json.dumps(results))\n")
    one = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                         cwd=tmp_path, capture_output=True, text=True, check=True)
    fresh = [subprocess.run([sys.executable, "-m", "pmdkit"] + argv, env=env, cwd=tmp_path,
                            capture_output=True, text=True) for argv in argvs]
    assert json.loads(one.stdout) == [[p.returncode, p.stdout, p.stderr] for p in fresh]
    assert [p.returncode for p in fresh] == [2, 0, 0, 0]
    assert fresh[1].stdout.splitlines() == ["IIII", "ZZII", "XXII", "YYII"]


def test_aqec_simulate_seeded_sweep_deterministic(capsys, tmp_path):
    outer = tmp_path / "outer.txt"
    outer.write_text(SEVEN6_TEXT)
    argv = ["aqec", "simulate", "--pmd-n", "4", "--pmd-lambda", "2",
            "--outer", str(outer), "--count", "3", "--seed", "5",
            "--format", "json"]
    rc1, out1, _ = invoke(capsys, argv)
    rc2, out2, _ = invoke(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical reports for identical config+seed


def test_aqec_simulate_reports_do_not_depend_on_earlier_codes(capsys, tmp_path):
    # Cascades are memoized per composed code: a run with another outer
    # code in between must not change the first run's bytes.
    seven, other = tmp_path / "outer.txt", tmp_path / "other.txt"
    seven.write_text(SEVEN6_TEXT)
    other.write_text("n=7 k=6\nXXXXXXX\n")
    def argv(outer):
        return ["aqec", "simulate", "--pmd-n", "4", "--pmd-lambda", "2", "--outer",
                str(outer), "--count", "20", "--seed", "606", "--format", "json"]

    rc1, out1, _ = invoke(capsys, argv(seven))
    rc2, out2, _ = invoke(capsys, argv(other))
    rc3, out3, _ = invoke(capsys, argv(seven))
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out3
    # The middle run matches the same run in a fresh interpreter, where no
    # earlier code exists to leak from.
    env = dict(os.environ)
    src = str(Path(pmdkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-m", "pmdkit"] + argv(other), env=env,
                           capture_output=True, text=True)
    assert fresh.returncode == 0
    assert fresh.stdout == out2 != out1


def test_aqec_simulate_refuses_wide_erasures_before_building_them(tmp_path):
    # Budget 7 on [[7,6]]∘PMD(4,2) draws erased sets of up to 7 qubits, whose
    # erased states would need up to 23 qubits (128 MB per vector); from 3
    # qubits on they are refused by the size guard before any is built.
    # Pairs (13 qubits) are scored, with their 8-entry lists.
    outer = tmp_path / "outer.txt"
    outer.write_text(SEVEN6_TEXT)
    env = dict(os.environ)
    src = str(Path(pmdkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # VmHWM is the peak RSS of this process image alone: ru_maxrss would
    # also count the memory of the test process that spawned it.
    script = ("import re, sys\n"
              "from pmdkit.cli import run\n"
              "rc = run(sys.argv[1:])\n"
              "status = open('/proc/self/status').read()\n"
              "print(rc, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1), file=sys.stderr)\n")
    argv = ["aqec", "simulate", "--pmd-n", "4", "--pmd-lambda", "2", "--outer", str(outer),
            "--count", "20", "--budget", "7", "--seed", "2"]
    proc = subprocess.run([sys.executable, "-c", script] + argv, env=env,
                          capture_output=True, text=True)
    rc, max_rss = proc.stderr.split()[-2:]
    assert rc == "1"
    assert int(max_rss) < 100 * 1024  # kB
    assert "erased state needs 23 qubits" in proc.stdout
    assert "algorithm2_unitary" not in proc.stdout
    assert "fidelity[seeded[3]]: 0.684238711095" in proc.stdout
    assert "'list': 8" in proc.stdout


def test_aqec_simulate_adversary_file(capsys, tmp_path):
    outer = tmp_path / "outer.txt"
    outer.write_text(SEVEN6_TEXT)
    adv = {
        "n": 7,
        "max_erased": 1,
        "mode": "nonadaptive",
        "branches": [{"support": [2],
                      "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}],
    }
    adv_file = tmp_path / "adv.json"
    adv_file.write_text(json.dumps(adv))
    rc, out, _ = invoke(capsys, ["aqec", "simulate", "--pmd-n", "4",
                                 "--pmd-lambda", "2", "--outer", str(outer),
                                 "--adversary", str(adv_file)])
    assert rc == 0
    assert "fidelity[file]" in out
    # The file's max_erased governs: no budget or seed is recorded.
    assert f"adversary = {adv_file}" in out
    assert "budget =" not in out and "seed =" not in out


@pytest.mark.parametrize("option, value", [
    ("--budget", "1"), ("--count", "40"), ("--seed", "0"),
])
def test_aqec_simulate_adversary_file_refuses_seeded_options(capsys, tmp_path, option,
                                                             value):
    outer = tmp_path / "outer.txt"
    outer.write_text(SEVEN6_TEXT)
    adv_file = tmp_path / "adv.json"
    adv_file.write_text(json.dumps({"n": 7, "max_erased": 1, "branches": [
        {"support": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}))
    rc, out, err = invoke(capsys, ["aqec", "simulate", "--pmd-n", "4",
                                   "--pmd-lambda", "2", "--outer", str(outer),
                                   "--adversary", str(adv_file), option, value])
    assert rc == 2 and out == ""
    assert f"{option} is not read with --adversary" in err


@pytest.mark.parametrize("option, value, message", [
    ("--budget", "0", "--budget must be in 1..7, got 0"),
    ("--budget", "-3", "--budget must be in 1..7, got -3"),
    ("--budget", "9", "--budget must be in 1..7, got 9"),
    ("--count", "0", "--count must be at least 1, got 0"),
    ("--count", "-2", "--count must be at least 1, got -2"),
])
def test_aqec_simulate_refuses_budget_and_count_out_of_range(capsys, tmp_path, option,
                                                            value, message):
    outer = tmp_path / "outer.txt"
    outer.write_text(SEVEN6_TEXT)
    argv = ["aqec", "simulate", "--pmd-n", "4", "--pmd-lambda", "2",
            "--outer", str(outer), "--count", "2", option, value]
    rc, out, err = invoke(capsys, argv)
    assert rc == 2 and out == ""
    assert message in err
    # The ends of the range run; seed 0 draws two one-qubit erasures.
    argv[-1] = {"--budget": "7", "--count": "1"}[option]
    rc, out, _ = invoke(capsys, argv)
    assert rc == 0 and "RESULT: ok" in out


def test_auth_simulate_attack_file(capsys, tmp_path):
    outer = tmp_path / "outer.txt"
    outer.write_text("n=4 k=3\nXXXX\n")
    ident = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    attack = {"wires": [[eye]] * 4, "classical": ["keep"] * 10}
    attack_file = tmp_path / "attack.json"
    attack_file.write_text(json.dumps(attack))
    rc, out, _ = invoke(capsys, ["auth", "simulate", "--protocol", "third",
                                 "--pmd-n", "2", "--pmd-lambda", "1",
                                 "--outer", str(outer),
                                 "--attack", str(attack_file)])
    assert rc == 0
    assert "p_accept: 1.000000000000" in out


@pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("protocol, outer_text, wires, tags", [
    ("third", "n=4 k=3\nXXXX\n", 4, 10), ("rate1", "n=2 k=1\nXX\n", 8, 18)],
    ids=["third", "rate1"])
def test_auth_simulate_refuses_a_non_finite_wire(capsys, tmp_path, entry, protocol,
                                                 outer_text, wires, tags):
    # json writes NaN and Infinity, and the reader takes them; the wire's
    # CPTP check refuses them (exit 2) before any state is built.
    outer = tmp_path / "outer.txt"
    outer.write_text(outer_text)
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    bad = [[[1, 0], [0, 0]], [[entry, 0], [1, 0]]]
    attack = _write_json(tmp_path, "attack.json", {
        "wires": [[eye], [bad]] + [[eye]] * (wires - 2), "classical": ["keep"] * tags})
    rc, out, err = invoke(capsys, ["auth", "simulate", "--protocol", protocol,
                                   "--pmd-n", "2", "--pmd-lambda", "1",
                                   "--outer", str(outer), "--attack", attack])
    assert rc == 2 and out == ""
    assert "1: Kraus operators are not trace preserving" in err


def test_auth_simulate_third_fails_above_eps_squared(capsys, tmp_path, monkeypatch):
    from pmdkit import cli
    from pmdkit.auth import AttackReport
    outer = tmp_path / "outer.txt"
    outer.write_text("n=4 k=3\nXXXX\n")
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    attack_file = tmp_path / "attack.json"
    attack_file.write_text(json.dumps({"wires": [[eye]] * 4, "classical": ["keep"] * 10}))
    argv = ["auth", "simulate", "--protocol", "third", "--pmd-n", "2",
            "--pmd-lambda", "1", "--outer", str(outer), "--attack", str(attack_file)]
    # eps^2 is 0.5 at (2,1); 0.6 wrongly accepted breaks criterion 8.
    monkeypatch.setattr(cli, "auth13_attack_harness",
                        lambda *args: AttackReport(0.7, 0.6, 0.3, 0.14))
    rc, out, _ = invoke(capsys, argv)
    assert rc == 1
    assert "[FAIL] p_accept_wrong: 0.600000000000" in out


def test_auth_simulate_rate1(capsys, tmp_path):
    import math
    outer = tmp_path / "outer.txt"
    outer.write_text("n=2 k=1\nXX\n")
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    s = 1 / math.sqrt(2)
    half_x = [[[[s, 0], [0, 0]], [[0, 0], [s, 0]]],
              [[[0, 0], [s, 0]], [[s, 0], [0, 0]]]]
    attack = {"wires": [half_x] * 4 + [[eye]] * 4, "classical": ["keep"] * 18}
    att = tmp_path / "attack.json"
    att.write_text(json.dumps(attack))
    rc, out, _ = invoke(capsys, ["auth", "simulate", "--protocol", "rate1",
                                 "--pmd-n", "2", "--pmd-lambda", "1",
                                 "--outer", str(outer), "--attack", str(att)])
    assert rc == 0
    assert "[PASS] completeness: 1.000000000000" in out
    assert "block_0_reject: 0.875000000000" in out


def test_nm_search_verify_roundtrip(capsys, tmp_path):
    nm_file = tmp_path / "nm.json"
    rc, out, _ = invoke(capsys, ["nm", "search", "--k", "1", "--n", "4",
                                 "--trials", "1", "--seed", "3",
                                 "--out-nm", str(nm_file)])
    assert rc == 0
    rc2, out2, _ = invoke(capsys, ["nm", "verify", "--nm", str(nm_file)])
    assert rc2 == 0
    assert "epsilon_nm" in out2


def test_nm_verify_reports_the_exact_epsilon_of_the_seed21_winner(capsys, tmp_path):
    nm_file = tmp_path / "nm.json"
    rc, out, _ = invoke(capsys, ["nm", "search", "--k", "2", "--n", "5", "--trials", "2",
                                 "--seed", "21", "--out-nm", str(nm_file)])
    assert rc == 0 and "[PASS] epsilon_nm: 0.666666666667" in out
    rc, out, _ = invoke(capsys, ["nm", "verify", "--nm", str(nm_file), "--format", "json"])
    assert rc == 0
    assert json.loads(out)["extras"] == {"epsilon_nm": "0.666666666667",
                                         "epsilon_nm_exact": "2/3"}


@pytest.mark.parametrize("protocol, option", [("rate1", "--nm"), ("third", "--inner")])
def test_auth_simulate_refuses_an_option_its_protocol_never_reads(capsys, tmp_path,
                                                                   protocol, option):
    outer = tmp_path / "outer.txt"
    outer.write_text("n=4 k=3\nXXXX\n")
    rc, out, err = invoke(capsys, ["auth", "simulate", "--protocol", protocol,
                                   "--pmd-n", "2", "--pmd-lambda", "1", "--outer", str(outer),
                                   "--attack", "attack.json", option, "does-not-exist"])
    assert rc == 2 and out == ""
    assert f"{option} is not read by --protocol {protocol}" in err


def test_auth_simulate_rate1_attack_without_classical(capsys, tmp_path):
    outer = tmp_path / "outer.txt"
    outer.write_text("n=2 k=1\nXX\n")
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    argv = ["auth", "simulate", "--protocol", "rate1", "--pmd-n", "2", "--pmd-lambda", "1",
            "--outer", str(outer), "--format", "json", "--attack"]
    with_classical = _write_json(tmp_path, "a.json", {"wires": [[eye]] * 8,
                                                      "classical": ["keep"] * 18})
    without = _write_json(tmp_path, "b.json", {"wires": [[eye]] * 8})
    rc1, out1, _ = invoke(capsys, argv + [with_classical])
    rc2, out2, _ = invoke(capsys, argv + [without])
    assert rc1 == rc2 == 0
    first, second = json.loads(out1), json.loads(out2)
    assert first["config"].pop("attack") == with_classical
    assert second["config"].pop("attack") == without
    assert first == second and first["passed"]

def test_auth_simulate_wrong_length_tampering_exits_2(capsys, tmp_path):
    outer = tmp_path / "outer.txt"
    outer.write_text("n=4 k=3\nXXXX\n")
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    attack_file = tmp_path / "attack.json"
    attack_file.write_text(json.dumps({"wires": [[eye]] * 4, "classical": ["flip"] * 3}))
    rc, out, err = invoke(capsys, ["auth", "simulate", "--protocol", "third",
                                   "--pmd-n", "2", "--pmd-lambda", "1",
                                   "--outer", str(outer), "--attack", str(attack_file)])
    assert rc == 2 and out == ""
    assert "arity" in err


def test_nm_verify_out_of_range_record_exits_2(capsys, tmp_path):
    nm_file = tmp_path / "nm.json"
    nm_file.write_text(json.dumps({"k": 1, "n": 2, "rand_bits": 0,
                                   "encode": {"0,0": 0, "1,0": 9},
                                   "decode": {"0": 0, "9": 1}}))
    rc, out, err = invoke(capsys, ["nm", "verify", "--nm", str(nm_file)])
    assert rc == 2 and out == ""
    assert "decode entries need words in [0, 2^2)" in err


def _write_json(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def test_nm_file_missing_field_exits_2(capsys, tmp_path):
    nm = _write_json(tmp_path, "nm.json", {"k": 1, "n": 2, "rand_bits": 0,
                                           "decode": {"0": 0}})
    rc, _, err = invoke(capsys, ["nm", "verify", "--nm", nm])
    assert rc == 2
    assert f"{nm}: missing field 'encode'" in err


def test_attack_file_missing_field_exits_2(capsys, tmp_path):
    outer = tmp_path / "outer.txt"
    outer.write_text("n=4 k=3\nXXXX\n")
    attack = _write_json(tmp_path, "attack.json", {"classical": ["keep"] * 10})
    rc, _, err = invoke(capsys, ["auth", "simulate", "--protocol", "third",
                                 "--pmd-n", "2", "--pmd-lambda", "1",
                                 "--outer", str(outer), "--attack", attack])
    assert rc == 2
    assert f"{attack}: missing field 'wires'" in err


def test_adversary_file_missing_field_exits_2(capsys, tmp_path):
    outer = tmp_path / "outer.txt"
    outer.write_text(SEVEN6_TEXT)
    adv = _write_json(tmp_path, "adv.json", {"n": 7, "max_erased": 1})
    rc, _, err = invoke(capsys, ["aqec", "simulate", "--pmd-n", "4", "--pmd-lambda", "2",
                                 "--outer", str(outer), "--adversary", adv])
    assert rc == 2
    assert f"{adv}: missing field 'branches'" in err


def test_adversary_file_of_another_block_length_exits_2(capsys, tmp_path):
    outer = tmp_path / "outer.txt"
    outer.write_text(SEVEN6_TEXT)
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    adv = _write_json(tmp_path, "adv.json", {"n": 5, "max_erased": 1, "branches": [
        {"support": [2], "matrix": eye}]})
    rc, out, err = invoke(capsys, ["aqec", "simulate", "--pmd-n", "4", "--pmd-lambda", "2",
                                   "--outer", str(outer), "--adversary", adv])
    assert rc == 2 and out == ""
    assert f"{adv}: field 'n' is 5, the outer code has n = 7" in err


def test_nm_file_wrong_type_exits_2(capsys, tmp_path):
    nm = _write_json(tmp_path, "nm.json", {"k": 1, "n": 2, "rand_bits": 0,
                                           "encode": [0, 1], "decode": {"0": 0}})
    rc, out, err = invoke(capsys, ["nm", "verify", "--nm", nm])
    assert rc == 2 and out == ""
    assert f"{nm}: field 'encode' has the wrong JSON type" in err


@pytest.mark.parametrize("attack, message", [
    ({"wires": 5, "classical": ["keep"] * 10}, "field 'wires' has the wrong JSON type"),
    ({"wires": [[[[["1", 0]]]]] * 4, "classical": ["keep"] * 10},
     "field 'wires' must hold matrices of [re, im] pairs"),
], ids=["wires-not-array", "kraus-entry-string"])
def test_attack_file_wrong_type_exits_2(capsys, tmp_path, attack, message):
    outer = tmp_path / "outer.txt"
    outer.write_text("n=4 k=3\nXXXX\n")
    path = _write_json(tmp_path, "attack.json", attack)
    rc, out, err = invoke(capsys, ["auth", "simulate", "--protocol", "third",
                                   "--pmd-n", "2", "--pmd-lambda", "1",
                                   "--outer", str(outer), "--attack", path])
    assert rc == 2 and out == ""
    assert f"{path}: {message}" in err


def test_adversary_file_wrong_type_exits_2(capsys, tmp_path):
    outer = tmp_path / "outer.txt"
    outer.write_text(SEVEN6_TEXT)
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    adv = _write_json(tmp_path, "adv.json", {"n": 7, "max_erased": 1, "branches": [
        {"matrix": eye, "support": ["0"]}]})
    rc, out, err = invoke(capsys, ["aqec", "simulate", "--pmd-n", "4", "--pmd-lambda", "2",
                                   "--outer", str(outer), "--adversary", adv])
    assert rc == 2 and out == ""
    assert f"{adv}: field 'support' has the wrong JSON type" in err


@pytest.mark.parametrize("argv", [
    ["qlde", "decode", "--code", "code.txt", "--syndrome", "00"],
    ["qlde", "profile", "--code", "code.txt", "--delta", "0.5"],
    ["nm", "verify", "--nm", "nm.json"],
    ["auth", "simulate", "--protocol", "third", "--pmd-n", "2", "--pmd-lambda", "1",
     "--outer", "outer.txt", "--attack", "attack.json"],
    ["sweep", "--points", "2:1"],
])
def test_unseeded_commands_refuse_seed(capsys, argv):
    rc, out, err = invoke(capsys, argv + ["--seed", "1"])
    assert rc == 2 and out == ""
    assert "unrecognized arguments: --seed 1" in err


@pytest.mark.parametrize("command", [["ptc", "check"], ["pmd", "verify"]])
def test_exhaustive_runs_refuse_seed_and_record_none(capsys, command):
    argv = command + ["--n", "4", "--lambda", "2", "--format", "json"]
    rc, out, err = invoke(capsys, argv + ["--seed", "0"])
    assert rc == 2 and out == ""
    assert "--seed is not read without --samples" in err
    rc, out, _ = invoke(capsys, argv)
    assert rc == 0 and json.loads(out)["seed"] is None
    rc, out, _ = invoke(capsys, argv + ["--samples", "5", "--seed", "3"])
    assert rc == 0 and json.loads(out)["seed"] == 3


def test_nm_verify_and_qlde_decode_report_values_not_checks(capsys, tmp_path):
    nm = _write_json(tmp_path, "nm.json", systematic_parity_nm(1).to_record())
    rc, out, _ = invoke(capsys, ["nm", "verify", "--nm", nm, "--format", "json"])
    payload = json.loads(out)
    assert rc == 0 and payload["checks"] == [] and payload["passed"] is True
    assert payload["extras"] == {"epsilon_nm": "0.500000000000", "epsilon_nm_exact": "1/2"}
    code_file = tmp_path / "code.txt"
    code_file.write_text(FOUR22_TEXT)
    rc, out, _ = invoke(capsys, ["qlde", "decode", "--code", str(code_file),
                                 "--erased", "0,1", "--syndrome", "00", "--format", "json"])
    payload = json.loads(out)
    assert rc == 0 and payload["checks"] == [] and payload["passed"] is True
    assert payload["extras"] == {"list_size": 4,
                                 "corrections": ["IIII", "ZZII", "XXII", "YYII"]}


@pytest.mark.parametrize("argv", [
    ["pmd", "verify", "--n", "4", "--lambda", "2", "--samples", "5"],
    ["nm", "search", "--k", "1", "--n", "4", "--trials", "1"],
])
def test_omitted_seed_defaults_to_zero(capsys, argv):
    argv = argv + ["--format", "json"]
    _, first, _ = invoke(capsys, argv)
    _, again, _ = invoke(capsys, argv)
    _, seeded, _ = invoke(capsys, argv + ["--seed", "0"])
    assert first == again == seeded
    assert json.loads(first)["seed"] == 0


def test_python_dash_m_entry_points():
    env = dict(os.environ)
    src = str(Path(pmdkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    for module in ("pmdkit", "pmdkit.cli"):
        helped = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                                capture_output=True, text=True)
        assert helped.returncode == 0
        assert helped.stdout.startswith("usage: pmdkit")
        bare = subprocess.run([sys.executable, "-m", module], env=env,
                              capture_output=True)
        assert bare.returncode == 2


def test_sweep_csv_and_empty(capsys):
    rc, out, _ = invoke(capsys, ["sweep", "--points", "2:1,4:2",
                                 "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,lam,epsilon")
    assert len(lines) == 3
    rc2, out2, _ = invoke(capsys, ["sweep", "--points", "", "--format", "csv"])
    assert rc2 == 0
    assert out2.strip().splitlines() == ["n,lam,epsilon,eps_ptc,delta,bound,status"]


@pytest.mark.parametrize("points,token", [
    ("6", "'6'"), ("a:b", "'a:b'"), ("2:1,,4:2", "''"), ("2:1:3", "'2:1:3'"),
])
def test_sweep_rejects_malformed_points_token(capsys, points, token):
    rc, out, err = invoke(capsys, ["sweep", "--points", points])
    assert rc == 2 and out == ""
    assert f"--points token {token} is not of the form n:lambda" in err


def test_sweep_flags_partial_failure_and_continues(capsys):
    # 5:2 is invalid (2 does not divide 5); the sweep records the error
    # and still completes the remaining grid points.
    rc, out, _ = invoke(capsys, ["sweep", "--points", "5:2,2:1",
                                 "--format", "csv"])
    assert rc == 1  # a point that was not measured fails the run
    lines = out.strip().splitlines()
    assert any("error" in line for line in lines)
    assert any(line.startswith("2,1") for line in lines)


@pytest.mark.parametrize("command", [["pmd", "verify"], ["ptc", "check"]])
def test_block_length_below_key_length_is_refused(capsys, command):
    rc, out, err = invoke(capsys, command + ["--n", "0", "--lambda", "1"])
    assert rc == 2 and out == ""
    assert "block length n must be a positive multiple of the key length" in err
    assert "identity" not in err


def test_sweep_point_with_block_length_below_key_length_fails(capsys):
    rc, out, _ = invoke(capsys, ["sweep", "--points", "0:1", "--format", "json"])
    assert rc == 1
    row, = json.loads(out)["extras"]["rows"]
    assert row["status"] == ("error: block length n must be a positive multiple "
                             "of the key length lambda, got n=0, lambda=1")


def test_sweep_refuses_repeated_points(capsys):
    rc, out, err = invoke(capsys, ["sweep", "--points", "2:1,4:2,2:1"])
    assert rc == 2 and out == ""
    assert "--points repeats the point 2:1" in err


def test_csv_rows_quote_fields_with_commas(capsys):
    # The refusal message and the lemma bound's expression contain commas.
    rc, out, _ = invoke(capsys, ["sweep", "--points", "2:1,8:2", "--format", "csv"])
    assert rc == 1
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) == 3 and all(len(row) == 7 for row in rows)
    assert rows[2][6].startswith("error: exhaustive detection sweep")
    assert out.splitlines()[1] == ",".join(rows[1])  # no comma, no quotes
    rc, out, _ = invoke(capsys, ["pmd", "verify", "--n", "2", "--lambda", "1",
                                 "--format", "csv"])
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert [len(row) for row in rows] == [5, 5]
    assert rows[1][2] == "max(eps_ptc, sqrt(2^-lam + delta))"


def test_sweep_refused_point_fails_the_run(capsys):
    rc, out, _ = invoke(capsys, ["sweep", "--points", "2:1,8:2"])
    assert rc == 1
    assert "[PASS] pmd[2,1]" in out and "[FAIL] pmd[8,2]" in out
    assert "pmdkit pmd verify --n 8 --lambda 2 --samples N --seed S" in out
    assert "RESULT: FAILED" in out


def test_ptc_check_sampling_refuses_words_wider_than_64_bits(capsys):
    rc, _, err = invoke(capsys, ["ptc", "check", "--n", "34", "--lambda", "2",
                                 "--samples", "10"])
    assert rc == 2
    assert "needs n <= 32" in err


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # nm search and nm verify solve their LPs in-repo: scipy is never
    # imported.  Nor is numpy.ma, which np.unique imports on its first call
    # (about 15 ms), once used by the LP certificate to read denominators.
    env = dict(os.environ)
    src = str(Path(pmdkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    nm = tmp_path / "parity.json"
    nm.write_text(systematic_parity_nm(2).dumps())
    probe = ("import sys, pmdkit.cli as cli\n"
             "assert cli.run(['nm', 'search', '--k', '2', '--n', '5', '--trials', '2',"
             " '--seed', '21']) == 0\n"
             f"assert cli.run(['nm', 'verify', '--nm', {str(nm)!r}]) == 0\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
             "print(sorted(m for m in sys.modules if (m + '.').startswith('numpy.ma.')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[]", "[]"]
    assert "epsilon_nm: 0.666666666667" in done.stdout
    assert "epsilon_nm_exact: 3/4" in done.stdout


def test_pmd_verify_sampling_leaves_numpy_ma_unloaded():
    # The sampled PMD sweep orders its draws with Python's sorted: the
    # first np.unique or stable argsort would import numpy.ma or grow RSS.
    env = dict(os.environ)
    src = str(Path(pmdkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, pmdkit.cli as cli\n"
             "assert cli.run(['pmd', 'verify', '--n', '8', '--lambda', '2',"
             " '--samples', '300', '--seed', '21']) == 0\n"
             "print(sorted(m for m in sys.modules if (m + '.').startswith('numpy.ma.')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("n,lam,samples,message", [
    ("2", "1", "64", "exceed the 63 nonidentity Paulis"),
    ("8", "2", "24415", "draw fewer samples")])
def test_pmd_verify_sampling_guard_exits_2(capsys, n, lam, samples, message):
    rc, out, err = invoke(capsys, ["pmd", "verify", "--n", n, "--lambda", lam,
                                   "--samples", samples, "--seed", "3"])
    assert rc == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("n", ["12", "24"])
def test_ptc_check_pairwise_guard_exits_2_fast(capsys, n):
    started = time.perf_counter()
    rc, out, err = invoke(capsys, ["ptc", "check", "--n", n, "--lambda", "12",
                                   "--samples", "1"])
    assert rc == 2 and out == ""
    assert "pairwise sweep" in err and "4096 keys" in err
    assert time.perf_counter() - started < 2.0


@pytest.mark.parametrize("argv, message", [
    (["ptc", "check", "--n", "14", "--lambda", "14", "--samples", "1"],
     "pairwise sweep checks keys^2 * (2^gens - 1) syndromes, above the "
     "iteration guard at 16384 keys of 14 generators"),
    (["pmd", "verify", "--n", "14", "--lambda", "14"],
     "build_pmd needs 28 qubits, above the limit of 12"),
    (["pmd", "verify", "--n", "12", "--lambda", "12"],
     "build_pmd needs 24 qubits, above the limit of 12"),
    (["sweep", "--points", "14:14", "--format", "json"],
     "build_pmd needs 28 qubits, above the limit of 12"),
])
def test_large_lambda_is_refused_before_the_family_is_built(capsys, argv, message):
    started = time.perf_counter()
    rc, out, err = invoke(capsys, argv)
    assert time.perf_counter() - started < 0.5
    if argv[0] == "sweep":
        assert rc == 1
        row, = json.loads(out)["extras"]["rows"]
        assert row["status"].startswith("error: " + message)
    else:
        assert rc == 2 and out == ""
        assert message in err


@pytest.mark.parametrize("command", ["aqec", "auth"])
def test_simulate_refuses_a_large_lambda_before_the_family_is_built(
        capsys, tmp_path, command):
    outer = tmp_path / "outer.txt"
    outer.write_text("n=13 k=12\nZZZZZZZZZZZZZ\n")
    argv = [command, "simulate", "--pmd-n", "12", "--pmd-lambda", "12",
            "--outer", str(outer)]
    if command == "auth":
        argv += ["--protocol", "third", "--attack", str(outer)]
    started = time.perf_counter()
    rc, out, err = invoke(capsys, argv)
    assert time.perf_counter() - started < 0.5
    assert rc == 2 and out == ""
    assert "build_pmd needs 24 qubits, above the limit of 12" in err


def test_sweep_deterministic_repeat(capsys):
    argv = ["sweep", "--points", "2:1,4:1", "--format", "json"]
    rc1, out1, _ = invoke(capsys, argv)
    rc2, out2, _ = invoke(capsys, argv)
    assert out1 == out2


def test_config_file_sets_optionals(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep defaults\nformat = json\n\npoints =  2:1,4:1 \n")
    rc, out, _ = invoke(capsys, ["sweep", "--config", str(cfg)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["command"] == "sweep"
    assert payload["config"] == {"points": "2:1,4:1"}  # the value is kept whole
    assert payload["seed"] is None  # sweep draws nothing and takes no --seed


def test_config_equals_form_sets_optionals(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    rc, out, _ = invoke(capsys, ["sweep", "--points", "2:1", f"--config={cfg}"])
    assert rc == 0
    assert json.loads(out)["command"] == "sweep"
    rc, _, err = invoke(capsys, ["sweep", "--points", "2:1", "--config="])
    assert rc == 2 and "--config needs a file path" in err


@pytest.mark.parametrize("flag", ["--config", "--conf"])
def test_config_not_spliced_exits_2(capsys, tmp_path, flag):
    # A second --config, or an abbreviation of it, would not be read.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    rc, out, err = invoke(capsys, ["sweep", "--points", "2:1", "--config", str(cfg),
                                   flag, str(cfg)])
    assert rc == 2 and out == ""
    assert f"unrecognized arguments: {flag} {cfg}" in err


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense = 1\n")
    rc, _, err = invoke(capsys, ["sweep", "--points", "2:1",
                                 "--config", str(cfg)])
    assert rc == 2
    assert "unrecognized arguments" in err


def test_config_loses_to_explicit_flag(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    rc, out, _ = invoke(capsys, ["sweep", "--points", "2:1",
                                 "--config", str(cfg), "--format", "text"])
    assert rc == 0
    assert out.startswith("# sweep")  # the explicit flag wins


def test_modulus_override(capsys):
    # GF(4) has modulus x^2+x+1 only, but GF(8) has several; the
    # detectability figures stay within bounds under an override.
    rc, out, _ = invoke(capsys, ["ptc", "check", "--n", "3", "--lambda", "3",
                                 "--modulus", "0xd"])  # x^3 + x^2 + 1
    assert rc == 0
    assert "RESULT: ok" in out
    rc_bad, _, err = invoke(capsys, ["ptc", "check", "--n", "3", "--lambda", "3",
                                     "--modulus", "0x9"])  # x^3 + 1 reducible
    assert rc_bad == 2
    assert "reducible" in err


def test_ptc_sampling_reports_confidence(capsys):
    rc, out, _ = invoke(capsys, ["ptc", "check", "--n", "4", "--lambda", "2",
                                 "--samples", "100", "--seed", "4"])
    assert rc == 0
    assert "worst_miss_probability" in out


@pytest.mark.parametrize("command", [["ptc", "check"], ["pmd", "verify"]])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_samples_exit_2(capsys, command, samples):
    rc, out, err = invoke(capsys, command + ["--n", "4", "--lambda", "2",
                                             "--samples", samples])
    assert rc == 2
    assert "samples must be >= 1" in err
    assert "PASS" not in out


@pytest.mark.parametrize("syndrome", ["2", "7"])
def test_qlde_decode_refuses_syndrome_digits_other_than_0_and_1(capsys, tmp_path,
                                                                 syndrome):
    # On [[4,3]] XXXX, "2" once decoded as syndrome 0 and "7" as 1.
    code_file = tmp_path / "code.txt"
    code_file.write_text("n=4 k=3\nXXXX\n")
    rc, out, err = invoke(capsys, ["qlde", "decode", "--code", str(code_file),
                                   "--erased", "0", "--syndrome", syndrome])
    assert rc == 2 and out == ""
    assert "syndrome entries must be 0 or 1" in err
    rc, out, _ = invoke(capsys, ["qlde", "decode", "--code", str(code_file),
                                 "--erased", "0", "--syndrome", "1"])
    assert rc == 0 and out.splitlines() == ["ZIII", "YIII"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_nm_search_refuses_fewer_than_one_trial(capsys, trials):
    rc, out, err = invoke(capsys, ["nm", "search", "--k", "1", "--n", "4",
                                   "--trials", trials])
    assert rc == 2 and out == ""
    assert "trials must be at least 1" in err


def test_nm_search_refuses_a_negative_message_length(capsys):
    # --k -1 once failed inside rng.permutation with "negative shift count".
    rc, out, err = invoke(capsys, ["nm", "search", "--k", "-1", "--n", "3"])
    assert rc == 2 and out == ""
    assert "k, n and rand_bits must be non-negative, got k=-1, n=3, rand_bits=1" in err


@pytest.mark.parametrize("command", [
    ["ptc", "check", "--n", "4", "--lambda", "2", "--samples", "5"],
    ["pmd", "verify", "--n", "4", "--lambda", "2", "--samples", "5"],
    ["qlde", "sample-css", "--n", "6", "--k", "2"],
    ["aqec", "simulate", "--pmd-n", "4", "--pmd-lambda", "2", "--outer", "OUTER"],
    ["nm", "search", "--k", "1", "--n", "4", "--trials", "1"],
], ids=["ptc-check", "pmd-verify", "qlde-sample-css", "aqec-simulate", "nm-search"])
def test_seeded_commands_refuse_a_negative_seed(capsys, tmp_path, command):
    # A negative seed once reached np.random.Philox, whose "expected
    # non-negative integer" named neither the option nor the value.
    outer = tmp_path / "outer.txt"
    outer.write_text(SEVEN6_TEXT)
    argv = [str(outer) if arg == "OUTER" else arg for arg in command]
    rc, out, err = invoke(capsys, argv + ["--seed", "-1"])
    assert rc == 2 and out == ""
    assert "--seed must be a non-negative integer, got -1" in err
    rc, out, _ = invoke(capsys, argv + ["--seed", "0"])
    assert rc == 0 and "RESULT: ok" in out


@pytest.mark.parametrize("delta", ["-0.5", "1.5", "nan"])
def test_qlde_profile_refuses_delta_outside_unit_interval(capsys, tmp_path, delta):
    # -0.5 once profiled only the empty set and passed with list size 1.
    code_file = tmp_path / "code.txt"
    code_file.write_text(FOUR22_TEXT)
    rc, out, err = invoke(capsys, ["qlde", "profile", "--code", str(code_file),
                                   "--delta", delta])
    assert rc == 2 and out == ""
    assert "delta must be in [0, 1]" in err


@pytest.mark.parametrize("command", [["ptc", "check"], ["pmd", "verify"]])
def test_family_commands_record_a_given_modulus(capsys, command):
    # x^2 + x + 1 is GF(4)'s default modulus, so only the config differs.
    argv = command + ["--n", "2", "--lambda", "2", "--format", "json"]
    rc, out, _ = invoke(capsys, argv)
    rc_mod, out_mod, _ = invoke(capsys, argv + ["--modulus", "0x7"])
    assert rc == rc_mod == 0
    plain, given = json.loads(out), json.loads(out_mod)
    assert "modulus" not in plain["config"]
    assert given["config"].pop("modulus") == "0x7"
    assert given == plain
