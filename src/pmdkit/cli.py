"""Command-line front end: reproducible checks, sweeps, and reports.

Every subcommand builds a Report whose payload is a deterministic
function of the configuration and seed (no timestamps, sorted keys), so
identical invocations emit byte-identical output.  Exit codes: 0 all
checks passed, 1 a measured check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .aqec import ErasureAdversary, compose, erasure_harness, random_adversary
from .auth import (Auth1Protocol, Auth13Protocol, NmCode, TamperFunction,
                   auth1_block_codeword_density, auth1_block_reject_probability,
                   auth1_decode, auth1_encode, auth13_attack_harness, nm_search,
                   nm_verify, stabilizer_mass, systematic_parity_nm, twirl_channel)
from .densesim import kraus_from_record
from .galois import DEFAULT_MODULI, FieldSpec
from .limits import SizeGuardError
from .pmd import build_pmd, check_pmd_size, measure_pmd_epsilon
from .ptc import build_bcgst_family, check_pairwise_sweep, \
    measure_pairwise_detectability, measure_strong_ptc_error
from .qlde import erasure_list_decode, list_size_profile, sample_random_css
from .symplectic import PauliOperator, StabilizerCode, format_code, parse_code


def _csv_text(header, rows) -> str:
    """CSV with minimal quoting: a field is quoted only if it holds a
    comma, quote or newline, so rows without one read as plain joins.
    csv is imported here: at start-up it would add about 170 KB of RSS
    to every command."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass
class Check:
    name: str
    value: float | str
    bound_expr: str
    bound_value: float | str
    passed: bool


@dataclass
class Report:
    command: str
    config: dict
    seed: int | None
    checks: list[Check] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, value, bound_expr, bound_value, passed):
        self.checks.append(Check(name, value, bound_expr, bound_value, passed))

    def to_payload(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "version": __version__,
            "checks": [vars(c) for c in self.checks],
            "extras": self.extras,
            "passed": self.passed,
        }

    def render(self, fmt: str) -> str:
        payload = self.to_payload()
        if fmt == "json":
            return json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if fmt == "csv":
            return _csv_text(("check", "value", "bound_expr", "bound_value", "passed"),
                             ([c.name, c.value, c.bound_expr, c.bound_value, c.passed]
                              for c in self.checks))
        lines = [f"# {self.command} (pmdkit {__version__})"]
        for key, val in sorted(self.config.items()):
            lines.append(f"  {key} = {val}")
        if self.seed is not None:
            lines.append(f"  seed = {self.seed}")
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.name}: {c.value}  vs  {c.bound_expr}"
                         f" = {c.bound_value}")
        for key, val in sorted(self.extras.items()):
            lines.append(f"  {key}: {val}")
        lines.append("RESULT: " + ("ok" if self.passed else "FAILED"))
        return "\n".join(lines) + "\n"


def _emit(report: Report, args, table=None) -> int:
    """Write the report to --out or stdout and return its exit code.  A
    CSV report lists `table`, a (header, rows) pair, in place of its checks."""
    text = (_csv_text(*table) if table is not None and args.format == "csv"
            else report.render(args.format))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def parse_config(text: str, origin: str = "<config>") -> dict:
    """Flat key-value text: one `key = value` per line, # comments."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{origin}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _expand_config(argv: list[str]) -> list[str]:
    """Splice config-file entries in as flags, before the real flags.

    `--config FILE` and `--config=FILE` both work.  Entries become
    `--key value` tokens right after the subcommand words, so anything
    typed on the command line wins.
    """
    argv = [part for token in argv for part in
            (token.split("=", 1) if token.startswith("--config=") else [token])]
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv) or not argv[at + 1]:
        raise ValueError("--config needs a file path")
    path = argv[at + 1]
    rest = argv[:at] + argv[at + 2:]
    prefix_len = 0
    while prefix_len < len(rest) and not rest[prefix_len].startswith("-"):
        prefix_len += 1
    injected = []
    for key, value in parse_config(Path(path).read_text(encoding="utf-8"),
                                   origin=path).items():
        injected += [f"--{key}", value]
    return rest[:prefix_len] + injected + rest[prefix_len:]


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _family(args, config: dict):
    """The family of --n, --lambda and --modulus; a modulus goes into config.

    A modulus whose degree is not --lambda is refused first.  Both
    commands that build the family run its pairwise sweep, whose guard a
    large lambda meets.  It is checked from the field, before the
    family's 2^lambda codes are built; a lambda with no field here is
    refused by `build_bcgst_family` before it builds any."""
    field = None
    if args.modulus is not None:
        config["modulus"] = args.modulus
        try:
            modulus = int(args.modulus, 0)
        except ValueError:
            raise ValueError(f"--modulus {args.modulus!r} is not an integer like 0x13") from None
        field = FieldSpec(modulus)
        if field.m != args.lam:
            raise ValueError(f"--modulus {args.modulus} has degree {field.m}, "
                             f"--lambda is {args.lam}")
    elif args.lam in DEFAULT_MODULI:
        field = FieldSpec.default(args.lam)
    if field is not None:
        check_pairwise_sweep(field.order, field.m)
    return build_bcgst_family(args.n, args.lam, field=field)


def _seed(args) -> int:
    """The run's RNG seed: `--seed`, or 0 when it is omitted, so that
    reruns without a seed still emit byte-identical reports."""
    if args.seed is None:
        return 0
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _sampling_seed(args) -> int | None:
    """The `_seed` of a `--samples` run; None for an exhaustive run,
    which draws nothing and so refuses `--seed`."""
    if args.samples is None:
        if args.seed is not None:
            raise ValueError("--seed is not read without --samples")
        return None
    return _seed(args)


def cmd_ptc_check(args) -> int:
    seed = _sampling_seed(args)
    config = {"n": args.n, "lam": args.lam,
              "mode": "exhaustive" if args.samples is None else f"samples={args.samples}"}
    family = _family(args, config)
    delta = measure_pairwise_detectability(family)
    eps = measure_strong_ptc_error(family, samples=args.samples, seed=seed)
    report = Report("ptc check", config, seed)
    eps_bound = Fraction(args.n, 2 ** args.lam)
    delta_bound = Fraction(2 * args.n, 2 ** args.lam)
    report.add("epsilon_measured", _frac(eps.value), "n/2^lam", _frac(eps_bound),
               eps.value <= eps_bound)
    report.add("delta_measured", _frac(delta.value), "2n/2^lam", _frac(delta_bound),
               delta.value <= delta_bound)
    report.extras["exhaustive"] = eps.exhaustive and delta.exhaustive
    if not eps.exhaustive:
        report.extras["worst_miss_probability"] = f"{eps.worst_miss_probability:.3e}"
    return _emit(report, args)


def _pmd_check(family, samples, seed):
    """The PMD lemma check of a family: (epsilon report, eps_ptc, delta,
    bound, ok).  The bound max(eps_ptc, sqrt(2^-lam + delta)) comes from
    the family's exhaustive detection figures; ok says the measured
    epsilon (exhaustive, or from `samples` draws) is within it."""
    eps = measure_pmd_epsilon(build_pmd(family), samples=samples, seed=seed)
    eps_ptc = measure_strong_ptc_error(family)
    delta = measure_pairwise_detectability(family)
    bound = max(float(eps_ptc.value),
                float(np.sqrt(2.0 ** -family.lam + float(delta.value))))
    return eps, eps_ptc, delta, bound, eps.value <= bound + 1e-9


def cmd_pmd_verify(args) -> int:
    seed = _sampling_seed(args)
    config = {"n": args.n, "lam": args.lam}
    check_pmd_size(args.n, args.lam)
    eps_rep, eps_ptc, delta, bound, ok = _pmd_check(_family(args, config),
                                                    args.samples, seed)
    report = Report("pmd verify", config, seed)
    report.add("epsilon", f"{eps_rep.value:.12f}",
               "max(eps_ptc, sqrt(2^-lam + delta))", f"{bound:.12f}", ok)
    report.extras.update({
        "argmax_pauli": eps_rep.argmax.label(),
        "ptc_epsilon": _frac(eps_ptc.value),
        "delta": _frac(delta.value),
        "exhaustive": eps_rep.exhaustive,
        # Headline scaling context, not asserted at desk scale.
        "headline_bounds": f"sqrt(n)*2^(1-lam/4)={np.sqrt(args.n) * 2 ** (1 - args.lam / 4):.4f}, "
                           f"2*sqrt(n)*2^(-lam/2)={2 * np.sqrt(args.n) * 2 ** (-args.lam / 2):.4f}",
    })
    return _emit(report, args)


def cmd_qlde_decode(args) -> int:
    code = parse_code(Path(args.code).read_text(encoding="utf-8"))
    erased = tuple(int(tok) for tok in args.erased.split(",") if tok != "")
    bits = [int(ch) for ch in args.syndrome]
    corrections = erasure_list_decode(code, erased, bits)
    config = {"code": args.code, "erased": args.erased, "syndrome": args.syndrome}
    report = Report("qlde decode", config, None)
    report.extras["list_size"] = len(corrections)
    report.extras["corrections"] = [p.label() for p in corrections]
    if args.format == "text" and not args.out:
        for p in corrections:
            sys.stdout.write(p.label() + "\n")
        return 0
    return _emit(report, args)


def cmd_qlde_profile(args) -> int:
    code = parse_code(Path(args.code).read_text(encoding="utf-8"))
    profile = list_size_profile(code, args.delta)
    report = Report("qlde profile", {"code": args.code, "delta": args.delta}, None)
    if args.max_list is not None:
        report.add("max_list_size", profile, "required bound", args.max_list,
                   profile <= args.max_list)
    else:
        report.add("max_list_size", profile, "profile guard", 4096, profile <= 4096)
    return _emit(report, args)


def cmd_qlde_sample_css(args) -> int:
    seed = _seed(args)
    rng = np.random.default_rng(np.random.Philox(seed))
    sample = sample_random_css(args.n, args.k, rng)
    report = Report("qlde sample-css", {"n": args.n, "k": args.k}, seed)
    report.extras["realized_k"] = sample.code.k
    report.extras["first_draw_full_rank"] = sample.first_draw_full_rank
    report.extras["generators"] = [g.label() for g in sample.code.gens]
    if args.out_code:
        Path(args.out_code).write_text(format_code(sample.code), encoding="utf-8")
    return _emit(report, args)


# JSON types of the fields of the NM, attack and adversary records, and
# of the entries of their array and object fields.
_FIELD_TYPES = {"k": int, "n": int, "rand_bits": int, "max_erased": int, "name": str,
                "mode": str, "encode": dict, "decode": dict, "classical": list,
                "support": list, "branches": list, "wires": list, "matrix": list}
_ENTRY_TYPES = {"encode": int, "decode": int, "classical": str, "support": int,
                "branches": dict, "wires": list, "matrix": list}


def _read_record(path: str) -> dict:
    """A JSON input file.  A field of the wrong JSON type, or reading a
    field it lacks, raises a ValueError (exit 2) that names the file and
    the field."""
    class Record(dict):
        def __missing__(self, key):
            raise ValueError(f"{path}: missing field {key!r}")

    def checked(record: dict) -> Record:
        for key, value in record.items():
            entries = value.values() if isinstance(value, dict) else value
            if (not isinstance(value, _FIELD_TYPES.get(key, object)) or key in _ENTRY_TYPES
                    and not all(isinstance(v, _ENTRY_TYPES[key]) for v in entries)):
                raise ValueError(f"{path}: field {key!r} has the wrong JSON type")
        return Record(record)
    return json.loads(Path(path).read_text(encoding="utf-8"), object_hook=checked)


def _kraus(path: str, key: str, record) -> tuple[np.ndarray, ...]:
    """kraus_from_record, refusing a malformed field with a ValueError."""
    try:
        return kraus_from_record(record)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: field {key!r} must hold matrices of [re, im] pairs") from exc


def _load_adversary(path: str, n: int) -> ErasureAdversary:
    record = _read_record(path)
    if record.get("n", n) != n:
        raise ValueError(f"{path}: field 'n' is {record['n']}, the outer code has n = {n}")
    mats = _kraus(path, "matrix", [br["matrix"] for br in record["branches"]])
    branches = tuple((mat, tuple(br["support"]))
                     for mat, br in zip(mats, record["branches"]))
    return ErasureAdversary(n, branches, record["max_erased"],
                            mode=record.get("mode", "adaptive"))


def cmd_aqec_simulate(args) -> int:
    outer = parse_code(Path(args.outer).read_text(encoding="utf-8"))
    config = {"pmd_n": args.pmd_n, "pmd_lambda": args.pmd_lambda, "outer": args.outer}
    if args.adversary:
        # The file fixes the adversary, its erasure budget included.
        for option in ("budget", "count", "seed"):
            if getattr(args, option) is not None:
                raise ValueError(f"--{option} is not read with --adversary")
        config["adversary"] = args.adversary
        seed = None
        adversaries = [("file", _load_adversary(args.adversary, outer.n))]
    else:
        budget = 1 if args.budget is None else args.budget
        count = 1 if args.count is None else args.count
        if not 1 <= budget <= outer.n:
            raise ValueError(f"--budget must be in 1..{outer.n}, got {budget}")
        if count < 1:
            raise ValueError(f"--count must be at least 1, got {count}")
        config["budget"] = budget
        seed = _seed(args)
        rng = np.random.default_rng(np.random.Philox(seed))
        adversaries = [(f"seeded[{i}]", random_adversary(outer.n, budget, rng))
                       for i in range(count)]
    check_pmd_size(args.pmd_n, args.pmd_lambda)
    pmd = build_pmd(build_bcgst_family(args.pmd_n, args.pmd_lambda))
    code = compose(pmd, outer)
    eps = measure_pmd_epsilon(pmd).value
    report = Report("aqec simulate", config, seed)
    rows = []
    for name, adv in adversaries:
        try:
            rep = erasure_harness(code, adv, eps)
        except (SizeGuardError, RuntimeError, ValueError) as exc:
            report.add(f"fidelity[{name}]", "error", "pipeline", str(exc), False)
            rows.append((name, "error", "", ""))
            continue
        report.add(f"fidelity[{name}]", f"{rep.fidelity:.12f}",
                   "1 - 3*sqrt(eps)*L^(3/4)", f"{rep.bound:.6f}",
                   rep.fidelity >= rep.bound - 1e-9)
        rows.append((name, f"{rep.fidelity:.12f}", rep.realized_list, rep.bound))
    report.extras["epsilon"] = f"{eps:.12f}"
    report.extras["rows"] = [
        {"adversary": r[0], "fidelity": r[1], "list": r[2], "bound": str(r[3])}
        for r in rows]
    return _emit(report, args)


def _load_attack(path: str):
    """(per-wire Kraus maps, record) of an attack file; only the rate-1/3
    protocol reads the record's `classical` tampering."""
    record = _read_record(path)
    wires = [_kraus(path, "wires", wire) for wire in record["wires"]]
    for q, kraus in enumerate(wires):
        for k in kraus:
            if k.shape != (2, 2):
                raise ValueError(f"{path}: wire {q} has a Kraus operator of shape "
                                 f"{k.shape}, not (2, 2)")
    return wires, record


# The auth simulate option that each protocol never reads.
_UNREAD_AUTH_OPTION = {"third": "inner", "rate1": "nm"}


def cmd_auth_simulate(args) -> int:
    unread = _UNREAD_AUTH_OPTION[args.protocol]
    if getattr(args, unread) is not None:
        raise ValueError(f"--{unread} is not read by --protocol {args.protocol}")
    check_pmd_size(args.pmd_n, args.pmd_lambda)
    pmd = build_pmd(build_bcgst_family(args.pmd_n, args.pmd_lambda))
    outer = parse_code(Path(args.outer).read_text(encoding="utf-8"))
    config = {"protocol": args.protocol, "pmd_n": args.pmd_n,
              "pmd_lambda": args.pmd_lambda, "outer": args.outer,
              "attack": args.attack}
    for option in ("inner", "nm"):  # only the protocol's own can be given
        if getattr(args, option):
            config[option] = getattr(args, option)
    eps = measure_pmd_epsilon(pmd).value
    report = Report("auth simulate", config, None)
    if args.protocol == "third":
        composed = compose(pmd, outer)
        nm = (NmCode.from_record(_read_record(args.nm)) if args.nm
              else systematic_parity_nm(2 * outer.n))
        proto = Auth13Protocol(composed, nm)
        wires, record = _load_attack(args.attack)
        classical = TamperFunction(tuple(record["classical"]))
        rep = auth13_attack_harness(proto, wires, classical)
        report.add("p_accept_wrong", f"{rep.p_accept_wrong:.12f}",
                   "eps_pmd^2 (key-recovered context)", f"{eps ** 2:.6f}",
                   rep.p_accept_wrong <= eps ** 2 + 1e-10)
        report.extras.update({
            "p_accept": f"{rep.p_accept:.12f}",
            "p_reject": f"{rep.p_reject:.12f}",
            "fidelity_given_accept": f"{rep.fidelity_given_accept:.12f}",
        })
        return _emit(report, args)
    # rate-1 toy layout: the outer file spans the block messages; the
    # inner stabilizer code comes from --inner (default [[4,3]] Z^4).
    if args.inner:
        inner_code = parse_code(Path(args.inner).read_text(encoding="utf-8"))
    else:
        inner_code = StabilizerCode(4, [PauliOperator.from_label("ZZZZ")],
                                    name="[[4,3]]")
    proto = Auth1Protocol(outer, compose(pmd, inner_code))
    wires, _ = _load_attack(args.attack)
    if len(wires) != proto.total_quantum:
        raise ValueError(f"attack needs {proto.total_quantum} quantum wires")
    message = np.zeros(1 << outer.k, dtype=complex)
    message[0] = 1.0
    state = auth1_encode(proto, message, seed=0)
    clean = auth1_decode(proto, state, seed=0)
    report.add("completeness", f"{clean.accept_probability:.12f}",
               "exact round trip", "1", clean.rejected_at is None
               and clean.accept_probability > 1 - 1e-9)
    b = proto.block_qubits
    for block in range(proto.n_blocks):
        rho = auth1_block_codeword_density(proto, message, block)
        channels = wires[block * b:(block + 1) * b]
        reject = auth1_block_reject_probability(proto, channels, rho)
        mass = stabilizer_mass([list(twirl_channel(k)) for k in channels],
                               inner_code)
        floor = 1 - (eps ** 2 + float(mass))
        report.add(f"block_{block}_reject", f"{reject:.12f}",
                   "1 - (eps_pmd^2 + stabilizer_mass)", f"{floor:.12f}",
                   reject >= floor - 1e-9)
    return _emit(report, args)


def cmd_nm_search(args) -> int:
    seed = _seed(args)
    rng = np.random.default_rng(np.random.Philox(seed))
    code, eps = nm_search(args.k, args.n, args.trials, rng)
    report = Report("nm search", {"k": args.k, "n": args.n, "trials": args.trials},
                    seed)
    report.add("epsilon_nm", f"{float(eps):.12f}", "best-of-trials", args.trials, True)
    if args.out_nm:
        Path(args.out_nm).write_text(code.dumps(), encoding="utf-8")
    return _emit(report, args)


def cmd_nm_verify(args) -> int:
    code = NmCode.from_record(_read_record(args.nm))
    eps = nm_verify(code)
    report = Report("nm verify", {"nm": args.nm, "k": code.k, "n": code.n}, None)
    report.extras["epsilon_nm"] = f"{float(eps):.12f}"
    report.extras["epsilon_nm_exact"] = _frac(eps)
    return _emit(report, args)


def cmd_sweep(args) -> int:
    points = []
    if args.points:
        for token in args.points.split(","):
            try:
                n_str, lam_str = token.split(":")
                points.append((int(n_str), int(lam_str)))
            except ValueError:
                raise ValueError(f"--points token {token!r} is not of the form "
                                 "n:lambda with two integers, e.g. 6:2") from None
            if points[-1] in points[:-1]:
                raise ValueError("--points repeats the point {}:{}".format(*points[-1]))
    report = Report("sweep", {"points": args.points}, None)
    rows = []
    for n, lam in points:
        try:
            check_pmd_size(n, lam)
            eps, eps_ptc, delta, bound, ok = _pmd_check(build_bcgst_family(n, lam),
                                                        None, None)
            rows.append({"n": n, "lam": lam, "epsilon": f"{eps.value:.12f}",
                         "eps_ptc": _frac(eps_ptc.value),
                         "delta": _frac(delta.value),
                         "bound": f"{bound:.12f}", "status": "ok" if ok else "fail"})
            report.add(f"pmd[{n},{lam}]", f"{eps.value:.12f}", "lemma bound",
                       f"{bound:.12f}", ok)
        except (SizeGuardError, ValueError) as exc:
            message = str(exc)
            if isinstance(exc, SizeGuardError):
                message += (" (sweep itself has no sampling mode; run `pmdkit pmd verify"
                            f" --n {n} --lambda {lam} --samples N --seed S`)")
            rows.append({"n": n, "lam": lam, "epsilon": "error",
                         "eps_ptc": "", "delta": "", "bound": "",
                         "status": f"error: {message}"})
            report.add(f"pmd[{n},{lam}]", "error", "lemma bound", "", False)
            report.extras[f"error[{n},{lam}]"] = message
    report.extras["rows"] = rows
    columns = ("n", "lam", "epsilon", "eps_ptc", "delta", "bound", "status")
    return _emit(report, args, (columns, ([r[k] for k in columns] for r in rows)))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_family(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--modulus", default=None,
                   help="hex override for the GF(2^lambda) modulus")
    p.add_argument("--samples", type=int, default=None)


def _add_common(p):
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.epilog = "--config FILE (or --config=FILE) splices in flat `key = value` defaults."


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pmdkit",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ptc = sub.add_parser("ptc", help="purity-testing family checks")
    ptc_sub = ptc.add_subparsers(dest="subcommand", required=True)
    ptc_check = ptc_sub.add_parser("check")
    _add_family(ptc_check)
    _add_common(ptc_check)
    ptc_check.set_defaults(func=cmd_ptc_check)

    pmd = sub.add_parser("pmd", help="detection-code verification")
    pmd_sub = pmd.add_subparsers(dest="subcommand", required=True)
    pmd_verify = pmd_sub.add_parser("verify")
    _add_family(pmd_verify)
    _add_common(pmd_verify)
    pmd_verify.set_defaults(func=cmd_pmd_verify)

    qlde = sub.add_parser("qlde", help="erasure list decoding")
    qlde_sub = qlde.add_subparsers(dest="subcommand", required=True)
    dec = qlde_sub.add_parser("decode")
    dec.add_argument("--code", required=True)
    dec.add_argument("--erased", default="")
    dec.add_argument("--syndrome", required=True)
    _add_common(dec)
    dec.set_defaults(func=cmd_qlde_decode)
    prof = qlde_sub.add_parser("profile")
    prof.add_argument("--code", required=True)
    prof.add_argument("--delta", type=float, required=True)
    prof.add_argument("--max-list", type=int, default=None,
                      help="fail (exit 1) when the profile exceeds this")
    _add_common(prof)
    prof.set_defaults(func=cmd_qlde_profile)
    samp = qlde_sub.add_parser("sample-css")
    samp.add_argument("--n", type=int, required=True)
    samp.add_argument("--k", type=int, required=True)
    samp.add_argument("--out-code", default=None)
    _add_common(samp)
    samp.set_defaults(func=cmd_qlde_sample_css)

    aqec = sub.add_parser("aqec", help="approximate erasure correction")
    aqec_sub = aqec.add_subparsers(dest="subcommand", required=True)
    sim = aqec_sub.add_parser("simulate")
    sim.add_argument("--pmd-n", type=int, required=True)
    sim.add_argument("--pmd-lambda", type=int, required=True)
    sim.add_argument("--outer", required=True)
    sim.add_argument("--adversary", default=None)
    sim.add_argument("--count", type=int, default=None,
                     help="seeded adversaries, at least 1 (default 1); "
                          "not read with --adversary")
    sim.add_argument("--budget", type=int, default=None,
                     help="erasures per seeded adversary branch, 1..n (default 1); "
                          "not read with --adversary")
    _add_common(sim)
    sim.set_defaults(func=cmd_aqec_simulate)

    auth = sub.add_parser("auth", help="keyless authentication")
    auth_sub = auth.add_subparsers(dest="subcommand", required=True)
    asim = auth_sub.add_parser("simulate")
    asim.add_argument("--protocol", choices=("third", "rate1"), required=True)
    asim.add_argument("--pmd-n", type=int, required=True)
    asim.add_argument("--pmd-lambda", type=int, required=True)
    asim.add_argument("--outer", required=True)
    asim.add_argument("--inner", default=None,
                      help="inner stabilizer code file (rate1 only)")
    asim.add_argument("--attack", required=True)
    asim.add_argument("--nm", default=None,
                      help="non-malleable key code file (third only)")
    _add_common(asim)
    asim.set_defaults(func=cmd_auth_simulate)

    nm = sub.add_parser("nm", help="non-malleable codes")
    nm_sub = nm.add_subparsers(dest="subcommand", required=True)
    search = nm_sub.add_parser("search")
    search.add_argument("--k", type=int, required=True)
    search.add_argument("--n", type=int, required=True)
    search.add_argument("--trials", type=int, default=4)
    search.add_argument("--out-nm", default=None)
    _add_common(search)
    search.set_defaults(func=cmd_nm_search)
    verify = nm_sub.add_parser("verify")
    verify.add_argument("--nm", required=True)
    _add_common(verify)
    verify.set_defaults(func=cmd_nm_verify)

    sweep = sub.add_parser("sweep", help="grid sweeps over family parameters")
    sweep.add_argument("--points", default="",
                       help="comma-separated n:lambda pairs, e.g. 2:1,4:2")
    _add_common(sweep)
    sweep.set_defaults(func=cmd_sweep)

    # The commands whose reports record a seed.
    for seeded in (ptc_check, pmd_verify, samp, sim, search):
        seeded.add_argument("--seed", type=int, default=None)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        argv = _expand_config(list(argv))
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"pmdkit: error: {exc}\n")
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, SizeGuardError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"pmdkit: error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
