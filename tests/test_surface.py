"""The count of independently settable values in pmdkit.

Three kinds are counted: the argparse actions other than --help on each
leaf command of `cli.build_parser()`, the parameter defaults of every
function in src/pmdkit, and the fields of every @dataclass there.  Each
one doubles the configurations that tests and benchmarks must cover, so
the total is pinned: a change that adds one raises `SETTABLE_PIN` and
says why.
"""

import argparse
import ast
from pathlib import Path

import pmdkit
from pmdkit import cli

SETTABLE_PIN = 148


def _leaf_parsers(parser):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser
    for action in subs:
        for child in action.choices.values():
            yield from _leaf_parsers(child)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values() -> dict[str, int]:
    options = sum(1 for parser in _leaf_parsers(cli.build_parser())
                  for action in parser._actions
                  if not isinstance(action, argparse._HelpAction))
    defaults = fields = 0
    for path in sorted(Path(pmdkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults += len(node.args.defaults)
                defaults += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return {"cli options": options, "keyword defaults": defaults,
            "dataclass fields": fields}


def test_settable_values_stay_within_the_pin():
    counts = settable_values()
    assert sum(counts.values()) <= SETTABLE_PIN, counts
