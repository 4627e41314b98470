"""Ratchet on the number of values a caller can set.

Each defaulted function parameter in `src/lorentzdyn` and each option of
the `lorentzdyn` command line is a value someone can set, and each one
widens what the tests and the benchmark must cover.  The bound below is
the count today: a new knob needs a deliberate edit of it, and removing
one should lower it.
"""

import argparse
import ast
from pathlib import Path

from lorentzdyn.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "lorentzdyn"
MAX_SETTABLE_VALUES = 59


def _defaulted_parameters() -> int:
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    return count


def _cli_options(parser: argparse.ArgumentParser) -> int:
    """Options (not positionals, not --help) over every subcommand."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(_cli_options(sub) for sub in action.choices.values())
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def test_settable_values_do_not_grow():
    total = _defaulted_parameters() + _cli_options(build_parser())
    assert total <= MAX_SETTABLE_VALUES
