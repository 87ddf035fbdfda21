"""Golden master of the ``axc`` command line: argv -> exit code, stdout, stderr.

The argv grid is read from ``cli._build_parser()``: every subcommand, every
choice of every option, and each ``store_true`` flag (``--json``) off and on,
so a new choice joins the corpus with no edit here.  Form subcommands are
crossed with :data:`INPUTS` on each of :data:`CHARTS`; ``classify`` and
``identities`` take the argument tails of :data:`TAILS`.  Every run calls
``cli.main`` in process, and each subcommand's runs hash into one SHA-1 of
:data:`GOLDEN_SHA1`, so a failure names the subcommand.

Re-pin a digest only when an output changes on purpose, and name the changed
output in CHANGES.md.  No argv here is one that argparse itself rejects: its
usage text varies with the Python version.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json

import pytest

from axc.cli import main
from tests.conftest import _cli_subparsers

# the same flags three ways: --dim, --metric with a joined --center, and a
# negative --center given as a separate argument
CHARTS = (
    ["--dim", "3"],
    ["--metric", "++-", "--center=1/7,-2/5,3"],
    ["--dim", "2", "--center", "-2/9,1/7"],
)

# file name -> text; "missing" names a file that is never written
INPUTS = {
    "mixed": "(x1*x2 - 1/3) + (2*x2) dx1 + (x1^2) dx1^dx2",
    "one-form": "(x2) dx1 + (x1 + 1/2) dx2",
    "two-form": "(x1) dx2^dx3 - (1/2) dx1^dx2",
    "top": "(x1*x2 + 2) dx1^dx2^dx3",
    "zero": "0",
    "json": json.dumps({
        "n": 3, "center": ["1", "0", "-2"], "metric": [1, 1, -1],
        "components": {"1": {"[1]": [{"exp": [0, 1, 0], "coef": "1/3"}],
                             "[2]": [{"exp": [0, 0, 0], "coef": "-2"},
                                     {"exp": [1, 0, 1], "coef": "1"}]}}}),
    "decimal": "1.5 dx1",
    "axis": "x9 dx1",
    "missing": None,
}
# chart flags cannot reach these inputs: the JSON document carries its own
# chart, and the other two fail before a chart is read; each runs on CHARTS[0]
ONE_CHART = {"json", "decimal", "missing"}

# the argument tails of the subcommands that take no --in, whose file names
# are those of INPUTS and CLASSIFY_ONLY
CLASSIFY_ONLY = {"zero-denominator": "(1/0) dx1"}
TAILS = {
    "classify": [
        ["--alpha", "one-form", "--beta", "zero"],
        ["--alpha", "zero", "--beta", "zero", "--grade", "2"],
        ["--alpha", "one-form", "--beta", "top"],
        ["--alpha", "mixed", "--beta", "two-form"],
        ["--alpha", "zero-denominator", "--beta", "zero"],
        ["--alpha", "zero", "--beta", "missing"],
    ],
    "identities": [
        ["--samples", "2", "--max-degree", "1", "--seed", "5"],
        ["--samples", "0"],
        ["--max-degree", "-1"],
    ],
}
_FILE_FLAGS = ("--alpha", "--beta")

# SHA-1 of each subcommand's runs, taken before `_run` read its input once
GOLDEN_SHA1 = {
    "apply": "2751675f0c7bf07abb403e6ae81fbfdc6922f778",
    "decompose": "3ab46b3153547b352669112681b179f547ffdec1",
    "member": "f5c84dbbd2fe47a2f871bcc466c6e80970dc6a76",
    "potential": "a9865f3ca6e682e9c4fd6258f2a2bf3b983b0b47",
    "copotential": "250adb555b75c20cd2a1ef2465926e20fa53b369",
    "identities": "825b876d95f0f00a50ab08beaaf14c498410c3d7",
    "solve": "4f67beac47cbff55ffe40c192fb4b9c574fca968",
    "classify": "02d5e11e728c7694c420b8ded4b59f0704f44c50",
    "oscillator": "f50e7b0cf75ce998c53e0c3506f107ce1c46866f",
}


def _choice_argv(action: argparse.Action) -> list[list[str]]:
    """The argv pieces one parser action contributes, one per value it takes."""
    if isinstance(action, argparse._StoreTrueAction):
        return [[], action.option_strings[:1]]
    values = [str(value) for value in action.choices]
    if not action.option_strings:
        return [[value] for value in values]
    return [[action.option_strings[0], value] for value in values]


def corpus_argv(command: str, parser: argparse.ArgumentParser, path) -> list[list[str]]:
    """Every argv of one subcommand, input names resolved under ``path``."""
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    choices = [a for a in actions if a.choices is not None]
    choices.sort(key=lambda a: bool(a.option_strings))  # positionals first
    flags = [a for a in actions if isinstance(a, argparse._StoreTrueAction)]
    takes_input = any(a.dest == "infile" for a in actions)
    rest = [a for a in actions if a not in choices and a not in flags and a.dest != "infile"]
    tails = TAILS.get(command, [[]])
    named = {arg for tail in tails for arg in tail}
    unnamed = [a.dest for a in rest if not named & set(a.option_strings)]
    assert not unnamed, f"axc {command}: no corpus tail gives {unnamed}"

    def resolve(tail):
        return [str(path / arg) if flag in _FILE_FLAGS else arg
                for flag, arg in zip([None] + tail, tail)]

    inputs = list(INPUTS) if takes_input else [None]
    grid = itertools.product(CHARTS, *map(_choice_argv, choices + flags), tails, inputs)
    return [[*chart, command, *itertools.chain(*pieces), *resolve(tail),
             *([] if name is None else ["--in", str(path / name)])]
            for chart, *pieces, tail, name in grid
            if chart is CHARTS[0] or name not in ONE_CHART]


def run_corpus(command: str, path) -> tuple[str, collections.Counter]:
    """The SHA-1 of one subcommand's runs and the tally of their exit codes."""
    for name, text in {**INPUTS, **CLASSIFY_ONLY}.items():
        if text is not None:
            (path / name).write_text(text, encoding="utf-8")
    digest, codes = hashlib.sha1(), collections.Counter()
    for argv in corpus_argv(command, _cli_subparsers()[command], path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        codes[code] += 1
        record = [" ".join(argv), code, out.getvalue(), err.getvalue()]
        digest.update(json.dumps(record).replace(str(path), "$TMP").encode("utf-8"))
    return digest.hexdigest(), codes


@pytest.mark.parametrize("command", list(_cli_subparsers()))
def test_corpus_digest(tmp_path, command):
    digest, codes = run_corpus(command, tmp_path)
    assert digest == GOLDEN_SHA1.get(command), (
        f"axc {command}: output changed; new digest {digest!r} over exit codes {dict(codes)}")


def test_corpus_covers_every_subcommand():
    assert set(GOLDEN_SHA1) == set(_cli_subparsers())
