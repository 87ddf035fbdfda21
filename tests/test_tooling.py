"""The benchmark's span recorder wraps kernel functions by name; every name
it lists must resolve, so a rename fails here instead of in a traced run."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_constant(name: str):
    """A literal module-level constant of ``bench/spans.py``, read without importing it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


def test_span_targets_resolve():
    targets = _spans_constant("TARGETS")
    assert targets
    for span, modname, path, _keep in targets:
        module = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            # methods are replaced on the class itself, so they must live there
            assert attr in vars(getattr(module, owner_name)), f"{span}: {modname}.{path}"
        else:
            assert callable(getattr(module, attr, None)), f"{span}: {modname}.{path}"


def test_identity_checks_are_a_table():
    assert isinstance(importlib.import_module("axc.identities").CHECKS, dict)
