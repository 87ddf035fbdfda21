"""The benchmark's span recorder wraps kernel functions by name; every name
it lists must resolve, so a rename fails here instead of in a traced run.
The kernel's import, environment and ``Fraction`` rules, the README's lists
of CLI choices, the CLI's shared flags and the absence of unused imports are
checked here too."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from tests.conftest import cli_choices, cli_subcommands_with

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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


def test_span_target_modules_load_with_the_package():
    # install() imports only these three and then reads every target module
    # from sys.modules, so each must be loaded by them; a fresh interpreter
    # keeps the modules this test process imported itself out of the answer
    code = ("import json, sys; import axc, axc.cli, axc.identities; "
            "print(json.dumps(sorted(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    loaded = set(json.loads(out))
    missing = {modname for _, modname, _, _ in _spans_constant("TARGETS")} - loaded
    assert not missing, f"not loaded by import axc, axc.cli, axc.identities: {missing}"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, which costs every axc process milliseconds
    code = "import json, sys; import axc.cli; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert not {"dataclasses", "inspect"} & set(json.loads(out))


def test_identity_checks_are_a_table():
    assert isinstance(importlib.import_module("axc.identities").CHECKS, dict)


def _kernel_trees():
    for path in sorted((ROOT / "src" / "axc").glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_kernel_imports_only_the_standard_library():
    for name, tree in _kernel_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.partition(".")[0] in sys.stdlib_module_names, f"{name}: {module}"


def test_kernel_reads_no_environment_variable():
    reads = {"environ", "environb", "getenv", "getenvb"}
    for name, tree in _kernel_trees():
        for node in ast.walk(tree):
            used = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else None)
            imported = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            assert used not in reads and not reads.intersection(imported), (
                f"{name}:{node.lineno} reads the environment")


# Private parts of fractions.Fraction; they change between Python versions
# (``_normalize=False`` is gone in 3.12), so the kernel uses none of them.
PRIVATE_FRACTION_API = {"_normalize", "_numerator", "_denominator", "_from_coprime_ints"}


def test_kernel_uses_no_private_fraction_api():
    for name, tree in _kernel_trees():
        for node in ast.walk(tree):
            used = (node.attr if isinstance(node, ast.Attribute)
                    else node.arg if isinstance(node, ast.keyword)
                    else node.id if isinstance(node, ast.Name)
                    else node.value if isinstance(node, ast.Constant)
                    else None)
            assert used not in PRIVATE_FRACTION_API, (
                f"{name}:{node.lineno} uses Fraction.{used}")


def _names(node) -> set:
    """The names an AST node reads, as a bare name or an attribute, or imports."""
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.ImportFrom):
        return {a.name for a in node.names}
    return set()


def test_only_polyring_sums_over_an_lcm():
    # terms are lifted over an lcm in polyring alone, by its one merge tail;
    # an lcm anywhere else would be a second summation regime
    for name, tree in _kernel_trees():
        if name == "polyring.py":
            continue
        for node in ast.walk(tree):
            assert "lcm" not in _names(node), f"{name}:{node.lineno} calls lcm"


def test_one_merge_tail_lifts_over_an_lcm_and_one_function_divides_by_a_gcd():
    # termwise and _sum_numerators group their terms by denominator and end
    # in polyring._merged, the one function that lifts over an lcm, and
    # _reduced is the one gcd tail
    calls = {called: {f"{module}:{where}" for module, _ in _kernel_trees()
                      for where in _callers(module, {called})} for called in ("lcm", "gcd")}
    assert calls == {"lcm": {"polyring.py:_merged"}, "gcd": {"polyring.py:_reduced"}}, calls


def _new_callers(cls: str) -> list[str]:
    """``module.function`` of the innermost function around each kernel call
    of ``cls.__new__`` or ``X.__new__(cls, ...)``; ``module.<module>`` outside one."""
    found = []

    def visit(node, module, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"
                and cls in _names(node.func.value) | _names(node.args[0] if node.args else None)):
            found.append(f"{module}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for name, tree in _kernel_trees():
        visit(tree, name.removesuffix(".py"), "<module>")
    return found


def test_poly_and_form_are_built_unchecked_in_one_function_each():
    # every other builder goes through the checked constructor or through these
    # two, which take valid, distinct, nonzero terms as they are
    assert _new_callers("Poly") == ["polyring._poly"]
    assert _new_callers("Form") == ["forms._form"]


# The calls that build a Fraction per term.
FRACTION_BUILDERS = {"Fraction"}


def _callers(module: str, called: set) -> set:
    """``Class.function``, or ``function``, around each call in ``module`` of a
    name in ``called``."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call) and _names(node.func) & called:
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(dict(_kernel_trees())[module], "")
    return found


def test_forms_builds_fractions_only_where_coefficients_are_read():
    # a Form holds integer numerators over one denominator, so operators, sums
    # and negation build no Fraction; only the reads of its coefficients do
    found = _callers("forms.py", FRACTION_BUILDERS)
    assert "Form.terms" in found
    assert found <= {"_rows", "Form.terms", "Form.coefficient"}, found
    assert importlib.import_module("axc.forms").Form.__slots__ == ("ctx", "_den", "_nums")


def test_polyring_builds_fractions_only_where_coefficients_are_read():
    # a Poly holds integer numerators over one denominator, as a Form does;
    # only the rational rule and the reads of its coefficients build a Fraction
    found = _callers("polyring.py", FRACTION_BUILDERS)
    assert {"Poly.terms", "Poly.eval"} <= found
    assert found <= {"_as_fraction", "Poly.terms", "Poly.eval"}, found
    assert importlib.import_module("axc.polyring").Poly.__slots__ == ("n", "_den", "_nums")


def test_operators_pass_integer_factor_pairs():
    # a term map's image factor is r/s as two ints, so the operator modules
    # build no Fraction and termwise takes no Fraction apart
    for module in ("hodge.py", "homotopy.py", "clifford.py", "solvers.py"):
        assert _callers(module, FRACTION_BUILDERS) == set(), module
    termwise = next(node for node in ast.walk(dict(_kernel_trees())["forms.py"])
                    if isinstance(node, ast.FunctionDef) and node.name == "termwise")
    read = set().union(*map(_names, ast.walk(termwise)))
    assert not read & {"numerator", "denominator"}, read


def test_solvers_sums_g_on_integer_numerators():
    # G is summed by Horner's rule, each step one _sum_numerators call over
    # integer numerators, so the solvers build no Poly and multiply none
    for node in ast.walk(dict(_kernel_trees())["solvers.py"]):
        named = _names(node) & {"Poly", "_poly", "_int_mul"}
        assert not named, f"solvers.py:{getattr(node, 'lineno', '?')} names {named}"


def test_poly_and_form_share_one_numerator_arithmetic():
    # the two classes store one format, so its arithmetic is written once, on
    # _Numerators; __add__ is bound on each class too, for the tracer to wrap
    polyring = importlib.import_module("axc.polyring")
    base, poly, form = polyring._Numerators, polyring.Poly, importlib.import_module("axc.forms").Form
    for name in ("__neg__", "__sub__", "scale", "is_zero", "__eq__", "__hash__"):
        assert name in vars(base) and name not in vars(poly) and name not in vars(form), name
    assert vars(poly)["__add__"] is vars(form)["__add__"] is vars(base)["__add__"]


def test_textio_lifts_rows_into_a_form_through_forms():
    # the parser and re-centering lift (index tuple, Poly) rows by forms._lifted;
    # only the polynomial grammar sums numerators itself
    assert _callers("textio.py", {"_sum_numerators"}) == {"_Parser.parse_poly_expr"}


def test_basis_signs_are_placed_by_forms_hodge_and_textio_only():
    # forms builds the generator tables from _merge_indices, hodge the star's
    # complement sign and textio the parser's basis sort; every other rule
    # reads its sign from forms._wedge_slots or forms._contract_slots
    for name, tree in _kernel_trees():
        if name in ("forms.py", "hodge.py", "textio.py"):
            continue
        for node in ast.walk(tree):
            assert "_merge_indices" not in _names(node), f"{name}:{node.lineno}"


def test_textio_reads_rows_through_the_one_walk():
    # the printer, the JSON writer and re-centering read a form's rows through
    # forms._rows, in its canonical order, never through the components view
    tree = dict(_kernel_trees())["textio.py"]
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Attribute) and node.attr == "components"), (
            f"textio.py:{node.lineno} reads components")


def test_json_text_is_written_in_one_function():
    # the JSON text format (two-space indent, sorted keys) is decided by the
    # CLI's one writer; the printer returns the canonical text only
    found = {f"{name}:{where}" for name, _ in _kernel_trees()
             for where in _callers(name, {"dumps"})}
    assert found == {"cli.py:_print_json"}, found
    print_form = importlib.import_module("axc.textio").print_form
    assert list(inspect.signature(print_form).parameters) == ["omega"]


def test_no_lambda_only_forwards_to_a_term_map():
    # a term map gets its context as Form.termwise(fn, *args), not through a
    # closure built on every call
    for name, tree in _kernel_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
                called = _names(node.body.func)
                assert not any(c.endswith("_terms") for c in called), (
                    f"{name}:{node.lineno} wraps {called} in a lambda")


def _readme_list(label: str) -> list[str]:
    """The backquoted names after ``label:`` in the README, up to the sentence's end."""
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    start = text.index(label + ":") + len(label) + 1
    return re.findall(r"`([^`]+)`", text[start:text.index(".", start)])


def test_input_flag_is_shared_by_the_form_commands():
    # --in is declared once, as a parent parser; a subcommand that drops its
    # parent loses the flag and fails here
    assert sorted(cli_subcommands_with("infile")) == sorted(
        ["apply", "decompose", "member", "potential", "copotential", "solve", "oscillator"])


def test_readme_lists_the_cli_choices():
    assert sorted(_readme_list("Operators for `apply`")) == sorted(cli_choices("apply", "op"))
    assert sorted(_readme_list("Membership spaces")) == sorted(cli_choices("member", "space"))
    assert sorted(_readme_list("switches their output to JSON")) == sorted(
        cli_subcommands_with("json"))


def test_tracer_sees_the_calls_of_both_halves():
    # spans.install rebinds module globals and Form.d in place, so an operator
    # captured at import time (in a module-level tuple, say) would run
    # untraced without any error; the exact and coexact halves must each show
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import spans
        import axc
        rec = spans.Recorder()
        spans.install(rec)
        ctx = axc.Context.euclidean(3)
        x1 = axc.Poly.variable(3, 1)
        j = axc.Form.basis(ctx, (1, 2, 3), x1 * x1)
        w = axc.Form.basis(ctx, (1,), x1) + axc.Form.basis(ctx, (2, 3), x1)
        rec.item = 0
        assert axc.maxwell_solve_magnetic(j).success
        for mode in axc.DecompositionMode:
            axc.decompose(w, mode)
        rec.item = None
        print(json.dumps({name: rec.stat(name)[0] for name in sys.argv[2:]}))
    """
    names = ["forms.d", "hodge.codifferential", "homotopy.H", "homotopy.h",
             "solvers.laplace_solve", "forms.add"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code, str(SPANS.parent), *names], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    calls = json.loads(out)
    assert all(calls[name] >= 1 for name in names), calls


def test_tracer_sees_a_subtraction_as_an_addition():
    # "-" adds the negated operand through the class-bound __add__ that the
    # tracer wraps; a "-" that called _Numerators.__add__ itself would run untraced
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import spans
        import axc
        rec = spans.Recorder()
        spans.install(rec)
        p = axc.Poly.variable(2, 1)
        w = axc.Form.from_poly(axc.Context.euclidean(2), p)
        rec.item = 0
        assert (p - p).is_zero and (w - w).is_zero
        rec.item = None
        print(json.dumps([rec.stat("polyring.add")[0], rec.stat("forms.add")[0]]))
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code, str(SPANS.parent)], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert json.loads(out) == [1, 1]


def test_tracer_sees_the_clifford_rows_of_the_cli(tmp_path):
    # the CLI's Clifford rows must look up apply_operator when they run; a row
    # bound to the function itself (a functools.partial, say) keeps the
    # unwrapped one and runs untraced without any error
    code = """if True:
        import contextlib, io, sys
        sys.path.insert(0, sys.argv[1])
        import spans
        import axc.cli
        rec = spans.Recorder()
        spans.install(rec)
        rec.item = 0
        with contextlib.redirect_stdout(io.StringIO()):
            for op in ("dirac", "antidirac", "laplace", "hbar"):
                assert axc.cli.main(["--dim", "3", "apply", "--op", op, "--in", sys.argv[2]]) == 0
        rec.item = None
        print(rec.stat("clifford.apply_operator")[0])
    """
    src = tmp_path / "w.txt"
    src.write_text("(x1^2*x2) dx1 + (x3^3) dx2^dx3")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code, str(SPANS.parent), str(src)], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert int(out) == 4


def _unused_imports(path: Path) -> list[str]:
    """``line: name`` of each name that a file imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


def test_no_file_imports_a_name_it_never_reads():
    # the package's __init__.py imports to re-export, so it is left out
    paths = [p for p in (ROOT / "src" / "axc").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    unused = {str(p.relative_to(ROOT)): _unused_imports(p) for p in sorted(paths)}
    assert not {p: names for p, names in unused.items() if names}
