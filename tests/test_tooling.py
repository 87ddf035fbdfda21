"""The benchmark's span recorder wraps kernel functions by name; every name
it lists must resolve, so a rename fails here instead of in a traced run.
The kernel's import, environment and ``Fraction`` rules, the README's lists
of CLI choices, the CLI's shared flags, the console-script entry point, the
absence of unused imports and the modules that one CLI command runs are
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


# `python -m axc.cli ARGV` in process under an audit hook on "exec", which sees
# every module body that runs, compiled from source or read from __pycache__.
# The report goes to stderr as one literal, so stdout and the exit code are the CLI's.
AUDITED_CLI = """if True:
    import os, runpy, sys
    ran = set()
    def hook(event, args):
        if event == "exec":
            ran.add(os.path.basename(getattr(args[0], "co_filename", "")))
    sys.addaudithook(hook)
    sys.argv = ["axc", *sys.argv[1:]]
    try:
        runpy.run_module("axc.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    print(repr((sorted(ran), "json" in sys.modules)), file=sys.stderr)
    sys.exit(code)
"""


def _audited_cli(tmp_path, text: str, *argv: str):
    """(exit code, stdout, module files run, json loaded) of ``axc --dim 2 ARGV --in FILE``
    in a fresh interpreter that turns every warning into an error."""
    src = tmp_path / "w.txt"
    src.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error", "-c", AUDITED_CLI,
                           "--dim", "2", *argv, "--in", str(src)],
                          env=env, capture_output=True, text=True, timeout=60)
    ran, json_loaded = ast.literal_eval(done.stderr.splitlines()[-1])
    return done.returncode, done.stdout, set(ran), json_loaded


def test_a_text_command_runs_no_solver_identity_or_json_code(tmp_path):
    # import axc registers the modules unexecuted, so `apply` runs only what it uses
    code, out, ran, json_loaded = _audited_cli(tmp_path, "(x1*x2) dx1", "apply", "--op", "d")
    assert (code, out) == (0, "(-x1) dx1^dx2\n")
    assert {"cli.py", "forms.py", "textio.py"} <= ran
    assert not ran & {"solvers.py", "identities.py", "randforms.py", "linsolve.py"}
    assert not json_loaded


def test_a_solve_command_runs_the_solvers(tmp_path):
    code, out, ran, _ = _audited_cli(tmp_path, "dx1", "solve", "maxwell")
    assert (code, out.splitlines()[0], out.splitlines()[-1]) == (
        0, "F = (x2) dx1^dx2", "status: success")
    assert "solvers.py" in ran


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
    # _sum_numerators and the whole-form loops group their terms by
    # denominator and end in polyring._merged, the one function that lifts
    # over an lcm, and _reduced is the one gcd tail
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
    # every operator sums integer numerators over integer denominators, so
    # the operator modules build no Fraction
    for module in ("hodge.py", "homotopy.py", "clifford.py", "solvers.py"):
        assert _callers(module, FRACTION_BUILDERS) == set(), module


# random's draw helpers: each would be a second rule over the generator's bits
RANDOM_HELPERS = {"randint", "randrange", "choice", "choices", "shuffle", "random", "uniform"}


def test_randforms_draws_by_one_rule_on_the_generators_bits():
    # every draw is randforms._below on getrandbits; sample is handed only the
    # draws that its pool rule does not take, and reads the same stream
    assert _callers("randforms.py", RANDOM_HELPERS) == set()
    assert _callers("randforms.py", {"sample"}) == {"_sample"}
    tree = dict(_kernel_trees())["randforms.py"]
    [fn] = [node for node in tree.body if getattr(node, "name", None) == "_sample"]
    [branch] = [node for node in fn.body if isinstance(node, ast.If)]
    assert ast.unparse(branch.test) == "n > 21 or k > 5"
    delegated = {id(node) for stmt in branch.body for node in ast.walk(stmt)}
    assert all(id(node) in delegated for node in ast.walk(fn)
               if isinstance(node, ast.Call) and "sample" in _names(node.func))


def _is_slice(node) -> bool:
    return isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)


def test_term_maps_build_each_image_in_one_step():
    # box's term rule, wedge, interior and the whole-form loops of d, delta, H,
    # h and op G step or add exponents through one list update or one
    # map(add, ...), never a generator or a tuple glued from slices, which
    # cost a frame or three tuples per image
    maps = {"forms.py": {"_lower", "_raise", "wedge", "interior"},
            "clifford.py": {"box_terms"}, "solvers.py": {"_op_g"}}
    seen = set()
    for name, tree in _kernel_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in maps.get(name, ()):
                seen.add(node.name)
                for inner in ast.walk(node):
                    where = f"{name}:{node.name}:{getattr(inner, 'lineno', '?')}"
                    assert not isinstance(inner, (ast.Yield, ast.YieldFrom)), f"{where} yields"
                    assert not (isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Add)
                                and (_is_slice(inner.left) or _is_slice(inner.right))), (
                        f"{where} adds slices")
    assert seen == set().union(*maps.values()), seen


def test_solvers_sums_g_on_integer_numerators():
    # G is summed by Horner's rule, each step one _sum_numerators call over
    # integer numerators, so the solvers build no Poly and multiply none
    for node in ast.walk(dict(_kernel_trees())["solvers.py"]):
        named = _names(node) & {"Poly", "_poly", "_int_mul"}
        assert not named, f"solvers.py:{getattr(node, 'lineno', '?')} names {named}"


def test_close_applies_op_g_without_building_g():
    # _close runs d G or delta G as one loop on the cached gradient of G;
    # a laplace_solve there would build G(u) and differentiate it again
    assert "_close" not in _callers("solvers.py", {"laplace_solve"})
    # the rows of d, delta, H and h have one home, the tables of
    # forms._op_table, read by the two whole-form loops, by h's weight, by op G
    # and by interior's contraction alike; op G reads them by the differential's
    # name, with no flag to branch on
    readers = {f"{name}:{where}" for name, _ in _kernel_trees()
               for where in _callers(name, {"_op_table"})}
    assert readers == {"forms.py:_lower", "forms.py:_raise", "forms.py:interior",
                       "homotopy.py:anticoexact_wedge_factor", "solvers.py:_op_g"}, readers
    op_g = importlib.import_module("axc.solvers")._op_g
    assert list(inspect.signature(op_g).parameters) == ["u", "op"]


def test_d_delta_H_h_and_op_g_run_as_whole_form_loops():
    # each of these operators has one path, its loop over the whole form:
    # no per-term map of theirs is left
    for name, tree in _kernel_trees():
        named = set().union(*map(_names, ast.walk(tree)))
        left = named & {"_lower_terms", "_raise_terms", "_op_g_terms"}
        assert not left, f"{name} names {left}"
    operators = {"forms.py": {"Form.d"}, "hodge.py": {"codifferential"},
                 "homotopy.py": {"homotopy_H", "cohomotopy_h"}, "solvers.py": {"_close"}}
    for name, wheres in operators.items():
        assert wheres <= _callers(name, {"_lower", "_raise", "_op_g"}), name


def test_relabels_and_filters_sum_nothing():
    # terms are summed only where they can meet: no generic term-map driver
    # is left, star, star_inv and eta move or sign each term and keep the
    # denominator, and the filters only divide out the common gcd
    for name, tree in _kernel_trees():
        named = set().union(*map(_names, ast.walk(tree)))
        assert "termwise" not in named, name
    sums = {"_merged", "_sum_numerators"}
    assert not {"_star"} & _callers("hodge.py", sums | {"_reduced"})
    assert not {"Form.eta"} & _callers("forms.py", sums | {"_reduced"})
    assert not {"Form._kept"} & _callers("forms.py", sums)
    assert "Form._kept" in _callers("forms.py", {"_reduced"})


def test_membership_reads_H_and_h_and_the_radial_field_is_built_once_per_chart():
    # the antiexact and anticoexact spaces are the kernels of H and h (with no
    # constant term), so membership builds no K or K^flat and runs neither
    # i_K nor K^flat ^; only the identity checks of i_K and K^flat ^ build
    # them, by the public constructors, in one cached helper per chart
    membership = next(node for node in ast.walk(dict(_kernel_trees())["homotopy.py"])
                      if isinstance(node, ast.FunctionDef) and node.name == "membership")
    named = set().union(*map(_names, ast.walk(membership)))
    assert {"homotopy_H", "cohomotopy_h"} <= named, named
    assert not named & {"k_field", "musical_flat", "interior", "wedge"}, named
    assert _callers("identities.py", {"k_field", "musical_flat"}) == {"_radial"}
    assert callable(importlib.import_module("axc.identities")._radial.cache_info)


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


def _eps_twists() -> set:
    """``(module, function, line)`` of each negation or product in the kernel
    that both negates and reads an entry of ``signature``: the -eps_i twist
    that makes delta and h the star-conjugates of d and H."""
    found = set()

    def twists(node) -> bool:
        inside = list(ast.walk(node))
        return (any(isinstance(x, ast.UnaryOp) and isinstance(x.op, ast.USub) for x in inside)
                and any(isinstance(x, ast.Subscript) and "signature" in _names(x.value)
                        for x in inside))

    def visit(node, module, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if ((isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub))
                or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult))) and twists(node):
            found.add((module, where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for name, tree in _kernel_trees():
        visit(tree, name, "<module>")
    return found


def test_basis_signs_are_placed_by_forms_hodge_and_textio_only():
    # forms builds the generator rows and the wedge from the one sign table
    # _WEDGE_SIGNS, hodge the star's complement sign and textio the parser's
    # basis sort; every other rule, interior's included, reads its sign from
    # the row tables of forms._op_table
    for name, tree in _kernel_trees():
        if name in ("forms.py", "hodge.py", "textio.py"):
            continue
        for node in ast.walk(tree):
            named = _names(node) & {"_WEDGE_SIGNS", "_wedge_sign"}
            assert not named, f"{name}:{getattr(node, 'lineno', '?')} reads {named}"
    # the -eps_i twist of delta and h is written once, in the row builder
    # _op_rows, and only forms' table of tables calls that builder
    assert [where for _, where, _ in _eps_twists()] == ["_op_rows"], _eps_twists()
    for name, tree in _kernel_trees():
        for node in ast.walk(tree):
            assert name == "forms.py" or "_op_rows" not in _names(node), (
                f"{name}:{getattr(node, 'lineno', '?')} reads _op_rows")
    assert _callers("forms.py", {"_op_rows"}) == set()  # only handed to partial, never called


def test_kernel_caches_are_the_five_tables_read_again():
    # the basis sign per pair of masks, the index tuple per mask, the per-mask
    # tables of the row builder and the star's signs (one per operator and
    # chart), the radial field per chart and the gradient of G, the one cache
    # of G; G itself and the builders are read through them, so a cache on any
    # would keep a second copy of what those tables hold.  A cache is an
    # lru_cache decorator or a module-level forms._Table, the dict that builds
    # its entries on first read
    cached, uses, tables = set(), 0, 0
    for name, tree in _kernel_trees():
        for node in ast.walk(tree):
            uses += bool(_names(node) & {"lru_cache", "cache"})
            tables += isinstance(node, ast.Call) and "_Table" in _names(node.func)
            if isinstance(node, ast.FunctionDef) and any(
                    set().union(*map(_names, ast.walk(dec))) & {"lru_cache", "cache"}
                    for dec in node.decorator_list):
                cached.add(f"{name}:{node.name}")
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and (
                    "_Table" in _names(node.value.func)):
                cached.add(f"{name}:{node.targets[0].id}")
    assert cached == {"forms.py:_WEDGE_SIGNS", "forms.py:_INDICES", "forms.py:_TABLES",
                      "identities.py:_radial", "solvers.py:_inverse_box_grad"}, cached
    assert uses == 2, "a cache made other than as a decorator"
    # the three module-level tables and the per-mask table _TABLES builds
    assert tables == 4, "a _Table made other than as one of the five caches"


# The packed-key operators: each term's key is read and written as an int, so
# no tuple is built per term or per row.  The Poly kernel's loops, box and G
# hand each term to a sum or a column as one flat (key, numerator[, denominator])
# entry, the one tuple they may build per term (ENTRIES).
PACKED_LOOPS = {"forms.py": {"_lower", "_raise", "wedge", "_kept"}, "hodge.py": {"_star"},
                "solvers.py": {"_op_g", "_inverse_box", "_inverse_box_grad"},
                "polyring.py": {"_int_mul", "partial", "_taylor_shift_axis"},
                "clifford.py": {"box_terms"}}
ENTRIES = {"_inverse_box", "box_terms"}


def _per_term_nodes(fn) -> list:
    """The nodes that run once per term or row: the bodies of ``fn``'s loops and
    the elements and conditions of its comprehensions."""
    parts = []
    for node in ast.walk(fn):
        if isinstance(node, ast.For):
            parts += node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            parts += [node.elt, *(cond for gen in node.generators for cond in gen.ifs)]
        elif isinstance(node, ast.DictComp):
            parts += [node.key, node.value, *(cond for gen in node.generators for cond in gen.ifs)]
    return [inner for part in parts for inner in ast.walk(part)]


def _flat_entries(fn) -> set:
    """``id`` of each tuple display that is a comprehension's element or an
    ``append``'s argument and holds no tuple display or slice: a record of ints."""
    found = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            candidates = [node.elt]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "append":
            candidates = node.args
        else:
            continue
        found |= {id(c) for c in candidates if isinstance(c, ast.Tuple) and not any(
            isinstance(x, (ast.Tuple, ast.Slice)) for elt in c.elts for x in ast.walk(elt))}
    return found


def test_packed_operators_build_no_tuple_per_term():
    # a parallel assignment of up to three names (``a, b = x, y``) compiles to
    # no tuple; any other tuple display, any tuple() call and any slice (the
    # glue of an exponent tuple) builds one
    seen = set()
    for name, tree in _kernel_trees():
        for fn in ast.walk(tree):
            if not (isinstance(fn, ast.FunctionDef) and fn.name in PACKED_LOOPS.get(name, ())):
                continue
            seen.add(fn.name)
            allowed = {id(node.value) for node in ast.walk(fn)
                       if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
                       and isinstance(node.value, ast.Tuple)
                       and len(node.targets[0].elts) == len(node.value.elts) <= 3}
            if fn.name in ENTRIES:
                allowed |= _flat_entries(fn)
            for node in _per_term_nodes(fn):
                where = f"{name}:{fn.name}:{getattr(node, 'lineno', '?')}"
                assert not (isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load)
                            and id(node) not in allowed), f"{where} builds a tuple"
                assert not (isinstance(node, ast.Call) and "tuple" in _names(node.func)), (
                    f"{where} calls tuple")
                assert not isinstance(node, ast.Slice), f"{where} slices"
    assert seen == set().union(*PACKED_LOOPS.values()), seen


def test_exponent_tuples_are_packed_and_read_only_at_the_edges():
    # a key is packed from an exponent tuple only where a Poly or a Form takes
    # one from its caller, and read back only where terms go out to one: every
    # other crossing between Poly and Form is integer arithmetic on keys
    def callers(called):
        return {f"{name}:{where}" for name, _ in _kernel_trees()
                for where in _callers(name, {called})}

    assert callers("_packed") == {"polyring.py:Poly.__init__", "polyring.py:Poly.from_terms",
                                  "forms.py:Form.from_terms"}
    assert callers("_exponents") == {"polyring.py:Poly.terms", "forms.py:Form.terms",
                                     "forms.py:Form.eval_at", "textio.py:_recentered"}


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
    # each operator passes over the form itself, so no closure around a
    # term map is built on every call
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


def test_console_script_names_a_callable_entry_point():
    # the installed `axc` command runs the target of [project.scripts]; a
    # renamed module or function fails here, not at the first install
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^axc = "([\w.]+):(\w+)"$', text, re.MULTILINE).groups()
    assert callable(getattr(importlib.import_module(module), function))


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
        assert not axc.laplace_solve(j, 3).is_zero
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


def _unread_parameters() -> list[str]:
    """``module:line function(parameter)`` of each parameter of a kernel function
    or lambda that its body never reads.  The checks in ``identities.CHECKS`` all
    take ``(ctx, w, rng)``, read or not, so their parameters are exempt, as are
    a method's receiver (``self`` or ``cls``) and a slot named ``_``."""
    found = []
    for name, tree in _kernel_trees():
        protocol = set()
        for node in tree.body:
            if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "CHECKS":
                protocol = {value.id for value in node.value.values}
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            where = getattr(node, "name", "<lambda>")
            if where in protocol:
                continue
            a = node.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x]
            if id(node) in methods and not any("staticmethod" in _names(d)
                                               for d in node.decorator_list):
                params = params[1:]
            read = {x.id for x in ast.walk(node) if isinstance(x, ast.Name)}
            found += [f"{name}:{node.lineno} {where}({p})" for p in params
                      if p not in read and p != "_"]
    return found


def test_every_parameter_is_read():
    # a parameter that no body reads is an argument every caller passes for nothing
    assert _unread_parameters() == []


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


def _python_files() -> list[Path]:
    """Every ``.py`` file of ``src/axc``, ``tests`` and ``tools``."""
    return sorted(p for d in ("src/axc", "tests", "tools") for p in (ROOT / d).glob("*.py"))


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; syntax that only a
    # later grammar accepts (except*, PEP 695 type parameters) fails here
    for path in _python_files():
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_no_file_imports_a_name_it_never_reads():
    # the package's __init__.py imports to re-export, so it is left out
    paths = [p for p in (ROOT / "src" / "axc").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    unused = {str(p.relative_to(ROOT)): _unused_imports(p) for p in sorted(paths)}
    assert not {p: names for p, names in unused.items() if names}
