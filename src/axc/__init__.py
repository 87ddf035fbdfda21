"""Exact symbolic exterior calculus on star-shaped charts.

Homotopy and cohomotopy operators, the exact/antiexact and
coexact/anticoexact direct-sum decompositions, Clifford/Dirac operators, and
solution pipelines for Maxwell, Kalb-Ramond, and Dirac-type equations --
everything over exact rational polynomial coefficients.

``import axc`` executes none of the library modules.  Each is registered in
``sys.modules`` through :class:`importlib.util.LazyLoader` and runs on the
first read of one of its attributes, and each public name is read from its
module on first use (PEP 562), so an ``axc`` process compiles and runs only
the modules its subcommand uses.  CPython 3.11's ``LazyLoader`` does not
guard a first access made from two threads at once; axc starts no threads.
"""

import importlib.util
import sys

# library module -> the public names it defines
_PUBLIC = {
    "clifford": ("OperatorTag", "OscillatorReport", "apply_operator", "clifford_vec_mul",
                 "grade_block_check", "laplace_beltrami", "oscillator_eigencheck"),
    "errors": (),
    "forms": ("Form", "VectorField", "interior"),
    "hodge": ("codifferential", "hodge_star", "hodge_star_inv", "musical_flat", "musical_sharp"),
    "homotopy": ("Decomposition", "DecompositionMode", "SpaceTag", "anticoexact_wedge_factor",
                 "cohomotopy_h", "copotential", "decompose", "homotopy_H", "k_field",
                 "membership", "potential"),
    "identities": ("run_identities",),
    # unused by the kernel: the tests' elimination oracle; bench/spans.py reads it from sys.modules
    "linsolve": (),
    "polyring": ("Context", "Poly", "rebase"),
    "randforms": (),
    "solvers": ("SolveReport", "VacuumDiracClass", "VacuumDiracKind", "dirac_source_solve",
                "kalb_ramond_solve", "kr_maxwell_couple", "laplace_solve", "massive_dirac_check",
                "maxwell_solve", "maxwell_solve_magnetic", "vacuum_dirac_classify"),
    "textio": ("form_from_json", "form_to_json", "parse_form", "print_form"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_OWNER)

__version__ = "0.1.0"


def _lazy(name: str):
    """Register ``axc.<name>`` in ``sys.modules`` unexecuted; it runs on first use.
    ``axc.cli`` is not registered: ``-m axc.cli`` warns if it is in ``sys.modules``."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update((name, _lazy(name)) for name in _PUBLIC)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted([*globals(), *__all__])
