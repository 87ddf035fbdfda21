"""Exact symbolic exterior calculus on star-shaped charts.

Homotopy and cohomotopy operators, the exact/antiexact and
coexact/anticoexact direct-sum decompositions, Clifford/Dirac operators, and
solution pipelines for Maxwell, Kalb-Ramond, and Dirac-type equations --
everything over exact rational polynomial coefficients.
"""

from .clifford import (
    OperatorTag,
    OscillatorReport,
    apply_operator,
    clifford_vec_mul,
    grade_block_check,
    laplace_beltrami,
    oscillator_eigencheck,
)
from .forms import Form, VectorField, form_linear, interior
from .hodge import codifferential, hodge_star, hodge_star_inv, musical_flat, musical_sharp
from .homotopy import (
    Decomposition,
    DecompositionMode,
    SpaceTag,
    anticoexact_wedge_factor,
    cohomotopy_h,
    copotential,
    decompose,
    homotopy_H,
    k_field,
    membership,
    potential,
)
from .identities import run_identities
# unused by the kernel: the tests' elimination oracle; bench/spans.py reads it from sys.modules
from . import linsolve  # noqa: F401
from .polyring import Context, Poly, Rational, rebase
from .solvers import (
    SolveReport,
    VacuumDiracClass,
    VacuumDiracKind,
    dirac_source_solve,
    kalb_ramond_solve,
    kr_maxwell_couple,
    laplace_solve,
    massive_dirac_check,
    maxwell_solve,
    maxwell_solve_magnetic,
    vacuum_dirac_classify,
)
from .textio import form_from_json, form_to_json, parse_form, print_form

__all__ = [
    "Context",
    "Decomposition",
    "DecompositionMode",
    "Form",
    "OperatorTag",
    "OscillatorReport",
    "Poly",
    "Rational",
    "SolveReport",
    "SpaceTag",
    "VacuumDiracClass",
    "VacuumDiracKind",
    "VectorField",
    "anticoexact_wedge_factor",
    "apply_operator",
    "clifford_vec_mul",
    "codifferential",
    "cohomotopy_h",
    "copotential",
    "decompose",
    "dirac_source_solve",
    "form_from_json",
    "form_linear",
    "form_to_json",
    "grade_block_check",
    "hodge_star",
    "hodge_star_inv",
    "homotopy_H",
    "interior",
    "k_field",
    "kalb_ramond_solve",
    "kr_maxwell_couple",
    "laplace_beltrami",
    "laplace_solve",
    "massive_dirac_check",
    "maxwell_solve",
    "maxwell_solve_magnetic",
    "membership",
    "musical_flat",
    "musical_sharp",
    "oscillator_eigencheck",
    "parse_form",
    "potential",
    "print_form",
    "rebase",
    "run_identities",
    "vacuum_dirac_classify",
]

__version__ = "0.1.0"
