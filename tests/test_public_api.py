"""Generated checks over ``axc.__all__``: every public function rejects an
operand of the wrong class in each ``Form`` or ``VectorField`` slot, and the
package binds exactly its public names, each on first use."""

import enum
import inspect

import pytest

import axc
from axc.forms import Form
from axc.homotopy import k_field
from axc.polyring import Context, Poly

CTX = Context.euclidean(3)
# a well-formed operand per slot class, and the one of the other class
OPERAND = {"Form": Form.basis(CTX, (1,), Poly.variable(3, 1)), "VectorField": k_field(CTX)}
OTHER = {"Form": OPERAND["VectorField"], "VectorField": OPERAND["Form"]}


def _slots():
    """(function name, parameter name) of every operand slot of a public function."""
    for name in axc.__all__:
        fn = getattr(axc, name)
        if inspect.isfunction(fn):
            for param in inspect.signature(fn).parameters.values():
                if param.annotation in OPERAND:
                    yield name, param.name


def _valid(param):
    """A well-formed argument for a slot that is not under test."""
    if param.default is not param.empty:
        return param.default
    if param.annotation in OPERAND:
        return OPERAND[param.annotation]
    hint = getattr(axc, param.annotation, None) if isinstance(param.annotation, str) else None
    if isinstance(hint, enum.EnumMeta):
        return next(iter(hint))
    return 1  # a grade or a scale factor


@pytest.mark.parametrize("name, slot", list(_slots()))
def test_an_operand_slot_rejects_every_other_class(name, slot):
    # the class is checked before any member is read, so no AttributeError escapes
    params = inspect.signature(getattr(axc, name)).parameters
    args = {p: _valid(param) for p, param in params.items()}
    for x in (3, Poly.variable(3, 1), OTHER[params[slot].annotation]):
        with pytest.raises(TypeError):
            getattr(axc, name)(**{**args, slot: x})


def test_the_generated_slots_cover_the_operand_entries():
    # a signature that lost its annotation would drop out of the generated test
    names = {name for name, _ in _slots()}
    assert {"potential", "print_form", "form_to_json", "laplace_solve", "musical_sharp",
            "vacuum_dirac_classify", "interior", "musical_flat"} <= names


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from axc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == axc.__all__
    assert len(axc.__all__) == 47
    assert set(axc.__all__) <= set(dir(axc))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        axc.no_such_name
