"""Generated checks over ``axc.__all__``: every public function rejects an
operand of the wrong class in each ``Form``, ``VectorField``, ``Poly`` or
``Context`` slot, and the package binds exactly its public names, each on
first use."""

import enum
import inspect

import pytest

import axc
from axc.forms import Form
from axc.homotopy import center_pullback, center_top_eval, k_field
from axc.polyring import Context, Poly

CTX = Context.euclidean(3)
# a well-formed operand per slot class, and a wrong one in every other slot
OPERAND = {"Form": Form.basis(CTX, (1,), Poly.variable(3, 1)), "VectorField": k_field(CTX),
           "Poly": Poly.variable(3, 1), "Context": CTX}
# well-formed arguments for the parameters that name no operand class
ARGUMENT = {"text": "dx1", "old_center": (0, 0, 0), "new_center": (0, 0, 0)}


def _others(cls: str) -> list:
    """An int and the operand of every slot class but ``cls``."""
    return [3, *(x for name, x in OPERAND.items() if name != cls)]


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
    if param.name in ARGUMENT:
        return ARGUMENT[param.name]
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
    for x in _others(params[slot].annotation):
        with pytest.raises(TypeError):
            getattr(axc, name)(**{**args, slot: x})


def test_the_generated_slots_cover_the_operand_entries():
    # a signature that lost its annotation would drop out of the generated test
    names = {name for name, _ in _slots()}
    assert {"potential", "print_form", "form_to_json", "laplace_solve", "musical_sharp",
            "vacuum_dirac_classify", "interior", "musical_flat", "rebase", "k_field",
            "run_identities", "parse_form"} <= names


@pytest.mark.parametrize("fn", [center_pullback, center_top_eval], ids=lambda fn: fn.__name__)
def test_the_center_maps_reject_every_other_class(fn):
    # s* and S are public operators outside axc.__all__
    for x in _others("Form"):
        with pytest.raises(TypeError):
            fn(x)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from axc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == axc.__all__
    assert len(axc.__all__) == 44
    assert set(axc.__all__) <= set(dir(axc))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        axc.no_such_name


def test_every_public_name_is_defined_in_the_package():
    # a public name is the package's own object, never a re-exported alias of
    # another library's
    foreign = {name: getattr(axc, name).__module__ for name in axc.__all__
               if not getattr(axc, name).__module__.startswith("axc.")}
    assert foreign == {}
