"""Exact-arithmetic computation of the codimension-two Brill-Noether class
on the moduli space of stable curves: enumerative counts, test-surface
linear system, exact rational solve, and cross-checks.

``import bn2`` loads no submodule.  Each exported name is looked up in its
submodule on first access (PEP 562), so a command pays only for the modules
it runs, and ``bn2.<name>`` is always the object ``bn2.<module>.<name>``."""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("ClassLabel", "basis_dimension", "enumerate_basis"),
        "basis",
    ),
    "ClassExpression": "classes",
    **dict.fromkeys(
        (
            "SchubertIndex",
            "castelnuovo_N",
            "count_ell",
            "count_m",
            "count_n",
            "rho",
            "sum_D",
            "sum_S16",
            "sum_T",
        ),
        "enumerative",
    ),
    **dict.fromkeys(
        ("RelationSystem", "build_relations", "build_rhs_vector", "evaluate_rhs"),
        "relations",
    ),
    "solve_class": "triangular",
    **dict.fromkeys(
        ("closed_form_class", "pullback_image", "pullback_matrix", "known_trigonal_class"),
        "verify",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
