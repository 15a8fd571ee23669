"""Exact quantum invariants of links and 3-manifolds in cyclotomic rings.

``import cycloquant`` registers the six submodules lazily: each is in
``sys.modules`` at once, but it is compiled and executed only when one
of its attributes is first read. A command that never touches braids
or Z_N therefore never executes ``links`` or ``moo``. The exports below
are read from their modules on first use (PEP 562).
"""

import importlib.util
import sys

_EXPORTS = {
    "rings": (
        "A",
        "CycloElem",
        "CycloFraction",
        "DenominatorNotInvertibleError",
        "LaurentPoly",
        "ModCycloElem",
        "NotAUnitError",
        "OrderMismatchError",
        "RecursionBudgetExceeded",
        "cyclotomic_poly",
        "ideal_gcd_poly",
        "ideal_membership_cyclo",
        "invert",
        "laurent_ideal_membership",
        "parse_laurent",
        "parse_ring_element",
        "reduce",
        "reduce_mod_p",
    ),
    "gauss": (
        "GrResult",
        "eta_minus",
        "eta_plus",
        "g_r",
        "gauss_sum",
        "quantum_int",
        "quantum_int_laurent",
        "s1",
        "s2",
    ),
    "links": (
        "BraidWord",
        "FramedBraidLink",
        "LinkingMatrix",
        "SigTriple",
        "StrongPeriodicityResult",
        "closure_components",
        "j_invariant",
        "lift_component_rotation",
        "linking_matrix",
        "periodic_lift",
        "signature_counts",
        "strong_periodicity_check",
    ),
    "moo": ("MooValue", "bracket_sum", "moo_fast", "moo_invariant"),
    "criteria": (
        "LENS_SPACE_2_1_LEVEL_5",
        "ObstructionVerdict",
        "Witness",
        "check_cor_1_2",
        "check_thm_1_1",
        "check_thm_4_1",
        "check_thm_5_1",
        "powers_of_A_char0",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

# importers before the modules they import (the cli is not an export's
# home but is registered too): code that walks sys.modules in order and
# rebinds a function wherever it is bound, as perfbench/tracer.py does,
# then executes every importer before it rebinds what the importer binds
for _module in ("cli", *reversed(_EXPORTS)):
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
