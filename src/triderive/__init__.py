"""Exact arithmetic in the Lie algebra of triangular polynomial
derivations over the rationals, and in its automorphism group.

Each name below loads its submodule on first use (PEP 562)."""

from importlib import import_module

_HOMES = {
    "errors": ("TriderivError", "DomainError", "DegreeCapError",
               "TruncationError", "InternalError", "DslError", "ParseError",
               "SemanticError"),
    "poly": ("rat", "rat_str", "Poly"),
    "ordinals": ("OrdinalCNF", "ord_compare", "ord_of_basis"),
    "lie": ("LieElem", "basis_compare", "bracket", "exp_ad_apply",
            "leading_term", "ord_of_element", "ideal_membership", "center_solve"),
    "triaut": ("TriAut", "conjugate_derivation", "exp_map", "log_map",
               "reconstruct_from_frames", "normalize_mod_shn"),
    "series": ("OpSeries",),
    "autgroup": ("GnElem", "AutoAction", "act", "decompose", "convert_form",
                 "multiply_formula", "gn_inverse", "exp_ad_auto"),
    "dsl": ("parse", "print_value", "gnelem_from_json", "gnelem_to_json"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached here, so a name rebound in its home module is seen.
    if name in _HOME_OF:
        return getattr(import_module(f".{_HOME_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
