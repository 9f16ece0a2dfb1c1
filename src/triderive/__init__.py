"""Exact arithmetic in the Lie algebra of triangular polynomial
derivations over the rationals, and in its automorphism group."""

from .errors import (DegreeCapError, DomainError, DslError, InternalError,
                     ParseError, SemanticError, TriderivError, TruncationError)
from .poly import Poly, Rat, rat, rat_str
from .ordinals import OrdinalCNF, ord_compare, ord_of_algebra, ord_of_basis
from .lie import (LieElem, basis_compare, bracket, center_solve, exp_ad_apply,
                  ideal_membership, leading_term, ord_of_element, project)
from .triaut import (TriAut, conjugate_derivation, exp_map, log_map,
                     normalize_mod_shn, reconstruct_from_frames)
from .series import OpSeries, factor_shift
from .autgroup import (AutoAction, GnElem, act, commutator, convert_form,
                       decompose, exp_ad_auto, gn_inverse, multiply_formula)
from .dsl import gnelem_from_json, gnelem_to_json, parse, print_value

__all__ = [
    "TriderivError", "DomainError", "DegreeCapError", "TruncationError",
    "InternalError", "DslError", "ParseError", "SemanticError",
    "Rat", "rat", "rat_str", "Poly",
    "OrdinalCNF", "ord_compare", "ord_of_basis", "ord_of_algebra",
    "LieElem", "basis_compare", "bracket", "exp_ad_apply", "leading_term",
    "ord_of_element", "ideal_membership", "project", "center_solve",
    "TriAut", "conjugate_derivation", "exp_map", "log_map",
    "reconstruct_from_frames", "normalize_mod_shn",
    "OpSeries", "factor_shift",
    "GnElem", "AutoAction", "act", "decompose", "convert_form",
    "multiply_formula", "gn_inverse", "commutator", "exp_ad_auto",
    "parse", "print_value", "gnelem_from_json", "gnelem_to_json",
]

__version__ = "0.1.0"
