"""Exact computational engine for irreducible affine Weyl groups.

Builds finite crystallographic root systems from Cartan data, models the
affine Weyl group with exact integer arithmetic, and enumerates:

* low elements (inversion sets generated by small roots),
* Shi regions as admissible sign types, with their minimal elements,
* descent-walls of regions, and
* the canonical reduced-word automaton on small-root inversion sets.

Verification suites cross-check, at small rank, that the minimal elements
of Shi regions are exactly the low elements, that descent-roots of a
minimal element match the descent-walls of its region, and that the
automaton recognizes the reduced words.
"""
from __future__ import annotations

from .automaton import (Automaton, build_automaton, dot_chunks, export_dot,
                        json_chunks, parse_dot, transition_table_json)
from .elements import AffineRoot, AffineWeylGroup, GroupElement, KernelError
from .lowness import (DEFAULT_BUDGET, BudgetExceededError, CertificationError,
                      ScanResult, SmallRoots, certified_scan, enumerate_low,
                      is_low, is_low_by_cone, region_walk, sign_of_shi)
from .ratlp import CertificateError
from .regions import (ShiRegion, descent_root_set, dominant_pairs,
                      enumerate_regions, ideal_closed_form_inversions,
                      ideal_sign_type, region_members, separation_set)
from .report import Check, Report
from .rootdata import (CartanType, PosetIdeal, Rank2Subsystem, RootDataError,
                       RootSystem, root_system)
from .signtypes import (admissible_sign_types, condition_star, descent_mask,
                        is_admissible, parse_sign_string,
                        rank2_admissible_table, rank2_tables_json,
                        sign_string)
from .verify import DESK_TYPES, SUITES, run_suite

__version__ = "1.0.0"

__all__ = [
    "AffineRoot",
    "AffineWeylGroup",
    "Automaton",
    "BudgetExceededError",
    "CartanType",
    "CertificateError",
    "CertificationError",
    "Check",
    "DEFAULT_BUDGET",
    "DESK_TYPES",
    "GroupElement",
    "KernelError",
    "PosetIdeal",
    "Rank2Subsystem",
    "Report",
    "RootDataError",
    "RootSystem",
    "ScanResult",
    "ShiRegion",
    "SUITES",
    "SmallRoots",
    "admissible_sign_types",
    "build_automaton",
    "certified_scan",
    "condition_star",
    "descent_mask",
    "descent_root_set",
    "dominant_pairs",
    "dot_chunks",
    "enumerate_low",
    "enumerate_regions",
    "export_dot",
    "ideal_closed_form_inversions",
    "ideal_sign_type",
    "is_admissible",
    "is_low",
    "is_low_by_cone",
    "json_chunks",
    "parse_dot",
    "parse_sign_string",
    "rank2_admissible_table",
    "rank2_tables_json",
    "region_members",
    "region_walk",
    "root_system",
    "run_suite",
    "separation_set",
    "sign_of_shi",
    "sign_string",
    "transition_table_json",
]
