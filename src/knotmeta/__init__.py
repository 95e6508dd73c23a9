"""knotmeta: exact census of irreducible metabelian SL(2,C) characters of
knot groups, the trace-free Riley section of 2-bridge knots, and the
induced bound on the l-degree of the A-polynomial."""

from .apoly import (
    APoly,
    analyze,
    degree_bound_check,
    eval_at_sqrt_minus_one,
    factor_profile,
    metabelian_multiplicity_probe,
    proposition_criteria,
    vertical_edge_check,
)
from .intlinalg import IntMat, det, smith_normal_form, torsion_solutions
from .knotdata import (
    GroupWord,
    SeifertKnot,
    TwoBridge,
    determinant_of_knot,
    epsilon_sequence,
    load_apolys,
    load_knots,
    longitude_word,
    relator_word,
)
from .metabelian import (
    MetabelianClass,
    count_metabelian,
    enumerate_metabelian,
    verify_class,
)
from .riley import (
    cross_check_counts,
    riley_polynomial,
    section_at_minus_one,
    verify_longitude_mod_phi,
    verify_relator_mod_phi,
    word_holonomy,
)

__version__ = "0.1.0"

__all__ = [
    "APoly",
    "analyze",
    "degree_bound_check",
    "eval_at_sqrt_minus_one",
    "factor_profile",
    "metabelian_multiplicity_probe",
    "proposition_criteria",
    "vertical_edge_check",
    "IntMat",
    "det",
    "smith_normal_form",
    "torsion_solutions",
    "GroupWord",
    "SeifertKnot",
    "TwoBridge",
    "determinant_of_knot",
    "epsilon_sequence",
    "load_apolys",
    "load_knots",
    "longitude_word",
    "relator_word",
    "MetabelianClass",
    "count_metabelian",
    "enumerate_metabelian",
    "verify_class",
    "cross_check_counts",
    "riley_polynomial",
    "section_at_minus_one",
    "verify_longitude_mod_phi",
    "verify_relator_mod_phi",
    "word_holonomy",
]
