"""Exact symbolic toolkit for Poisson polynomial algebras with torus actions.

Verifies Poisson and tower axioms on concrete presentations, computes the
Cauchon map and Poisson-normal elements, enumerates torus-stable Poisson
prime ideals up an iterated Poisson-Ore tower, and analyzes prime chains
and strata.  All arithmetic is exact over the rationals.
"""

from .errors import PcglError
from .qpoly import (
    Derivation,
    Monomial,
    Polynomial,
    VarTable,
    parse,
    re_context,
)
from .pbracket import (
    BracketTable,
    bracket,
    check_jacobi,
    is_poisson_normal,
)
from .grading import GradingData, solve_h
from .ideals import (
    Ideal,
    chain_report,
    dimension,
    eliminate,
    h_core,
    poisson_closure,
    saturate,
)
from .cgl import PoissonPresentation, level_data, verify_cgl
from .cauchon import (
    DElement,
    check_theta,
    d_element_from_normal,
    d_element_search,
    delete_all,
    enumerate_hprimes,
    normal_element,
    second_lift,
    separating_normal,
    theta,
)
from .strata import extract_log_matrix, poisson_center_torus, stratum_summary

__version__ = "0.1.0"
