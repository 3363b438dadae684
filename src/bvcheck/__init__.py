"""Exact symbolic checks for graded algebras with odd square-zero operators."""

from .algebra import (
    AlgebraError,
    Element,
    GeneratorTable,
    enumerate_monomials,
    format_element,
    parse_element,
)
from .brackets import (
    Budget,
    OrderCertificate,
    akman_bracket,
    akman_order_check,
    bv_bracket,
    koszul_bracket,
)
from .graded import GradedError, koszul_sign, unshuffles
from .linfty import linfty_relation, verify_linfty
from .models import (
    Model,
    exterior_cube_model,
    koszul_complex_model,
    mixed_order_model,
    polyvector_model,
)
from .operators import Operator, format_operator
from .specfile import ModelSpec, SpecError, parse_spec
from .structures import (
    CohomologyBasis,
    StructReport,
    check_bvinfty,
    check_derivation_lemma,
    check_gerstenhaber,
    cohomology,
    degree_split,
    induced_bv,
)

__version__ = "0.1.0"
