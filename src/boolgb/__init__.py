"""Groebner bases over F2 and the 4n+1 -> 6n+3^n output blowup.

The library provides exact polynomial arithmetic over F2 (full ring and
Boolean-quotient modes), Buchberger's algorithm with the standard
criteria, the generator families whose reduced basis grows like 6n+3^n
from inputs of size 4n+1, and a brute-force evaluation oracle that
serves as independent ground truth.
"""

from .polyring import (
    BOOLEAN,
    DEGLEX,
    DEGREVLEX,
    FULL,
    ModeMismatchError,
    MonomialOrder,
    ParseError,
    Polynomial,
    UnknownVariableError,
    ZeroPolynomialError,
    format_mono,
    format_poly,
    get_order,
    leading_monomial,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
    parse_poly,
    poly_add,
    poly_mul,
    poly_one,
    poly_var,
    poly_zero,
    to_boolean,
    to_full,
    var_flat,
    var_name,
)
from .groebner import (
    BasisFormatError,
    GeneratorSet,
    GroebnerBasis,
    NotAGroebnerBasisError,
    ReductionStats,
    ResourceLimitError,
    buchberger,
    dump_basis,
    ideal_membership,
    interreduce,
    is_groebner_basis,
    is_reduced_basis,
    load_basis,
    normal_form,
    s_polynomial,
)
from .construction import (
    NotZeroDimensionalError,
    count_standard_monomials,
    input_bitsize,
    load_generators,
    make_G,
    make_H,
    make_L,
    make_P,
    make_S,
    make_T,
    make_family,
    max_degree,
    predicted_gb_size,
    predicted_solution_count,
    save_generators,
    z_product,
)
from .oracle import (
    ArityMismatchError,
    FieldPolysMissingError,
    SolutionFormatError,
    TooManyVariablesError,
    dump_solutions,
    enumerate_solutions,
    evaluate,
    load_solutions,
    membership_by_evaluation,
    solution_sets_equal,
)

__version__ = "0.1.0"
