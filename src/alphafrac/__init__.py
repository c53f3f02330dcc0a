"""Periodic alpha-fraction expansions of algebraic functions on odd-degree
hyperelliptic curves, in exact rational arithmetic.

The package decides when phi = (-B + sqrt(R))/A admits a periodic
alpha-fraction, computes the expansions by 2x2 polynomial-matrix
factorization, enumerates their full Z_2 x S_N symmetry orbit, and
realizes the correspondence with Jacobi triples and affine divisors.
"""

from .errors import (
    AlphaFractionError,
    FactorizationDegenerate,
    IrrationalBeta,
    IrrationalSupport,
    NonGenericPure,
    NotAdmissible,
    NotMonic,
    NotPure,
    PointOffCurve,
    PoleAtLambda,
    RepeatedAbscissa,
    RootOfR,
    SpecialDivisor,
    UnknownExample,
    ZeroPivot,
)
from .expansion import (
    AlphaSequence,
    AlphaTriple,
    ConvergentPair,
    Expansion,
    admissible_decompose,
    build_transfer_matrix,
    convergents,
    expand,
    expansion_to_triple,
    factorize_transfer_matrix,
    numeric_residual,
    pure_expand,
    verify_expansion,
)
from .jacobi import (
    CurvePoint,
    JacobiTriple,
    alpha_triple_from_jacobi,
    divisor_from_jacobi,
    jacobi_from_alpha_triple,
    jacobi_from_divisor,
    pure_beta_candidates,
)
from .polyring import Polynomial, poly_sqrt, rational_sqrt
from .symmetry import (
    OrbitResult,
    apply_eps_pi,
    apply_sigma,
    apply_word,
    orbit,
)

__version__ = "0.1.0"
