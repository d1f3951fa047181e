"""Exact certificates for the vanishing ideals of sharp spherical configurations."""

import os

# One OpenBLAS thread, set before numpy loads.  The only BLAS call is
# exact.int_product, exact in any summation order, so this changes cost, not
# results: its thin products (64x24x16384 per Leech pair block, float32) take
# 3.0 ms a block on one thread and 2.3 ms on two, but the sampled pair pass
# costs 0.076 s of CPU on one thread against 0.128 s on two (2-core host).
# An explicit setting wins; numpy imported first ignores it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .configs import (
    SphericalConfiguration,
    build_4cube,
    build_e6,
    build_e7,
    build_e8,
    build_golay,
    build_icosahedron,
    build_knn,
    build_leech,
    build_ngon,
    read_points,
    write_points,
)
from .gamma import GammaResult, gamma1_bounds, gamma1_exact, gamma_profile, rk1
from .generators import GeneratorSet, build_generator_set, write_generators
from .groebner import (
    BudgetExceededError,
    GroebnerBasis,
    buchberger,
    certify_full,
    quotient_data,
)
from .lattice import basis_from_generators, enumerate_short_vectors, unimodularity_check
from .verify import (
    VerificationReport,
    assemble_certificate,
    check_vanishing,
    design_strength_gegenbauer,
    jacobian_full_pass,
)

__all__ = [
    "SphericalConfiguration",
    "build_4cube",
    "build_e6",
    "build_e7",
    "build_e8",
    "build_golay",
    "build_icosahedron",
    "build_knn",
    "build_leech",
    "build_ngon",
    "read_points",
    "write_points",
    "GammaResult",
    "gamma1_bounds",
    "gamma1_exact",
    "gamma_profile",
    "rk1",
    "GeneratorSet",
    "build_generator_set",
    "write_generators",
    "BudgetExceededError",
    "GroebnerBasis",
    "buchberger",
    "certify_full",
    "quotient_data",
    "basis_from_generators",
    "enumerate_short_vectors",
    "unimodularity_check",
    "VerificationReport",
    "assemble_certificate",
    "check_vanishing",
    "design_strength_gegenbauer",
    "jacobian_full_pass",
]

__version__ = "0.1.0"
