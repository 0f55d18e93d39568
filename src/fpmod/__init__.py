"""Exact computations with finitely presented modules over computable
commutative rings: normal forms, Hom/tensor/base change, pushouts, purity
and domination, Mittag-Leffler towers, devissage, and flatness /
projectivity deciders with descent checks.
"""

from .rings import ZZ, QQ, ZI, Fp, Zmod, RingDesc, ring_map
from .matrix import Mat
from .normal_forms import snf, hnf, solve_linear, kernel_matrix, is_unimodular
from .fpmodule import (
    FpModule,
    Morphism,
    mk_module,
    free_module,
    zero_module,
    mk_morphism,
    identity_morphism,
    zero_morphism,
    compose,
    mor_eq,
    kernel,
    cokernel,
    image,
    direct_sum,
    is_iso,
)
from .homtensor import hom_module, tensor, base_change, is_flat, is_projective

__version__ = "1.0.0"

# Name of the normal-form implementation; there is only the pure-Python one.
# The benchmark report prints it and its smoke test checks it.
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "ZZ",
    "QQ",
    "ZI",
    "Fp",
    "Zmod",
    "RingDesc",
    "ring_map",
    "Mat",
    "snf",
    "hnf",
    "solve_linear",
    "kernel_matrix",
    "is_unimodular",
    "FpModule",
    "Morphism",
    "mk_module",
    "free_module",
    "zero_module",
    "mk_morphism",
    "identity_morphism",
    "zero_morphism",
    "compose",
    "mor_eq",
    "kernel",
    "cokernel",
    "image",
    "direct_sum",
    "is_iso",
    "hom_module",
    "tensor",
    "base_change",
    "is_flat",
    "is_projective",
    "__version__",
]
