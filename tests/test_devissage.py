"""Filtrations, internal direct sums, summand devissage, and cyclic
decompositions of projectives."""

import dataclasses
import hashlib
import random

import pytest

from fpmod import devissage, homtensor, purity
from fpmod.errors import InvalidFiltration, NotIdempotent, NotInternal, NotProjective
from fpmod.matrix import Mat
from fpmod.fpmodule import (
    SubmoduleRep,
    free_module,
    mk_module,
    mk_morphism,
    present_submodule,
)
from fpmod.devissage import (
    InternalDecomposition,
    KaplanskyFiltration,
    decomposition_to_filtration,
    filtration_to_decomposition,
    projective_cyclic_decomposition,
    summand_devissage,
    validate_decomposition,
    validate_filtration,
)
from fpmod.harness import HarnessConfig, _decode_devissage, _gen_devissage
from fpmod.rings import ZZ, Zmod


def test_z6_filtration_roundtrip():
    M = mk_module(ZZ, Mat.from_ints(ZZ, [[2, 0], [0, 3]]))
    p1 = SubmoduleRep(M, Mat.from_ints(ZZ, [[1], [0]]))
    p2 = SubmoduleRep(M, Mat.from_ints(ZZ, [[0], [1]]))
    D = InternalDecomposition(M, (p1, p2))
    assert validate_decomposition(D)
    F = decomposition_to_filtration(D)
    ok, clause = validate_filtration(F)
    assert ok and clause is None
    D2 = filtration_to_decomposition(F)
    assert len(D2.parts) == 2
    for p, q in zip(D.parts, D2.parts):
        mp, _ = present_submodule(M, p.gens_mat)
        mq, _ = present_submodule(M, q.gens_mat)
        assert mp.invariants() == mq.invariants()


def test_invalid_filtration_clause_named():
    # Z/4 with "complement" equal to the whole module at a proper stage
    M = mk_module(ZZ, Mat.from_ints(ZZ, [[4]]))
    bot = SubmoduleRep(M, Mat.zeros(ZZ, 1, 0))
    half = SubmoduleRep(M, Mat.from_ints(ZZ, [[2]]))
    top = SubmoduleRep(M, Mat.from_ints(ZZ, [[1]]))
    F = KaplanskyFiltration(M, (bot, half, top), (half, top))
    ok, clause = validate_filtration(F)
    assert not ok and "disjoint" in clause


def test_filtration_monotone_violation():
    M = free_module(ZZ, 2)
    bot = SubmoduleRep(M, Mat.zeros(ZZ, 2, 0))
    e1 = SubmoduleRep(M, Mat.from_ints(ZZ, [[1], [0]]))
    e2 = SubmoduleRep(M, Mat.from_ints(ZZ, [[0], [1]]))
    top = SubmoduleRep(M, Mat.identity(ZZ, 2))
    F = KaplanskyFiltration(M, (bot, e1, e2, top), (e1, e2, top))
    ok, clause = validate_filtration(F)
    assert not ok and clause.startswith("monotone")


def _z2_filtration(stages, complements):
    """A filtration of Z^2 from names: 0, e1, e2, 2e2 and the whole module."""
    M = free_module(ZZ, 2)
    subs = {
        "0": Mat.zeros(ZZ, 2, 0),
        "e1": Mat.from_ints(ZZ, [[1], [0]]),
        "e2": Mat.from_ints(ZZ, [[0], [1]]),
        "2e2": Mat.from_ints(ZZ, [[0], [2]]),
        "top": Mat.identity(ZZ, 2),
    }
    return KaplanskyFiltration(
        M,
        tuple(SubmoduleRep(M, subs[n]) for n in stages),
        tuple(SubmoduleRep(M, subs[n]) for n in complements),
    )


@pytest.mark.parametrize(
    "stages, complements, clause",
    [
        (("0", "top"), (), "stage/complement length mismatch"),
        (("e1", "top"), ("e2",), "zero_eq_bot"),
        (("0", "e1"), ("e1",), "union_eq_top"),
        (("0", "e1", "top"), ("e2", "e2"), "complement not below successor at 0"),
        (("0", "e1", "top"), ("e1", "top"), "complement not disjoint at 1"),
        (("0", "e1", "top"), ("e1", "2e2"), "complement does not span successor at 1"),
    ],
    ids=["length", "zero", "top", "below", "disjoint", "span"],
)
def test_filtration_clause_named_exactly(stages, complements, clause):
    assert validate_filtration(_z2_filtration(stages, complements)) == (False, clause)


def _count_sub_sum(monkeypatch):
    calls = []
    real = devissage.sub_sum

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(devissage, "sub_sum", counting)
    return calls


def test_decomposition_validated_once(monkeypatch):
    calls = _count_sub_sum(monkeypatch)
    M = mk_module(ZZ, Mat.from_ints(ZZ, [[2, 0], [0, 3]]))
    p1 = SubmoduleRep(M, Mat.from_ints(ZZ, [[1], [0]]))
    p2 = SubmoduleRep(M, Mat.from_ints(ZZ, [[0], [1]]))
    D = InternalDecomposition(M, (p1, p2))
    assert validate_decomposition(D)
    once = len(calls)
    assert once > 0
    assert validate_decomposition(D)
    assert len(calls) == once
    # an equal decomposition is a new object and is checked on its own
    assert validate_decomposition(InternalDecomposition(M, (p1, p2)))
    assert len(calls) == 2 * once
    # the verdicts are derived, not constructor arguments
    assert [f.name for f in dataclasses.fields(InternalDecomposition)] == ["ambient", "parts"]
    assert [f.name for f in dataclasses.fields(KaplanskyFiltration)] == [
        "ambient", "stages", "complements",
    ]


def test_non_internal_decomposition_raises_every_time(monkeypatch):
    calls = _count_sub_sum(monkeypatch)
    M = free_module(ZZ, 2)
    e1 = SubmoduleRep(M, Mat.from_ints(ZZ, [[1], [0]]))
    D = InternalDecomposition(M, (e1, e1))
    for _ in range(2):
        with pytest.raises(NotInternal):
            decomposition_to_filtration(D)
    assert len(calls) == 2  # the failed sum check, run once


def test_invalid_filtration_raises_every_time(monkeypatch):
    M = mk_module(ZZ, Mat.from_ints(ZZ, [[4]]))
    bot = SubmoduleRep(M, Mat.zeros(ZZ, 1, 0))
    half = SubmoduleRep(M, Mat.from_ints(ZZ, [[2]]))
    top = SubmoduleRep(M, Mat.from_ints(ZZ, [[1]]))
    F = KaplanskyFiltration(M, (bot, half, top), (half, top))
    calls = _count_sub_sum(monkeypatch)
    with pytest.raises(InvalidFiltration, match="disjoint"):
        filtration_to_decomposition(F)
    once = len(calls)
    with pytest.raises(InvalidFiltration, match="disjoint"):
        filtration_to_decomposition(F)
    assert validate_filtration(F) == (False, "complement not disjoint at 1")
    assert len(calls) == once == 1  # the span check at stage 0, run once


def test_summand_devissage_coordinate_projection():
    # M = Z/3 + Z/2, e = projection on the first summand
    M = mk_module(ZZ, Mat.from_ints(ZZ, [[3, 0], [0, 2]]))
    p1 = SubmoduleRep(M, Mat.from_ints(ZZ, [[1], [0]]))
    p2 = SubmoduleRep(M, Mat.from_ints(ZZ, [[0], [1]]))
    D = InternalDecomposition(M, (p1, p2))
    e = mk_morphism(M, M, Mat.from_ints(ZZ, [[1, 0], [0, 0]]))
    out = summand_devissage(D, e)
    assert out.ambient.invariants() == ((3,), 0)
    assert len(out.parts) == 1
    assert validate_decomposition(out)


def test_summand_devissage_mixing_idempotent():
    """e(x,y) = (y,y) on Z^2 forces the closure to absorb both parts."""
    M = free_module(ZZ, 2)
    p1 = SubmoduleRep(M, Mat.from_ints(ZZ, [[1], [0]]))
    p2 = SubmoduleRep(M, Mat.from_ints(ZZ, [[0], [1]]))
    D = InternalDecomposition(M, (p1, p2))
    e = mk_morphism(M, M, Mat.from_ints(ZZ, [[0, 1], [0, 1]]))
    out = summand_devissage(D, e)
    assert out.ambient.invariants() == ((), 1)  # im(e) is free of rank 1
    assert validate_decomposition(out)


def test_summand_devissage_three_parts_with_an_intermediate_stage():
    """M = Z + Z + Z/3.  e mixes the two free parts (e(x,y,z) = (0,2x+y,z))
    and fixes the torsion part, so the stages are {}, {0,1}, {0,1,2}.
    The first part alone is not closed under e, and e of it, 2Z, has no
    complement in e of the next stage, Z."""
    M = mk_module(ZZ, Mat.from_ints(ZZ, [[0], [0], [3]]))
    parts = tuple(SubmoduleRep(M, Mat.identity(ZZ, 3).select_columns([i])) for i in range(3))
    D = InternalDecomposition(M, parts)
    e = mk_morphism(M, M, Mat.from_ints(ZZ, [[0, 0, 0], [2, 1, 0], [0, 0, 1]]))
    out = summand_devissage(D, e)
    assert validate_decomposition(out)
    assert out.ambient.invariants() == ((3,), 1)
    assert [present_submodule(out.ambient, p.gens_mat)[0].invariants() for p in out.parts] == [
        ((), 1),
        ((3,), 0),
    ]


def _criterion_6_instances(count):
    """The first `count` summand-devissage inputs of acceptance criterion 6."""
    cfg = HarnessConfig(seed=606, trials=1)
    idx = 0
    while count:
        decoded = _decode_devissage(_gen_devissage(random.Random(60600 + idx), cfg))
        idx += 1
        if decoded is None or not validate_decomposition(decoded[0]):
            continue
        count -= 1
        yield decoded


def test_summand_devissage_parts_digest():
    """The number of parts and each part's invariants, over the first 100
    criterion-6 instances.  Stage complements are not unique, so the
    parts themselves are not pinned, only what does not depend on them."""
    h = hashlib.sha256()
    for D, e in _criterion_6_instances(100):
        out = summand_devissage(D, e)
        key = [len(out.parts)]
        key += [repr(present_submodule(out.ambient, p.gens_mat)[0].invariants()) for p in out.parts]
        h.update(repr(key).encode())
    assert h.hexdigest() == "2f4c7c354988ecb03b4f190dc791cdacd976d40e5e91ef2e12a3001aeae5fa9b"


def test_summand_devissage_solves_no_morphism_equation(monkeypatch):
    """Each stage's complement is read off the one expression of e: on the
    300 criterion-6 devissages nothing reaches the morphism solver, there
    is one solve_linear per devissage, and every output validates."""

    def refuse(*args):
        raise AssertionError("summand_devissage solved a morphism equation")

    for mod in (homtensor, purity):
        monkeypatch.setattr(mod, "_solve_morphism", refuse)
    solves = []
    real = devissage.solve_linear

    def counting(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(devissage, "solve_linear", counting)
    for D, e in _criterion_6_instances(300):
        before = len(solves)
        assert validate_decomposition(summand_devissage(D, e))
        assert len(solves) == before + 1


def test_summand_devissage_rejects_non_idempotent():
    M = free_module(ZZ, 1)
    D = InternalDecomposition(M, (SubmoduleRep(M, Mat.identity(ZZ, 1)),))
    two = mk_morphism(M, M, Mat.from_ints(ZZ, [[2]]))
    with pytest.raises(NotIdempotent):
        summand_devissage(D, two)


def test_summand_devissage_over_zmod6():
    ring = Zmod(6)
    M = mk_module(ring, Mat.from_ints(ring, [[2, 0], [0, 3]]))
    p1 = SubmoduleRep(M, Mat.from_ints(ring, [[1], [0]]))
    p2 = SubmoduleRep(M, Mat.from_ints(ring, [[0], [1]]))
    D = InternalDecomposition(M, (p1, p2))
    e = mk_morphism(M, M, Mat.from_ints(ring, [[1, 0], [0, 0]]))
    out = summand_devissage(D, e)
    assert validate_decomposition(out)
    assert out.ambient.invariants() == ((2,), 0)


def test_projective_cyclic_decomposition():
    D = projective_cyclic_decomposition(free_module(ZZ, 2))
    assert len(D.parts) == 2 and validate_decomposition(D)
    ring = Zmod(6)
    M = mk_module(ring, Mat.from_ints(ring, [[2]]))
    D = projective_cyclic_decomposition(M)
    assert len(D.parts) == 1 and validate_decomposition(D)


def test_projective_cyclic_rejects_torsion():
    M = mk_module(ZZ, Mat.from_ints(ZZ, [[2]]))
    with pytest.raises(NotProjective):
        projective_cyclic_decomposition(M)
