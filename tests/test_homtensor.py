"""Hom modules, tensor products, base change, flatness and projectivity.

The Hom presentation is validated against brute force: for finite modules
the decoded morphisms are enumerated and compared with the set of all
well-defined matrices up to morphism equality.
"""

import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import fpmod.fpmodule as fpmodule
import fpmod.homtensor as homtensor
from fpmod.errors import (
    DimensionMismatch,
    FactorizationTooHard,
    NotWellDefined,
    RingMismatch,
    SourceMismatch,
)
from fpmod.matrix import Mat
from fpmod.normal_forms import hnf, solvable, solve_linear
from fpmod.fpmodule import (
    FpModule,
    Morphism,
    SubmoduleRep,
    compose,
    free_module,
    identity_morphism,
    is_iso,
    kernel,
    mk_module,
    mk_morphism,
    mor_eq,
    sub_eq,
    zero_module,
)
from fpmod.harness import SPAN, SUITES, HarnessConfig, _decode_morphisms, derived_seed
from fpmod.homtensor import (
    _TRIAL_DIVISION_BOUND,
    _morphism_exists,
    _prime_factorization,
    _projective_by_invariants,
    _projective_by_split_search,
    _solve_morphism,
    base_change,
    base_change_mor,
    hom_module,
    is_flat,
    is_projective,
    tensor,
    tensor_mor,
)
from fpmod.purity import find_retraction, has_retraction
from fpmod.pushout import pushout
from fpmod.rings import ZZ, QQ, ZI, Fp, Zmod, ring_map


def cyc(ring, d):
    return mk_module(ring, Mat.from_ints(ring, [[d]]))


def test_hom_worked_examples():
    Z = free_module(ZZ, 1)
    assert hom_module(Z, cyc(ZZ, 2)).underlying.invariants() == ((2,), 0)
    assert hom_module(cyc(ZZ, 2), cyc(ZZ, 4)).underlying.invariants() == ((2,), 0)
    assert hom_module(cyc(ZZ, 2), cyc(ZZ, 3)).underlying.is_zero_module()


def test_hom_encode_decode_roundtrip():
    M = mk_module(ZZ, Mat.from_ints(ZZ, [[2, 0], [0, 4]]))
    N = cyc(ZZ, 8)
    H = hom_module(M, N)
    for k in range(H.underlying.gens):
        z = Mat.from_ints(ZZ, [[1 if i == k else 0] for i in range(H.underlying.gens)])
        f = H.decode(z)
        z2 = H.encode(f)
        assert mor_eq(H.decode(z2), f)


def test_hom_encode_rejects_morphisms_outside_the_hom():
    Z, Z2, Z4 = free_module(ZZ, 1), cyc(ZZ, 2), cyc(ZZ, 4)
    H = hom_module(Z2, Z4)
    one = Mat.from_ints(ZZ, [[1]])
    with pytest.raises(SourceMismatch):
        H.encode(mk_morphism(Z, Z4, one))
    # 1 -> 1 sends the relation 2 to 2, which is not zero in Z/4
    with pytest.raises(NotWellDefined):
        H.encode(Morphism(Z2, Z4, one, Mat.zeros(ZZ, 1, 1)))


@pytest.mark.parametrize("ring", [ZZ, QQ, Fp(5), ZI, Zmod(6), Zmod(12)], ids=str)
def test_hom_is_presented_only_when_read(monkeypatch, ring):
    # hom_module and decode take one kernel and build no trivial block;
    # the presentation is the kernel of [gen_mats | triv_mats], built
    # once, on the first read, and encode reuses the same trivial block
    calls, presented, krons = [], [], []
    kernel_matrix, present_submodule = homtensor.kernel_matrix, homtensor.present_submodule
    kron = Mat.kron

    def count(A):
        calls.append(A)
        return kernel_matrix(A)

    def present(ambient, gens_mat):
        presented.append(gens_mat)
        return present_submodule(ambient, gens_mat)

    def count_kron(A, B):
        krons.append((A, B))
        return kron(A, B)

    monkeypatch.setattr(homtensor, "kernel_matrix", count)
    monkeypatch.setattr(homtensor, "present_submodule", present)
    monkeypatch.setattr(Mat, "kron", count_kron)
    rng = random.Random(f"hom-presented:{ring}")
    for _ in range(20):
        M, N = (mk_module(ring, _rand_mat(rng, ring, g, rng.randint(0, g + 1)))
                for g in (rng.randint(1, 3), rng.randint(1, 3)))
        krons.clear()
        homtensor.well_defined_block(M, N)
        block_krons = len(krons)
        calls.clear()
        presented.clear()
        krons.clear()
        H = hom_module(M, N)
        f = H.decode(_rand_mat(rng, ring, H.gen_mats.cols, 1))
        assert len(calls) == 1 and not presented
        assert len(krons) == block_krons  # the well-definedness block's own
        krons.clear()
        W = H.gen_mats
        assert H.underlying is H.underlying
        assert mor_eq(H.decode(H.encode(f)), f)
        assert krons == [(Mat.identity(ring, M.gens), N.rels)]
        inline = FpModule(kernel_matrix(W.hstack(H.triv_mats)).select_rows(range(W.cols)))
        assert H.underlying == inline
        assert len(presented) == 1 and len(calls) == 1 and len(krons) == 1
    # the trivial block is derived, not a constructor argument
    assert [f.name for f in dataclasses.fields(homtensor.HomModule)] == [
        "M", "N", "gen_mats", "witnesses",
    ]


def _all_morphisms_brute(M, N, val_range):
    """All well-defined matrices M -> N up to morphism equality."""
    reps = []
    for entries in itertools.product(val_range, repeat=N.gens * M.gens):
        mat = Mat.from_ints(ZZ, [list(entries[i * M.gens : (i + 1) * M.gens]) for i in range(N.gens)])
        try:
            f = mk_morphism(M, N, mat)
        except NotWellDefined:
            continue
        if not any(mor_eq(f, g) for g in reps):
            reps.append(f)
    return reps


@pytest.mark.parametrize(
    "m_rels,n_rels",
    [
        ([[2]], [[4]]),
        ([[6]], [[4]]),
        ([[2, 0], [0, 3]], [[6]]),
        ([[4]], [[2, 0], [0, 2]]),
    ],
)
def test_hom_counts_match_brute_force(m_rels, n_rels):
    """|Hom(M,N)| from the presentation equals the brute-force count."""
    M = mk_module(ZZ, Mat.from_ints(ZZ, m_rels))
    N = mk_module(ZZ, Mat.from_ints(ZZ, n_rels))
    H = hom_module(M, N)
    torsion, free = H.underlying.invariants()
    assert free == 0  # Hom of finite modules is finite
    size = 1
    for d in torsion:
        size *= d
    # enumerate matrices with entries covering every residue that matters
    bound = max(abs(e) for row in n_rels for e in row) + 1
    brute = _all_morphisms_brute(M, N, range(0, bound * 2))
    assert len(brute) == size


# ---------------------------------------------------------------------------
# Hom past four generators, within fixed budgets


def _elementary_divisors(factors, ideal):
    """(sorted prime powers, free rank) of the sum of R/(d) over factors,
    with R = cover/(ideal): d == ideal is a free summand."""
    free = sum(d == ideal for d in factors)
    powers = (p**e for d in factors if d != ideal for p, e in _prime_factorization(d).items())
    return sorted(powers), free


def _hom_by_gcd_formula(M, N):
    """Hom(M, N) = sum of R/gcd(a_j, b_i) over the cyclic summands R/(a_j)
    of M and R/(b_i) of N, as elementary divisors."""
    ideal = M.ring.ideal

    def cyclic(X):
        torsion, free = X.invariants()
        return [int(d) for d in torsion] + [ideal] * free

    return _elementary_divisors([math.gcd(a, b) for a in cyclic(M) for b in cyclic(N)], ideal)


def _dense_module(ring, gens, rels, seed, lo, hi):
    """gens generators and rels relations, entries drawn from [lo, hi]."""
    rng = random.Random(f"dense:{ring}:{gens}:{rels}:{seed}")
    return mk_module(ring, Mat.from_ints(ring, [[rng.randint(lo, hi) for _ in range(rels)] for _ in range(gens)]))


@pytest.mark.parametrize(
    "ring, gens, rels, seed",
    [(Zmod(10**6), 4, r, s) for r in (3, 4) for s in (1, 2, 3)]
    + [(ZZ, g, g, s) for g in (6, 7) for s in (1, 2, 3)]
    + [(Zmod(12), g, r, s) for g in (5, 6) for r in (g - 1, g) for s in (1, 2, 3)],
    ids=str,
)
def test_hom_past_four_generators_within_budget(ring, gens, rels, seed):
    """Hom(M, M) of a dense module answers within 2 s and equals the gcd
    formula.  With Smith kernels and Smith invariants none of the cases
    over Z and Z/10^6 had answered after 20 s; those over Z/12 at 5 and
    6 generators take 10-80 ms.  The budget is not to be loosened."""
    lo, hi = (-4, 4) if ring == ZZ else (0, ring.modulus - 1)
    M = _dense_module(ring, gens, rels, seed, lo, hi)
    start = time.perf_counter()
    torsion, free = hom_module(M, M).underlying.invariants()
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"Hom(M, M) took {elapsed:.2f} s"
    ideal = ring.ideal
    assert _elementary_divisors([int(d) for d in torsion] + [ideal] * free, ideal) == _hom_by_gcd_formula(M, M)


def test_tensor_worked_examples():
    assert tensor(cyc(ZZ, 2), cyc(ZZ, 3)).is_zero_module()
    assert tensor(cyc(ZZ, 4), cyc(ZZ, 6)).invariants() == ((2,), 0)
    Z2f = free_module(ZZ, 2)
    assert tensor(Z2f, cyc(ZZ, 5)).invariants() == ((5, 5), 0)


def test_tensor_symmetry():
    A = mk_module(ZZ, Mat.from_ints(ZZ, [[2, 0], [0, 6]]))
    B = cyc(ZZ, 4)
    assert is_iso(tensor(A, B), tensor(B, A))


def test_tensor_mor_functorial():
    Z = free_module(ZZ, 1)
    f = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    g = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[3]]))
    t = tensor_mor(f, g)
    assert t.mat.get(0, 0) == 6


def test_base_change_examples():
    assert base_change(ring_map(ZZ, QQ), cyc(ZZ, 2)).is_zero_module()
    ext = base_change(ring_map(ZZ, ZI), free_module(ZZ, 2))
    assert ext.invariants() == ((), 2)
    ext = base_change(ring_map(ZZ, Zmod(4)), cyc(ZZ, 6))
    assert ext.invariants() == ((2,), 0)


def test_base_change_ring_mismatch():
    with pytest.raises(RingMismatch):
        base_change(ring_map(ZZ, QQ), cyc(Zmod(4), 2))


def test_base_change_mor_preserves_composition():
    phi = ring_map(ZZ, ZI)
    Z = free_module(ZZ, 1)
    f = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    g = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[3]]))
    assert mor_eq(
        base_change_mor(phi, compose(g, f)),
        compose(base_change_mor(phi, g), base_change_mor(phi, f)),
    )


def test_flat_projective_over_integers():
    assert not is_flat(cyc(ZZ, 2)) and not is_projective(cyc(ZZ, 2))
    F = free_module(ZZ, 3)
    assert is_flat(F) and is_projective(F)


def test_flat_projective_over_zmod():
    # Z/2 over Z/4: neither flat nor projective
    M = cyc(Zmod(4), 2)
    assert not is_flat(M) and not is_projective(M)
    # Z/2 over Z/6: both (2 is a unit-complemented factor of 6)
    N = cyc(Zmod(6), 2)
    assert is_flat(N) and is_projective(N)
    # Z/2 + Z/3 over Z/6 is free of rank 1... as invariants go
    assert is_projective(free_module(Zmod(6), 2))


def test_everything_flat_over_fields():
    M = mk_module(Fp(5), Mat.from_ints(Fp(5), [[2, 1], [0, 0]]))
    assert is_flat(M) and is_projective(M)


def test_zero_module_projective():
    assert is_projective(zero_module(ZZ))
    assert is_flat(zero_module(ZZ))


@pytest.mark.parametrize(
    "rows, projective",
    [
        ([[-4, 3, 6, 6, -5], [-2, -5, 1, 6, 1], [1, 4, 0, 6, -3], [-5, 1, -6, 0, 0]], False),
        ([[-3, 3, 2, -4, -1], [3, 1, 4, 3, -5], [3, -6, 1, -2, 2], [-3, -3, 5, 1, 2]], True),
    ],
)
def test_projective_four_generators_large_modulus(rows, projective):
    # the split search solves a 20x20 Kronecker system, lifted to 20x40 over
    # the integers; through the Smith form it did not finish within 15 s
    ring = Zmod(10**6)
    M = mk_module(ring, Mat.from_ints(ring, rows))
    assert _projective_by_invariants(M) is projective
    assert _projective_by_split_search(M) is projective
    assert is_projective(M) is projective


@pytest.mark.parametrize("ring", [ZZ, QQ, Fp(5), ZI], ids=str)
def test_split_search_matches_hermite_left_inverse(ring):
    # over a domain coker(A) is projective iff im(A) is a summand, iff the
    # basis of im(A) in the pivot columns H of A's column Hermite form has
    # a left inverse L (L*H = I, that is H^T * L^T = I).  Then L certifies
    # the split: with A*U = [H | 0], W = -U[:, :k]*L solves A*W*A = -A,
    # since A = H*C gives A*U[:, :k]*L*A = H*L*H*C = A
    rng = random.Random(f"split-vs-hermite:{ring}")
    seen = {True: 0, False: 0}
    deficient = 0
    for _ in range(500):
        g = rng.randint(1, 5)
        k = rng.randint(0, g + 2)
        A = _rand_mat(rng, ring, g, k)
        if k > 1 and rng.random() < 0.3:
            r = rng.randint(0, min(g, k) - 1)
            A = _rand_mat(rng, ring, g, r).mul(_rand_mat(rng, ring, r, k))
            deficient += 1
        H, U = hnf(A)
        H = H.nonzero_columns()
        expected = solvable(H.transpose(), Mat.identity(ring, H.cols))
        assert _projective_by_split_search(mk_module(ring, A)) is expected, A
        seen[expected] += 1
        if expected:
            L = solve_linear(H.transpose(), Mat.identity(ring, H.cols)).transpose()
            W = U.select_columns(range(H.cols)).mul(L).neg()
            assert A.mul(W).mul(A) == A.neg(), A
    assert deficient >= 50
    assert seen[False] >= (100 if ring in (ZZ, ZI) else 0)


def test_projective_cyclic_matches_valuations_and_split_search():
    # Z/d over Z/n is projective iff v_p(d) is 0 or v_p(n) for each p | n
    for n in range(2, 400):
        nfact = _brute_factorization(n)
        for d in range(1, n + 1):
            if n % d:
                continue
            M = cyc(Zmod(n), d)
            expected = all(e == nfact[p] for p, e in _brute_factorization(d).items())
            assert _projective_by_invariants(M) is expected, (n, d)
            assert _projective_by_split_search(M) is expected, (n, d)


def test_flat_over_large_modulus():
    # 2*10^7 = 2^8 * 5^7: two checks, one per prime
    ring = Zmod(2 * 10**7)
    assert is_flat(mk_module(ring, Mat.from_ints(ring, [[256, 0], [0, 1]])))
    assert not is_flat(mk_module(ring, Mat.from_ints(ring, [[2, 0], [0, 5]])))


def _brute_factorization(n):
    out = {}
    p = 2
    while n > 1:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


def test_prime_factorization_matches_brute_force():
    for n in range(1, 10**4 + 1):
        assert _prime_factorization(n) == _brute_factorization(n)
    assert _prime_factorization(2**20) == {2: 20}


def test_prime_factorization_past_the_trial_bound():
    p, q = 100003, 100019  # primes above the bound, p*q above its square
    assert p > _TRIAL_DIVISION_BOUND and p * q > _TRIAL_DIVISION_BOUND**2
    assert _prime_factorization(2**3 * p) == {2: 3, p: 1}
    assert _prime_factorization(10**18 + 3) == {10**18 + 3: 1}
    with pytest.raises(FactorizationTooHard):
        _prime_factorization(p * q)
    with pytest.raises(FactorizationTooHard):
        _prime_factorization(6 * p * p)


def _brute_divisors(n):
    out = [1]
    for p, e in _brute_factorization(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return out


def _flat_by_all_divisors(M):
    """Reference decider: ann_M(d) = (n/d)M for every divisor d of n, each
    side a submodule (the kernel of multiplication by d, presented), the
    two compared by mutual containment."""
    ring, n = M.ring, M.ring.ideal
    I, IR = Mat.identity(ring, M.gens), Mat.identity(ring, M.rels.cols)
    for d in _brute_divisors(n):
        dr = ring.canon(d)
        _, incl = kernel(Morphism(M, M, I.scale(dr), IR.scale(dr)))
        ann = SubmoduleRep(M, incl.mat)
        if not sub_eq(ann, SubmoduleRep(M, I.scale(ring.canon(n // d)))):
            return False
    return True


FLAT_MODULI = (4, 6, 8, 9, 12, 30, 72, 2**10, 3**6, 10**6, 2**20, 786432)


def _rand_zmod_module(rng, n):
    # entries are random multiples of random divisors of n, so the
    # torsion parts hit every exponent, full ones included
    ring = Zmod(n)
    divisors = _brute_divisors(n)
    gens, nrels = rng.randint(1, 3), rng.randint(0, 3)
    rows = [[rng.choice(divisors) * rng.randint(0, 3) for _ in range(nrels)] for _ in range(gens)]
    return mk_module(ring, Mat.from_ints(ring, rows) if nrels else Mat.zeros(ring, gens, 0))


def test_flat_matches_all_divisor_reference():
    rng = random.Random("flat-by-primes")
    not_flat = 0
    for n in FLAT_MODULI:
        for _ in range(90):
            M = _rand_zmod_module(rng, n)
            flat = is_flat(M)
            assert flat == _flat_by_all_divisors(M), M
            not_flat += not flat
    assert len(FLAT_MODULI) * 90 >= 1000 and not_flat >= 300


@pytest.mark.parametrize("n, primes", [(2**20, 1), (10**6, 2)])
def test_flat_reads_one_kernel_per_prime(monkeypatch, n, primes):
    # ann_M(p) is read off the kernel's generators, never presented
    calls = []
    kernel_matrix = fpmodule.kernel_matrix

    def count(A):
        calls.append(A)
        return kernel_matrix(A)

    def refuse(*args):
        raise AssertionError("is_flat presented a submodule")

    for mod in (fpmodule, homtensor):
        monkeypatch.setattr(mod, "kernel_matrix", count)
    monkeypatch.setattr(fpmodule, "present_submodule", refuse)
    ring = Zmod(n)
    for M, flat in ((cyc(ring, 2), False), (cyc(ring, 2**6), n == 10**6), (free_module(ring, 2), True)):
        calls.clear()
        assert is_flat(M) is flat
        assert len(calls) <= primes
    assert len(calls) == primes


# ---------------------------------------------------------------------------
# the morphism-equation verdict against the solver


def _elem(rng, ring):
    if ring == QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if ring == ZI:
        return (rng.randint(-3, 3), rng.randint(-3, 3))
    return ring.canon(rng.randint(-6, 6))


def _rand_mat(rng, ring, rows, cols):
    if not rows or not cols:
        return Mat.zeros(ring, rows, cols)
    return Mat.from_rows(ring, [[_elem(rng, ring) for _ in range(cols)] for _ in range(rows)])


def _equations(rng, ring):
    """Arguments (src, tgt, L, R, C, mod) of seeded morphism equations:
    a retraction, a section and a factorization, and a split search."""
    M, N = (mk_module(ring, _rand_mat(rng, ring, g, rng.randint(0, g + 1)))
            for g in (rng.randint(1, 3), rng.randint(1, 3)))
    H = hom_module(M, N)
    f = H.decode(_rand_mat(rng, ring, H.underlying.gens, 1)) if H.underlying.gens else None
    IM, IN = Mat.identity(ring, M.gens), Mat.identity(ring, N.gens)
    fmat = f.mat if f else _rand_mat(rng, ring, N.gens, M.gens)
    A = M.rels
    F = free_module(ring, M.gens)
    return [
        (N, M, IM, fmat, IM, M.rels),
        (N, M, fmat, IN, IN, N.rels),
        (M, N, IN, _rand_mat(rng, ring, M.gens, 2), _rand_mat(rng, ring, N.gens, 2), N.rels),
        (F, free_module(ring, A.cols), A, A, A.neg(), F.rels),
    ]


@pytest.mark.parametrize("ring", [ZZ, QQ, Fp(5), ZI, Zmod(12)], ids=str)
def test_morphism_exists_agrees_with_the_solver(ring):
    """The verdict stacks the equation rows first, the solver the
    well-definedness rows: row order must not change whether a
    morphism exists."""
    rng = random.Random(f"morphism-exists:{ring}")
    seen = {True: 0, False: 0}
    for _ in range(25):
        for args in _equations(rng, ring):
            exists = _solve_morphism(*args) is not None
            assert _morphism_exists(*args) is exists
            seen[exists] += 1
    assert seen[True] > 10 and seen[False] > 10


def test_morphism_exists_on_the_heavy_domination_instance():
    # harness seed 42, domination_cross_oracle #2: inr of the pushout has
    # no retraction, and the 52x76 integer system that says so was the
    # heaviest solve of that harness configuration
    cfg = HarnessConfig(seed=42, trials=3)
    gen, _ = SUITES["domination_cross_oracle"]
    inst = gen(random.Random(derived_seed(cfg.seed, "domination_cross_oracle", 2)), cfg)
    f, g = _decode_morphisms(inst, *SPAN)
    inr = pushout(f, g).inr
    I = Mat.identity(ZZ, inr.source.gens)
    args = (inr.target, inr.source, I, inr.mat, I, inr.source.rels)
    assert _solve_morphism(*args) is None and find_retraction(inr) is None
    assert _morphism_exists(*args) is False and has_retraction(inr) is False
