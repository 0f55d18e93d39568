"""Hom modules, tensor products, base change, and the two deciders
(flatness, projectivity) that the descent theorems compare.

A morphism X : M -> N is well defined when X * M.rels = N.rels * Y for
some witness Y.  `_solve_morphism` is the one solver for morphism
equations L * X * R = C modulo given columns: it vectorizes the equation
together with the well-definedness constraint (`well_defined_block`) and
hands the system to solve_linear.  Hom(M, N) is presented by the kernel
of that constraint; purity's factorization and section searches and the
split-search projectivity decider are calls of the solver.  Tensor
products use the standard presentation with relations M.rels (x) id and
id (x) N.rels; base change applies the ring map entrywise to the
relation matrix.
"""

from dataclasses import dataclass

from .errors import DeciderDisagreement, FactorizationTooHard, RingMismatch
from .matrix import Mat
from .normal_forms import kernel_matrix, solve_linear
from .fpmodule import (
    FpModule,
    free_module,
    mk_module,
    mk_morphism,
)
from .rings import INTEGERS_MOD, _is_prime


# ---------------------------------------------------------------------------
# Hom


@dataclass(frozen=True)
class HomModule:
    """Hom(M, N) presented as an FpModule, with encode/decode maps."""

    M: FpModule
    N: FpModule
    underlying: FpModule
    gen_mats: Mat  # columns are vec'd well-defined matrices
    triv_mats: Mat  # columns spanning the matrices equivalent to zero

    def decode(self, z):
        """Morphism corresponding to an element (coordinate column)."""
        v = self.gen_mats.mul(z)
        T = Mat.unvec(self.M.ring, v, self.N.gens, self.M.gens)
        return mk_morphism(self.M, self.N, T)

    def encode(self, f):
        """Coordinates of a morphism; inverse of decode modulo relations."""
        big = self.gen_mats.hstack(self.triv_mats)
        sol = solve_linear(big, f.mat.vec())
        if sol is None:
            raise RingMismatch("morphism does not belong to this Hom module")
        return sol.select_rows(range(self.gen_mats.cols))


def well_defined_block(src, tgt):
    """[src.rels^T (x) I | -(I (x) tgt.rels)], acting on [vec X; vec Y].

    Its kernel holds the pairs with X * src.rels = tgt.rels * Y, i.e. the
    well-defined matrices X of morphisms src -> tgt with their witnesses.
    """
    ring = src.ring
    RS, RT = src.rels, tgt.rels
    left = RS.transpose().kron(Mat.identity(ring, tgt.gens))
    return left.hstack(Mat.identity(ring, RS.cols).kron(RT).neg())


def _solve_morphism(src, tgt, L, R, C, mod):
    """Matrix of a morphism X : src -> tgt with L*X*R = C modulo the
    columns of mod, or None if there is none.

    The unknowns are vec X, the well-definedness witness Y and the
    coefficients Z of L*X*R - mod*Z = C, in that order; vec(L*X*R) is
    (R^T (x) L) vec X and vec(mod*Z) is (I (x) mod) vec Z.
    """
    ring = src.ring
    m = R.cols
    n_y = tgt.rels.cols * src.rels.cols
    wd = well_defined_block(src, tgt)
    wd = wd.hstack(Mat.zeros(ring, wd.rows, mod.cols * m))
    eq = R.transpose().kron(L).hstack(Mat.zeros(ring, L.rows * m, n_y))
    eq = eq.hstack(Mat.identity(ring, m).kron(mod).neg())
    rhs = Mat.zeros(ring, wd.rows, 1).vstack(C.vec())
    sol = solve_linear(wd.vstack(eq), rhs)
    if sol is None:
        return None
    return Mat.unvec(ring, sol.select_rows(range(tgt.gens * src.gens)), tgt.gens, src.gens)


def hom_module(M, N):
    if M.ring != N.ring:
        raise RingMismatch(f"{M.ring} vs {N.ring}")
    K = kernel_matrix(well_defined_block(M, N))
    W = K.select_rows(range(N.gens * M.gens)).nonzero_columns()
    # matrices whose columns lie in span(N.rels): vec(N.rels * C) = (I (x) N.rels) vec C
    B = Mat.identity(M.ring, M.gens).kron(N.rels)
    rels = kernel_matrix(W.hstack(B)).select_rows(range(W.cols))
    underlying = FpModule(M.ring, W.cols, rels)
    return HomModule(M, N, underlying, W, B)


# ---------------------------------------------------------------------------
# tensor


def tensor(M, N):
    """M (x) N with generator (i, j) at index i*N.gens + j."""
    if M.ring != N.ring:
        raise RingMismatch(f"{M.ring} vs {N.ring}")
    ring = M.ring
    left = M.rels.kron(Mat.identity(ring, N.gens))
    right = Mat.identity(ring, M.gens).kron(N.rels)
    return mk_module(ring, left.hstack(right))


def tensor_mor(f, g):
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)
    return mk_morphism(src, tgt, f.mat.kron(g.mat))


# ---------------------------------------------------------------------------
# base change


def apply_ring_map(phi, A):
    """Entrywise coefficient transport along the ring map."""
    return A.map_entries(phi.apply, new_ring=phi.target)


def base_change(phi, M):
    if M.ring != phi.source:
        raise RingMismatch(f"module over {M.ring}, map from {phi.source}")
    return mk_module(phi.target, apply_ring_map(phi, M.rels))


def base_change_mor(phi, f):
    return mk_morphism(
        base_change(phi, f.source), base_change(phi, f.target), apply_ring_map(phi, f.mat)
    )


# ---------------------------------------------------------------------------
# deciders


def _divisors(n):
    """Positive divisors of n in increasing order, built from its factorization."""
    out = [1]
    for p, e in _prime_factorization(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


# Trial division stops here, so factoring costs at most this many steps.
_TRIAL_DIVISION_BOUND = 10**5


def _prime_factorization(n):
    """{p: e} for n >= 1, by trial division up to _TRIAL_DIVISION_BOUND.

    The cofactor left over has no prime factor up to the bound: below
    the bound's square it is prime, above it rings._is_prime decides,
    and a composite one raises FactorizationTooHard.
    """
    out = {}
    d = 2
    while d <= _TRIAL_DIVISION_BOUND and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        if d * d <= n and not _is_prime(n):
            raise FactorizationTooHard(
                f"{n} has no prime factor up to {_TRIAL_DIVISION_BOUND} and is not prime"
            )
        out[n] = out.get(n, 0) + 1
    return out


def is_flat(M):
    """Flatness decider.

    Domains: torsion-free.  Fields: always.  Z/n: for every divisor d of
    n the multiplication map (d) (x) M -> M must be injective, which by
    principality reduces to ann_M(d) = (n/d)M; both sides are computed as
    honest submodules and compared by mutual membership.
    """
    ring = M.ring
    if ring.is_field:
        return True
    if ring.kind != INTEGERS_MOD:
        torsion, _ = M.invariants()
        return not torsion
    from .fpmodule import SubmoduleRep, kernel, sub_eq

    n = ring.modulus
    for d in _divisors(n):
        if d == 1 or d == n:
            continue
        mult_d = mk_morphism(M, M, Mat.identity(ring, M.gens).scale(ring.from_int(d)))
        _, incl = kernel(mult_d)
        ann = SubmoduleRep(M, incl.mat)
        scaled = SubmoduleRep(M, Mat.identity(ring, M.gens).scale(ring.from_int(n // d)))
        if not sub_eq(ann, scaled):
            return False
    return True


def _projective_by_invariants(M):
    ring = M.ring
    torsion, _ = M.invariants()
    if ring.kind != INTEGERS_MOD:
        return not torsion
    nfact = _prime_factorization(ring.modulus)
    for d in torsion:
        for p, e in _prime_factorization(d).items():
            if e != nfact[p]:
                return False
    return True


def _projective_by_split_search(M):
    # section of the canonical R^gens ->> M: S = I + A*W with S*A = 0,
    # i.e. A*W*A = -A for a W : R^gens -> R^rels
    A = M.rels
    if A.cols == 0:
        return True
    F = free_module(M.ring, M.gens)
    # F has no relations, so F.rels is the empty modulus
    W = _solve_morphism(F, free_module(M.ring, A.cols), A, A, A.neg(), F.rels)
    return W is not None


def is_projective(M):
    """Projectivity, decided twice (invariant criterion and split search).

    The two deciders are independent implementations and must agree;
    disagreement is an internal bug, not a property of the input.
    """
    via_inv = _projective_by_invariants(M)
    via_split = _projective_by_split_search(M)
    if via_inv != via_split:
        raise DeciderDisagreement(
            f"invariant criterion says {via_inv}, split search says {via_split} for {M}"
        )
    return via_inv
