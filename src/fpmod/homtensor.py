"""Hom modules, tensor products, base change, and the two deciders
(flatness, projectivity) that the descent theorems compare.

A morphism X : M -> N is well defined when X * M.rels = N.rels * Y for
some witness Y.  A morphism equation L * X * R = C modulo given columns
is vectorized in one place (`_morphism_blocks`): the equation rows and
the well-definedness rows (`well_defined_block`).  Two calls use them:

- `_solve_morphism` finds X and its witness by solve_linear on the
  well-definedness rows stacked over the equation rows.  The row order
  steers the elimination, so it fixes which X is returned; it stays.
  Purity's factorization and section searches are this solver.
- `_morphism_exists` only decides whether an X exists, by
  normal_forms.solvable on the equation rows stacked over the
  well-definedness rows.  Row order cannot change a verdict, only its
  cost: the few equation rows often show the inconsistency on their
  own, and otherwise they pivot the unknowns the equation pins before
  the larger well-definedness block is eliminated, which then takes
  fewer steps and grows smaller entries.  The split-search
  projectivity decider and purity.has_retraction use it.

Hom(M, N) is presented by the kernel of the well-definedness
constraint, whose Y rows are the generators' witnesses.  Tensor
products use the standard presentation with relations M.rels (x) id
and id (x) N.rels; base change applies the ring map entrywise to the
relation matrix.
"""

from dataclasses import dataclass

from .errors import DeciderDisagreement, FactorizationTooHard, RingMismatch
from .matrix import Mat
from .normal_forms import kernel_matrix, solvable, solve_linear
from .fpmodule import (
    FpModule,
    Morphism,
    SubmoduleRep,
    free_module,
    kernel_sub,
    mk_module,
    sub_leq,
)
from .rings import _is_prime


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
    witnesses: Mat  # column j is the vec'd witness of gen_mats' column j

    def decode(self, z):
        """Morphism corresponding to an element (coordinate column).  The
        witness equation is linear, so the same combination of the
        generators' witnesses is its witness."""
        M, N, ring = self.M, self.N, self.M.ring
        T = Mat.unvec(ring, self.gen_mats.mul(z), N.gens, M.gens)
        Y = Mat.unvec(ring, self.witnesses.mul(z), N.rels.cols, M.rels.cols)
        return Morphism(M, N, T, Y)

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
    if not RT.cols:
        return left
    return left.hstack(Mat.identity(ring, RS.cols).kron(RT).neg())


def _morphism_blocks(src, tgt, L, R, C, mod):
    """(eq, rhs, wd): the rows of the morphism equation L*X*R = C modulo
    the columns of mod with its right-hand side, and the rows of the
    well-definedness constraint, whose right-hand side is zero.  wd is
    None when src has no relations or tgt no generators.

    The unknowns are vec X, the well-definedness witness Y and the
    coefficients Z of L*X*R - mod*Z = C, in that order; vec(L*X*R) is
    (R^T (x) L) vec X and vec(mod*Z) is (I (x) mod) vec Z.
    """
    ring = src.ring
    m = R.cols
    n_y = tgt.rels.cols * src.rels.cols
    # blocks of zero width or height are left out, not stacked
    eq = R.transpose().kron(L)
    if n_y:
        eq = eq.hstack(Mat.zeros(ring, eq.rows, n_y))
    if mod.cols:
        eq = eq.hstack(Mat.identity(ring, m).kron(mod).neg())
    wd = None
    if src.rels.cols and tgt.gens:
        wd = well_defined_block(src, tgt)
        if mod.cols:
            wd = wd.hstack(Mat.zeros(ring, wd.rows, mod.cols * m))
    return eq, C.vec(), wd


def _solve_morphism(src, tgt, L, R, C, mod):
    """A morphism X : src -> tgt with L*X*R = C modulo the columns of
    mod, or None if there is none.

    The well-definedness rows are stacked over the equation rows: the
    row order steers the elimination, and with it which X is found.
    The solution holds the witness Y, so the morphism carries it.
    """
    ring = src.ring
    eq, rhs, wd = _morphism_blocks(src, tgt, L, R, C, mod)
    if wd is not None:
        eq, rhs = wd.vstack(eq), Mat.zeros(ring, wd.rows, 1).vstack(rhs)
    sol = solve_linear(eq, rhs)
    if sol is None:
        return None
    n_x = tgt.gens * src.gens
    n_y = tgt.rels.cols * src.rels.cols
    X = Mat.unvec(ring, sol.select_rows(range(n_x)), tgt.gens, src.gens)
    Y = Mat.unvec(ring, sol.select_rows(range(n_x, n_x + n_y)), tgt.rels.cols, src.rels.cols)
    return Morphism(src, tgt, X, Y)


def _morphism_exists(src, tgt, L, R, C, mod):
    """Whether _solve_morphism finds a morphism, decided by
    normal_forms.solvable with the equation rows stacked first.

    Row order cannot change whether a system is solvable, only the cost
    of finding out.  In the harness at seed 0 and its command-line
    defaults, 12 of the 24 failing searches fail on the equation rows
    alone.  The heaviest failing search at seed 42 with 3 trials is a
    52x76 integer system whose inconsistency shows only in the
    well-definedness rows.  With the equation rows first its
    elimination takes 1,852 column steps with entries of at most 153
    bits; with them last, 8,624 steps and 220 bits.
    """
    eq, rhs, wd = _morphism_blocks(src, tgt, L, R, C, mod)
    if wd is not None:
        eq, rhs = eq.vstack(wd), rhs.vstack(Mat.zeros(src.ring, wd.rows, 1))
    return solvable(eq, rhs)


def hom_module(M, N):
    if M.ring != N.ring:
        raise RingMismatch(f"{M.ring} vs {N.ring}")
    # the kernel's columns [vec X; vec Y] with X nonzero: generators and their witnesses
    n_x = N.gens * M.gens
    K = kernel_matrix(well_defined_block(M, N)).nonzero_columns(n_x)
    W = K.select_rows(range(n_x))
    # matrices whose columns lie in span(N.rels): vec(N.rels * C) = (I (x) N.rels) vec C
    B = Mat.identity(M.ring, M.gens).kron(N.rels)
    rels = kernel_matrix(W.hstack(B)).select_rows(range(W.cols))
    underlying = FpModule(M.ring, W.cols, rels)
    return HomModule(M, N, underlying, W, B, K.select_rows(range(n_x, K.rows)))


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
    """f (x) g, with witness blockdiag(w_f (x) g.mat, f.mat (x) w_g) on the
    two relation blocks of the tensor presentation."""
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)
    w = Mat.block_diag(f.witness.kron(g.mat), f.mat.kron(g.witness))
    return Morphism(src, tgt, f.mat.kron(g.mat), w)


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
    """The ring map carries the witness along with the matrix."""
    return Morphism(
        base_change(phi, f.source),
        base_change(phi, f.target),
        apply_ring_map(phi, f.mat),
        apply_ring_map(phi, f.witness),
    )


# ---------------------------------------------------------------------------
# deciders


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

    Domains: torsion-free.  Fields: always.  Z/n: ann_M(p) lies in
    (n/p)M for every prime p of n.  By the CRT M is the sum of its
    p-parts M_p, modules over Z/p^e for p^e exactly dividing n; on the
    other parts p is a unit and n/p is zero, so the check reads
    ann(p) <= p^(e-1) M_p.  For M_p = sum of Z/p^a_i it holds iff every
    a_i is 0 or e, that is iff M_p is free, and M is flat iff every M_p
    is.  The reverse containment always holds, since p(n/p) = n = 0.
    ann_M(p) is read off one kernel of multiplication by p.
    """
    ring = M.ring
    if ring.is_field:
        return True
    if ring.cover is ring:
        torsion, _ = M.invariants()
        return not torsion
    n = ring.ideal
    I, IR = Mat.identity(ring, M.gens), Mat.identity(ring, M.rels.cols)
    for p in _prime_factorization(n):
        pr = ring.from_int(p)
        ann = kernel_sub(Morphism(M, M, I.scale(pr), IR.scale(pr)))
        if not sub_leq(ann, SubmoduleRep(M, I.scale(ring.from_int(n // p)))):
            return False
    return True


def _projective_by_invariants(M):
    # R/(d) is projective over R = cover/(n) iff gcd(d, n/d) is a unit;
    # over a domain n = 0, so no torsion is
    ring, cover = M.ring, M.ring.cover
    ops, n = cover.elim_ops(), ring.ideal
    torsion, _ = M.invariants()
    for d in torsion:
        d = cover.canon(d)  # the residue read in the cover, where it divides n
        a, b = d, ops.quo(n, d)
        while not cover.is_zero(b):
            a, b = b, ops.rem(a, b)
        if not cover.is_unit(a):
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
    return _morphism_exists(F, free_module(M.ring, A.cols), A, A, A.neg(), F.rels)


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
