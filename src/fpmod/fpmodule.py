"""Finitely presented modules, morphisms, and submodule representations.

A module is the cokernel of its relation matrix (gens rows, one column
per relation).  Morphisms carry a well-definedness witness; equality of
morphisms is always taken modulo the target relations.  Over
IntegersMod(n) every normal-form computation lifts to the integers with
n*identity relations appended (normal_forms.lift), so the Euclidean
kernels are the only elimination code in the package.
"""

from dataclasses import dataclass, field

from .errors import DimensionMismatch, NotWellDefined, RingMismatch
from .matrix import Mat
from .normal_forms import kernel_matrix, lift, snf, solve_linear
from .rings import INTEGERS_MOD


@dataclass(frozen=True)
class FpModule:
    ring: object
    gens: int
    rels: Mat
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.rels.rows != self.gens:
            raise DimensionMismatch(
                f"relation matrix has {self.rels.rows} rows for {self.gens} generators"
            )
        if self.rels.ring != self.ring:
            raise RingMismatch(f"{self.rels.ring} relations in {self.ring} module")

    def lifted_rels(self):
        """Relations over a Euclidean ring: the Z-lift with n*I appended for Z/n."""
        if self.ring.kind == INTEGERS_MOD:
            return lift(self.rels)
        return self.rels

    def invariants(self):
        """(torsion_factors, free_rank): complete iso invariant over these rings."""
        if "inv" not in self._cache:
            self._cache["inv"] = _compute_invariants(self)
        return self._cache["inv"]

    def is_zero_module(self):
        torsion, free = self.invariants()
        return not torsion and free == 0

    def __str__(self):
        return f"FpModule({self.ring}, gens={self.gens}, rels={self.rels})"


def _compute_invariants(M):
    ring = M.ring
    sf = snf(M.lifted_rels())
    if ring.kind == INTEGERS_MOD:
        n = ring.modulus
        torsion = []
        free = 0
        for d in sf.invariant_factors:
            if d == n:
                free += 1
            elif d != 1:
                torsion.append(ring.canon(d))
        # any lift factor is a divisor of n, so nothing else can occur
        return tuple(torsion), free
    torsion = tuple(d for d in sf.invariant_factors if not ring.is_unit(d))
    free = M.gens - len(sf.invariant_factors)
    return torsion, free


def mk_module(ring, rels):
    if rels.ring != ring:
        raise RingMismatch(f"relations over {rels.ring}, module over {ring}")
    return FpModule(ring, rels.rows, rels)


def free_module(ring, rank):
    return FpModule(ring, rank, Mat.zeros(ring, rank, 0))


def zero_module(ring):
    return free_module(ring, 0)


def is_iso(M, N):
    if M.ring != N.ring:
        raise RingMismatch(f"{M.ring} vs {N.ring}")
    return M.invariants() == N.invariants()


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class Morphism:
    source: FpModule
    target: FpModule
    mat: Mat
    witness: Mat

    def __call__(self, x):
        """Apply to an element (coordinate column in source generators)."""
        return self.mat.mul(x)


def mk_morphism(M, N, mat):
    """Build a morphism M -> N, solving for the well-definedness witness."""
    if M.ring != N.ring or mat.ring != M.ring:
        raise RingMismatch("morphism pieces over different rings")
    if mat.rows != N.gens or mat.cols != M.gens:
        raise DimensionMismatch(
            f"matrix {mat.rows}x{mat.cols} for morphism {M.gens} gens -> {N.gens} gens"
        )
    w = solve_linear(N.rels, mat.mul(M.rels))
    if w is None:
        raise NotWellDefined("matrix does not send source relations into target relations")
    return Morphism(M, N, mat, w)


def identity_morphism(M):
    return mk_morphism(M, M, Mat.identity(M.ring, M.gens))

def zero_morphism(M, N):
    return mk_morphism(M, N, Mat.zeros(M.ring, N.gens, M.gens))


def mor_eq(f, g):
    """Equality modulo target relations."""
    if f.source.gens != g.source.gens or f.target.gens != g.target.gens:
        raise DimensionMismatch("comparing morphisms of different shapes")
    return solve_linear(f.target.rels, f.mat.sub(g.mat)) is not None


def compose(g, f):
    """g after f."""
    if f.target.gens != g.source.gens:
        raise DimensionMismatch("composition shape mismatch")
    return mk_morphism(f.source, g.target, g.mat.mul(f.mat))


def mor_power(f, k):
    """f composed with itself k times (f must be an endomorphism)."""
    out = identity_morphism(f.source)
    for _ in range(k):
        out = compose(f, out)
    return out


def is_zero_elem(M, x):
    return solve_linear(M.rels, x) is not None


# ---------------------------------------------------------------------------
# submodules


@dataclass(frozen=True)
class SubmoduleRep:
    ambient: FpModule
    gens_mat: Mat

    def __post_init__(self):
        if self.gens_mat.rows != self.ambient.gens:
            raise DimensionMismatch("submodule generators must live in ambient coordinates")


def member(sub, x):
    """Is x (a column in ambient coordinates) in the span of sub + relations?"""
    if x.rows != sub.ambient.gens or x.cols != 1:
        raise DimensionMismatch("element has wrong shape for ambient module")
    A = sub.gens_mat.hstack(sub.ambient.rels)
    return solve_linear(A, x) is not None


def sub_leq(a, b):
    """Every generator of a lies in b (same ambient)."""
    A = b.gens_mat.hstack(b.ambient.rels)
    return solve_linear(A, a.gens_mat) is not None


def sub_eq(a, b):
    return sub_leq(a, b) and sub_leq(b, a)


def sub_is_zero(a):
    return solve_linear(a.ambient.rels, a.gens_mat) is not None


def sub_sum(a, b):
    return SubmoduleRep(a.ambient, a.gens_mat.hstack(b.gens_mat))


def sub_intersection(a, b):
    """Generators of (span a + rels) meet (span b + rels), as a SubmoduleRep."""
    amb = a.ambient
    ra = amb.rels
    # x = a*u + rels*s = b*v + rels*t  <=>  [a | rels | -b | -rels] kernel
    big = a.gens_mat.hstack(ra).hstack(b.gens_mat.neg()).hstack(ra.neg())
    K = kernel_matrix(big)
    na, nr = a.gens_mat.cols, ra.cols
    u = K.select_rows(range(na))
    s = K.select_rows(range(na, na + nr))
    gens = a.gens_mat.mul(u).add(ra.mul(s)) if K.cols else Mat.zeros(amb.ring, amb.gens, 0)
    return SubmoduleRep(amb, gens.nonzero_columns())


def full_submodule(M):
    return SubmoduleRep(M, Mat.identity(M.ring, M.gens))


def zero_submodule(M):
    return SubmoduleRep(M, Mat.zeros(M.ring, M.gens, 0))


def present_submodule(ambient, gens_mat):
    """Present span(gens_mat) as an FpModule K with inclusion K -> ambient."""
    big = gens_mat.hstack(ambient.rels)
    K = kernel_matrix(big)
    krels = K.select_rows(range(gens_mat.cols))
    kmod = FpModule(ambient.ring, gens_mat.cols, krels)
    incl = mk_morphism(kmod, ambient, gens_mat)
    return kmod, incl


# ---------------------------------------------------------------------------
# abelian-category toolkit


def kernel(f):
    """(K, incl) with incl monic and image {x : f(x) = 0 in target}."""
    big = f.mat.hstack(f.target.rels)
    K = kernel_matrix(big)
    G = K.select_rows(range(f.source.gens)).nonzero_columns()
    return present_submodule(f.source, G)


def cokernel(f):
    C = mk_module(f.target.ring, f.target.rels.hstack(f.mat))
    proj = mk_morphism(f.target, C, Mat.identity(f.target.ring, f.target.gens))
    return C, proj


def image(f):
    return SubmoduleRep(f.target, f.mat)


def is_surjective(f):
    C, _ = cokernel(f)
    return C.is_zero_module()


def is_injective(f):
    K, _ = kernel(f)
    return K.is_zero_module()


def direct_sum(M, N):
    ring = M.ring
    if ring != N.ring:
        raise RingMismatch(f"{ring} vs {N.ring}")
    S = mk_module(ring, Mat.block_diag(M.rels, N.rels))
    zmn = Mat.zeros(ring, M.gens, N.gens)
    znm = Mat.zeros(ring, N.gens, M.gens)
    im, iN = Mat.identity(ring, M.gens), Mat.identity(ring, N.gens)
    inj1 = mk_morphism(M, S, im.vstack(znm))
    inj2 = mk_morphism(N, S, zmn.vstack(iN))
    proj1 = mk_morphism(S, M, im.hstack(zmn))
    proj2 = mk_morphism(S, N, znm.hstack(iN))
    return S, inj1, inj2, proj1, proj2


def quotient_by(sub):
    amb = sub.ambient
    Q = mk_module(amb.ring, amb.rels.hstack(sub.gens_mat))
    proj = mk_morphism(amb, Q, Mat.identity(amb.ring, amb.gens))
    return Q, proj
