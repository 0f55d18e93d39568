"""Finitely presented modules, morphisms, and submodule representations.

A module is the cokernel of its relation matrix (gens rows, one column
per relation).  Morphisms carry a well-definedness witness; equality of
morphisms is always taken modulo the target relations.  Every
normal-form computation runs over the ring's Euclidean cover, with
ideal*identity relations appended for a quotient such as Z/n
(normal_forms.lift), so the Euclidean kernels are the only elimination
code in the package.

A morphism whose matrix comes from outside goes through mk_morphism,
which solves for the witness: the CLI and the harness decoders.  Every
morphism the package builds itself gets its witness by construction,
in closed form: compose, identity_morphism, zero_morphism, quotient_by
(and so cokernel), present_submodule (and so kernel) and direct_sum
here; pushout, pushout_induced, base_change_mor, tensor_mor, is_flat,
the morphism-equation solver (homtensor._solve_morphism) and
HomModule.decode, whose witness rows come with the Hom kernel,
elsewhere.

Equality of morphisms, containment, the zero tests, surjectivity and
the direct-sum test (sub_independent, one kernel for all the parts)
only need a verdict, so they call normal_forms.solvable, which builds
no solution.

A module is its relation matrix: its ring and generator count are read
off the matrix, and its invariants are a cached property, derived from
it once per module.
"""

from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import DimensionMismatch, NotWellDefined, RingMismatch, SourceMismatch
from .matrix import Mat
from .normal_forms import kernel_matrix, lift, snf, solvable, solve_linear


@dataclass(frozen=True)
class FpModule:
    rels: Mat

    @property
    def ring(self):
        return self.rels.ring

    @property
    def gens(self):
        return self.rels.rows

    def lifted_rels(self):
        """Relations over the Euclidean cover of the ring (normal_forms.lift)."""
        return lift(self.rels)

    def invariants(self):
        """(torsion_factors, free_rank): complete iso invariant over these rings."""
        return self._invariants

    @cached_property
    def _invariants(self):
        # one Smith factor d per generator, each a summand cover/(d):
        # free for d = ideal, zero for a unit, torsion otherwise
        ring, cover = self.ring, self.ring.cover
        factors = snf(self.lifted_rels()).invariant_factors
        factors += (cover.zero(),) * (self.gens - len(factors))
        free = sum(d == ring.ideal for d in factors)
        torsion = tuple(ring.canon(d) for d in factors if d != ring.ideal and not cover.is_unit(d))
        return torsion, free

    def is_zero_module(self):
        torsion, free = self.invariants()
        return not torsion and free == 0

    def __str__(self):
        return f"FpModule({self.ring}, gens={self.gens}, rels={self.rels})"


def mk_module(ring, rels):
    if rels.ring != ring:
        raise RingMismatch(f"relations over {rels.ring}, module over {ring}")
    return FpModule(rels)


def free_module(ring, rank):
    return FpModule(Mat.zeros(ring, rank, 0))


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
    """A map source -> target by the matrix mat on generators.

    witness certifies that mat is well defined: it is a
    target.rels.cols x source.rels.cols matrix w with
    target.rels * w = mat * source.rels.  The constructor does not check
    it; mk_morphism solves for it, the package's own constructors give
    it in closed form.
    """

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
    return Morphism(M, M, Mat.identity(M.ring, M.gens), Mat.identity(M.ring, M.rels.cols))


def zero_morphism(M, N):
    ring = M.ring
    return Morphism(M, N, Mat.zeros(ring, N.gens, M.gens), Mat.zeros(ring, N.rels.cols, M.rels.cols))


def mor_eq(f, g):
    """Equality modulo target relations."""
    if f.source.gens != g.source.gens or f.target.gens != g.target.gens:
        raise DimensionMismatch("comparing morphisms of different shapes")
    return solvable(f.target.rels, f.mat.sub(g.mat))


def compose(g, f):
    """g after f, with witness w_g * w_f."""
    if f.target != g.source:
        raise SourceMismatch("composition needs f's target to be g's source")
    return Morphism(f.source, g.target, g.mat.mul(f.mat), g.witness.mul(f.witness))


def mor_power(f, k):
    """f composed with itself k times (f must be an endomorphism)."""
    out = identity_morphism(f.source)
    for _ in range(k):
        out = compose(f, out)
    return out


def is_zero_elem(M, x):
    return solvable(M.rels, x)


# ---------------------------------------------------------------------------
# submodules


@dataclass(frozen=True)
class SubmoduleRep:
    ambient: FpModule
    gens_mat: Mat

    def __post_init__(self):
        if self.gens_mat.rows != self.ambient.gens:
            raise DimensionMismatch("submodule generators must live in ambient coordinates")


def sub_leq(a, b):
    """Every generator of a lies in b (same ambient)."""
    A = b.gens_mat.hstack(b.ambient.rels)
    return solvable(A, a.gens_mat)


def sub_eq(a, b):
    return sub_leq(a, b) and sub_leq(b, a)


def sub_is_zero(a):
    return solvable(a.ambient.rels, a.gens_mat)


def sub_sum(a, b):
    return SubmoduleRep(a.ambient, a.gens_mat.hstack(b.gens_mat))


def sub_independent(parts):
    """Is the sum of parts (submodules of one ambient) direct?  The columns
    of K = kernel([rels | g_1 | ... | g_k]) generate the relations among
    the parts' generators g_i, so the sum is direct iff each g_i*K_i (K_i:
    K's rows for g_i) lies in the span of rels.  The last part needs no
    check: g_k*K_k is minus the others modulo rels."""
    if len(parts) < 2:
        return True
    rels = parts[0].ambient.rels
    K = kernel_matrix(reduce(Mat.hstack, (p.gens_mat for p in parts), rels))
    start = rels.cols
    for p in parts[:-1]:
        stop = start + p.gens_mat.cols
        if not solvable(rels, p.gens_mat.mul(K.select_rows(range(start, stop)))):
            return False
        start = stop
    return True


def full_submodule(M):
    return SubmoduleRep(M, Mat.identity(M.ring, M.gens))


def zero_submodule(M):
    return SubmoduleRep(M, Mat.zeros(M.ring, M.gens, 0))


def present_submodule(ambient, gens_mat):
    """Present span(gens_mat) as an FpModule K with inclusion K -> ambient."""
    big = gens_mat.hstack(ambient.rels)
    K = kernel_matrix(big)
    krels = K.select_rows(range(gens_mat.cols))
    kmod = FpModule(krels)
    # gens_mat * krels = -ambient.rels * (the kernel's rows under the relations)
    incl = Morphism(kmod, ambient, gens_mat, K.select_rows(range(gens_mat.cols, K.rows)).neg())
    return kmod, incl


# ---------------------------------------------------------------------------
# abelian-category toolkit


def kernel_sub(f):
    """{x : f(x) = 0 in target} as a submodule of the source, the
    counterpart of image(f): the source rows of kernel([f.mat | rels])."""
    K = kernel_matrix(f.mat.hstack(f.target.rels))
    return SubmoduleRep(f.source, K.select_rows(range(f.source.gens)).nonzero_columns())


def kernel(f):
    """(K, incl) with incl monic and image kernel_sub(f)."""
    return present_submodule(f.source, kernel_sub(f).gens_mat)


def cokernel(f):
    return quotient_by(image(f))


def image(f):
    return SubmoduleRep(f.target, f.mat)


def is_surjective(f):
    return sub_leq(full_submodule(f.target), image(f))


def is_injective(f):
    return sub_is_zero(kernel_sub(f))


def block_injections(ring, a, b):
    """[I_a; 0] and [0; I_b]: the injections of R^a and R^b into R^(a+b)."""
    return (
        Mat.identity(ring, a).vstack(Mat.zeros(ring, b, a)),
        Mat.zeros(ring, a, b).vstack(Mat.identity(ring, b)),
    )


def direct_sum(M, N):
    """(S, inj1, inj2, proj1, proj2); on relations too every map is a
    block identity, which is its witness."""
    ring = M.ring
    if ring != N.ring:
        raise RingMismatch(f"{ring} vs {N.ring}")
    S = mk_module(ring, Mat.block_diag(M.rels, N.rels))
    i1, i2 = block_injections(ring, M.gens, N.gens)
    w1, w2 = block_injections(ring, M.rels.cols, N.rels.cols)
    inj1 = Morphism(M, S, i1, w1)
    inj2 = Morphism(N, S, i2, w2)
    proj1 = Morphism(S, M, i1.transpose(), w1.transpose())
    proj2 = Morphism(S, N, i2.transpose(), w2.transpose())
    return S, inj1, inj2, proj1, proj2


def quotient_by(sub):
    """(Q, proj) with Q = ambient / span(sub): the relations gain sub's
    generators, and proj is the identity on generators, witness [I; 0]."""
    amb = sub.ambient
    ring = amb.ring
    Q = mk_module(ring, amb.rels.hstack(sub.gens_mat))
    w = Mat.identity(ring, amb.rels.cols).vstack(Mat.zeros(ring, sub.gens_mat.cols, amb.rels.cols))
    return Q, Morphism(amb, Q, Mat.identity(ring, amb.gens), w)
