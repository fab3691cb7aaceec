"""Lie-Yamaguti algebras: the type, its axioms, centers, derived algebras,
constructors and homomorphism checking.

An algebra is stored through structure tensors over a chosen basis:
``binary[i][j]`` is the vector [e_i, e_j] and ``ternary[i][j][k]`` the vector
<e_i, e_j, e_k>.  All axiom checks run over basis tuples; multilinearity makes
that equivalent to checking on arbitrary vectors.
"""

from .errors import AxiomsFailed, DimMismatch, NotLieAlgebra, StructureError
from .linalg import (Q0, Subspace, Tensor, contract, frac, is_zero_vec, vadd,
                     vscale, vsub, vzero)
from .reports import Checker


class LYAlgebra:
    """A finite-dimensional Lie-Yamaguti algebra over the rationals."""

    def __init__(self, dim, binary, ternary, basis=None, name=None):
        self.dim = dim
        self.name = name or "algebra"
        self.basis = list(basis) if basis else ["e%d" % (i + 1) for i in range(dim)]
        if len(self.basis) != dim:
            raise DimMismatch("%d basis labels for dim %d" % (len(self.basis), dim))
        self.binary = Tensor(binary, dim, 2, (dim,))
        self.ternary = Tensor(ternary, dim, 3, (dim,))
        for i in range(dim):
            for j in range(dim):
                if self.binary[i][j] != vscale(-frac(1), self.binary[j][i]):
                    raise StructureError("binary tensor not antisymmetric at (%d,%d)" % (i, j))
                for k in range(dim):
                    if self.ternary[i][j][k] != vscale(-frac(1), self.ternary[j][i][k]):
                        raise StructureError(
                            "ternary tensor not antisymmetric in first two slots at (%d,%d,%d)"
                            % (i, j, k))
        self.verified = False
        self._axiom_report = None

    # -- evaluation ---------------------------------------------------------

    def bracket2(self, x, y):
        """[x, y] for arbitrary vectors."""
        return contract(self.binary, x, y)

    def bracket3(self, x, y, z):
        """<x, y, z> for arbitrary vectors."""
        return contract(self.ternary, x, y, z)

    def e(self, i):
        return tuple(frac(1) if j == i else Q0 for j in range(self.dim))

    def ensure_verified(self):
        if not self.verified:
            rep = check_ly_axioms(self)
            if not rep.passed:
                raise AxiomsFailed("%s fails Lie-Yamaguti axioms" % self.name, rep)
        return self

    def __repr__(self):
        return "LYAlgebra(%s, dim=%d)" % (self.name, self.dim)


def check_ly_axioms(A, all_violations=False):
    """Check the four defining axioms on all basis tuples."""
    ck = Checker("ly-axioms(%s)" % A.name, all_violations)
    n = A.dim
    c, d = A.binary, A.ternary
    live2, live3 = c.support, d.support
    for i, j, k in ck.tuples(n, 3):
        res = vzero(n)
        if (i, j) in live2:
            res = vadd(res, contract(c, c[i][j], k))
        if (j, k) in live2:
            res = vadd(res, contract(c, c[j][k], i))
        if (k, i) in live2:
            res = vadd(res, contract(c, c[k][i], j))
        res = vadd(res, d[i][j][k])
        res = vadd(res, d[j][k][i])
        res = vadd(res, d[k][i][j])
        if not is_zero_vec(res):
            ck.record("LY1", (i, j, k), res)
    for i, j, k, l in ck.tuples(n, 4):
        res = vzero(n)
        hit = False
        if (i, j) in live2:
            res = vadd(res, contract(d, c[i][j], k, l)); hit = True
        if (j, k) in live2:
            res = vadd(res, contract(d, c[j][k], i, l)); hit = True
        if (k, i) in live2:
            res = vadd(res, contract(d, c[k][i], j, l)); hit = True
        if hit and not is_zero_vec(res):
            ck.record("LY2", (i, j, k, l), res)
    for i, j, k, l in ck.tuples(n, 4):
        res = vzero(n)
        hit = False
        if (k, l) in live2:
            res = vadd(res, contract(d, i, j, c[k][l])); hit = True
        if (i, j, k) in live3:
            res = vsub(res, contract(c, d[i][j][k], l)); hit = True
        if (i, j, l) in live3:
            res = vsub(res, contract(c, k, d[i][j][l])); hit = True
        if hit and not is_zero_vec(res):
            ck.record("LY3", (i, j, k, l), res)
    for i, j, k, l, m in ck.tuples(n, 5):
        res = vzero(n)
        hit = False
        if (k, l, m) in live3:
            res = vadd(res, contract(d, i, j, d[k][l][m])); hit = True
        if (i, j, k) in live3:
            res = vsub(res, contract(d, d[i][j][k], l, m)); hit = True
        if (i, j, l) in live3:
            res = vsub(res, contract(d, k, d[i][j][l], m)); hit = True
        if (i, j, m) in live3:
            res = vsub(res, contract(d, k, l, d[i][j][m])); hit = True
        if hit and not is_zero_vec(res):
            ck.record("LY4", (i, j, k, l, m), res)
    rep = ck.report()
    if rep.passed:
        A.verified = True
    A._axiom_report = rep
    return rep


def abelian(dim, name=None):
    zero = vzero(dim)
    binary = [[zero] * dim for _ in range(dim)]
    ternary = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    A = LYAlgebra(dim, binary, ternary, name=name or "abelian%d" % dim)
    A.verified = True
    return A


def from_lie_algebra(dim, binary, basis=None, name=None):
    """Build the Lie-Yamaguti algebra with <x,y,z> := [[x,y],z].

    The binary tensor must be a Lie bracket; Jacobi is verified and
    NotLieAlgebra raised otherwise.
    """
    c = Tensor(binary, dim, 2, (dim,))
    for i in range(dim):
        for j in range(dim):
            if c[i][j] != vscale(-frac(1), c[j][i]):
                raise NotLieAlgebra("bracket not antisymmetric at (%d,%d)" % (i, j))
    ternary = [[[contract(c, c[i][j], k) for k in range(dim)] for j in range(dim)]
               for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                jac = vadd(vadd(ternary[i][j][k], ternary[j][k][i]), ternary[k][i][j])
                if not is_zero_vec(jac):
                    raise NotLieAlgebra("Jacobi fails at (%d,%d,%d)" % (i, j, k))
    A = LYAlgebra(dim, c, ternary, basis=basis, name=name or "lie-induced")
    rep = check_ly_axioms(A)
    if not rep.passed:
        raise AxiomsFailed("lie-induced algebra fails axioms", rep)
    return A


def center(A):
    """{x : [x,g]=0} n {x : <x,g,g>=0} n {x : <g,g,x>=0} as a subspace."""
    n = A.dim
    rows = []
    for j in range(n):
        for r in range(n):
            rows.append(tuple(A.binary[i][j][r] for i in range(n)))
    for j in range(n):
        for k in range(n):
            for r in range(n):
                rows.append(tuple(A.ternary[i][j][k][r] for i in range(n)))
    for j in range(n):
        for k in range(n):
            for r in range(n):
                rows.append(tuple(A.ternary[j][k][i][r] for i in range(n)))
    from .linalg import nullspace_basis
    return Subspace(n, nullspace_basis(tuple(rows)))


def derived_algebra(A):
    """[g,g] intersected with <g,g,g>."""
    n = A.dim
    span2 = Subspace(n, [A.binary[i][j] for i in range(n) for j in range(i + 1, n)])
    span3 = Subspace(n, [A.ternary[i][j][k]
                         for i in range(n) for j in range(n) for k in range(n)])
    return span2.intersect(span3)


def check_homomorphism(A, B, phi, all_violations=False):
    """phi: A -> B given as a B.dim x A.dim matrix over the bases."""
    if len(phi) != B.dim or any(len(r) != A.dim for r in phi):
        raise DimMismatch("map must be %dx%d" % (B.dim, A.dim))
    from .linalg import mat_vec
    ck = Checker("homomorphism(%s->%s)" % (A.name, B.name), all_violations)
    cols = [mat_vec(phi, A.e(i)) for i in range(A.dim)]
    for i, j in ck.tuples(A.dim, 2):
        res = vsub(mat_vec(phi, A.binary[i][j]), B.bracket2(cols[i], cols[j]))
        if not is_zero_vec(res):
            ck.record("hom-binary", (i, j), res)
    for i, j, k in ck.tuples(A.dim, 3):
        res = vsub(mat_vec(phi, A.ternary[i][j][k]),
                   B.bracket3(cols[i], cols[j], cols[k]))
        if not is_zero_vec(res):
            ck.record("hom-ternary", (i, j, k), res)
    return ck.report()


def direct_sum(A, B, name=None):
    n, m = A.dim, B.dim
    dim = n + m

    def emb_a(v):
        return tuple(v) + vzero(m)

    def emb_b(v):
        return vzero(n) + tuple(v)

    zero = vzero(dim)
    binary = [[zero] * dim for _ in range(dim)]
    ternary = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            binary[i][j] = emb_a(A.binary[i][j])
            for k in range(n):
                ternary[i][j][k] = emb_a(A.ternary[i][j][k])
    for i in range(m):
        for j in range(m):
            binary[n + i][n + j] = emb_b(B.binary[i][j])
            for k in range(m):
                ternary[n + i][n + j][n + k] = emb_b(B.ternary[i][j][k])
    S = LYAlgebra(dim, binary, ternary,
                  basis=list(A.basis) + list(B.basis),
                  name=name or "%s(+)%s" % (A.name, B.name))
    if A.verified and B.verified:
        S.verified = True
    return S
