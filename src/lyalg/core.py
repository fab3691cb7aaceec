"""Lie-Yamaguti algebras: the type, its axioms, centers, derived algebras,
constructors and homomorphism checking.

An algebra is stored through structure tensors over a chosen basis (see
``linalg.Tensor``): ``binary`` holds the vectors [e_i, e_j] and ``ternary``
the vectors <e_i, e_j, e_k>.  All axiom checks run over basis tuples;
multilinearity makes that equivalent to checking on arbitrary vectors.  Each
axiom is tabulated over every basis tuple at once from the brackets' supports
(``linalg.signed_sum``) and its nonzero residuals are the witnesses.
"""

from .errors import AxiomsFailed, DimMismatch, NotLieAlgebra, StructureError
from .linalg import (Map, SparseMat, Subspace, Tensor, dense, hom_table, mat, signed_sum,
                     skew_fault)
from .reports import Checker, summed


def set_operations(S, dim, values, basis, name):
    """The prologue of an algebra's constructor: ``S.dim``, ``S.name`` (by
    default ``S.KIND``), ``S.basis`` (by default e1, e2, ..; DimMismatch
    unless dim labels) and one ``Tensor`` per entry (key, arity, skew) of
    ``S.OPERATIONS`` from ``values``.  The binary and the ternary operation
    whose ``skew`` names it must be antisymmetric in their first two slots:
    StructureError names the first place where one is not."""
    S.dim, S.name = dim, name or S.KIND
    S.basis = list(basis) if basis else ["e%d" % (i + 1) for i in range(dim)]
    if len(S.basis) != dim:
        raise DimMismatch("%d basis labels for dim %d" % (len(S.basis), dim))
    skew = []
    for (key, arity, noun), v in zip(S.OPERATIONS, values):
        t = Tensor(v, dim, arity, (dim,))
        setattr(S, key, t)
        if noun:
            skew.append(t)
    fault = skew_fault(*skew)
    if fault is not None:
        binary, ternary = [noun for _, _, noun in S.OPERATIONS if noun]
        raise StructureError("%s not antisymmetric at (%d,%d)" % ((binary,) + fault)
                             if len(fault) == 2 else "%s not antisymmetric in first two "
                             "slots at (%d,%d,%d)" % ((ternary,) + fault))


class LYAlgebra:
    """A finite-dimensional Lie-Yamaguti algebra over the rationals."""

    KIND = "algebra"
    # (key, arity, name in antisymmetry errors or None); see ``set_operations``
    OPERATIONS = (("binary", 2, "binary tensor"), ("ternary", 3, "ternary tensor"))

    def __init__(self, dim, binary, ternary, basis=None, name=None):
        set_operations(self, dim, (binary, ternary), basis, name)
        self.verified = False

    def ensure_verified(self):
        if not self.verified:
            rep = check_ly_axioms(self)
            if not rep.passed:
                raise AxiomsFailed("%s fails Lie-Yamaguti axioms" % self.name, rep)
        return self

    def __repr__(self):
        return "LYAlgebra(%s, dim=%d)" % (self.name, self.dim)


def check_ly_axioms(A, all_violations=False):
    """Check the four defining axioms on all basis tuples.

    LY1: [[x,y],z] + [[y,z],x] + [[z,x],y] + <x,y,z> + <y,z,x> + <z,x,y> = 0
    LY2: <[x,y],z,w> + <[y,z],x,w> + <[z,x],y,w> = 0
    LY3: <x,y,[z,w]> = [<x,y,z>,w] + [z,<x,y,w>]
    LY4: <x,y,<z,w,v>> = <<x,y,z>,w,v> + <z,<x,y,w>,v> + <z,w,<x,y,v>>

    Each axiom is one table of its residuals over all basis tuples, a signed
    sum of compositions of the brackets' supports, so only tuples where some
    term has every factor in the support are ever formed.
    """
    ck = Checker("ly-axioms(%s)" % A.name, all_violations)
    c, d = A.binary.support, A.ternary.support
    # basis vectors x, y, z, w, v sit at tuple positions 0..4 (see
    # ``linalg.signed_sum``); LY4 takes the commutator of <x,y,.> and
    # <z,w,.> first, so that fewer tuples are live in its table at once
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ck.tabulate(A.binary.shape, summed([
        ("LY1", [(1, c, 0, c, xyz) for xyz in cyclic] + [(1, d, xyz) for xyz in cyclic])], [
        ("LY2", [(1, d, 0, c, xyz + (3,)) for xyz in cyclic])], [
        ("LY3", [(1, d, 2, c), (-1, c, 0, d), (-1, c, 1, d, (2, 0, 1, 3))])], [
        ("LY4", [(1, d, 2, d), (-1, d, 2, d, (2, 3, 0, 1, 4)), (-1, d, 0, d),
                 (-1, d, 1, d, (2, 0, 1, 3, 4))])]))
    rep = ck.report()
    if rep.passed:
        A.verified = True
    return rep


def abelian(dim, name=None):
    A = LYAlgebra(dim, Tensor.from_support({}, dim, 2, (dim,)),
                  Tensor.from_support({}, dim, 3, (dim,)), name=name or "abelian%d" % dim)
    A.verified = True
    return A


def from_lie_algebra(dim, binary, basis=None, name=None):
    """Build the Lie-Yamaguti algebra with <x,y,z> := [[x,y],z].

    The binary tensor must be a Lie bracket (NotLieAlgebra otherwise). It is
    built verified: Jacobi alone gives LY1-LY4 (ad [x,y] is a derivation).
    """
    c = Tensor(binary, dim, 2, (dim,))
    fault = skew_fault(c)
    if fault is not None:
        raise NotLieAlgebra("bracket not antisymmetric at (%d,%d)" % fault)
    ternary = signed_sum([(1, c.support, 0, c.support)])
    # <x,y,z> + <y,z,x> + <z,x,y> at (x, y, z)
    jacobi = signed_sum([(1, ternary, xyz) for xyz in ((0, 1, 2), (2, 0, 1), (1, 2, 0))])
    if jacobi:
        raise NotLieAlgebra("Jacobi fails at (%d,%d,%d)" % min(jacobi))
    A = LYAlgebra(dim, c, Tensor.from_support(ternary, dim, 3, (dim,)), basis=basis,
                  name=name or "lie-induced")
    A.verified = True
    return A


def center_equations(A):
    """The defining equations of the center, as the map (``linalg.Map``)
    taking x to the values of its equations, one row per equation.

    Each coordinate r of [x, e_j], <x, e_j, e_k> and <e_j, e_k, x> is one
    equation in x, its coefficients read off the supports of the brackets;
    the equations are numbered in the order they are first met.  The entries
    are the supports' stored nonzero scalars, so the Map is made from them
    as they are.
    """
    index, entries = {}, {}
    for (i, j), v in A.binary.support.items():
        for r, q in v.items():
            entries[index.setdefault(("binary", j, r), len(index)), i] = q
    for (i, j, k), v in A.ternary.support.items():
        for r, q in v.items():
            entries[index.setdefault(("first", j, k, r), len(index)), i] = q
            entries[index.setdefault(("last", i, j, r), len(index)), k] = q
    return Map((len(index), A.dim), sorted(entries.items()))


def center(A):
    """{x : [x,g]=0} n {x : <x,g,g>=0} n {x : <g,g,x>=0} as a subspace, the
    kernel of ``center_equations``."""
    equations = center_equations(A)
    return Subspace(A.dim, [dense(v, (A.dim,))
                            for v in SparseMat(*equations.shape, equations).nullspace()])


def derived_algebra(A):
    """[g,g] intersected with <g,g,g>."""
    shape = (A.dim,)
    span2 = Subspace(A.dim, [dense(v, shape) for v in A.binary.support.values()])
    span3 = Subspace(A.dim, [dense(v, shape) for v in A.ternary.support.values()])
    return span2.intersect(span3)


def check_homomorphism(A, B, phi, all_violations=False):
    """phi: A -> B, a B.dim x A.dim map over the bases (``linalg.mat``).

    The residuals phi[x, y] - [phi x, phi y] and likewise for the ternary
    bracket are tabulated over all basis tuples (``linalg.hom_table``): every
    pair first, then every triple, whose table is not built once the pairs
    have settled a capped report.
    """
    phi = mat(phi, (B.dim, A.dim), "map must be %dx%d")
    ck = Checker("homomorphism(%s->%s)" % (A.name, B.name), all_violations)
    ck.tabulate((B.dim,), ([(name, hom_table(a, b, phi, (phi,) * a.arity))] for name, a, b in
                           (("hom-binary", A.binary, B.binary),
                            ("hom-ternary", A.ternary, B.ternary))))
    return ck.report()


def direct_sum(A, B, name=None):
    n, dim = A.dim, A.dim + B.dim
    tensors = []
    for a, b in ((A.binary, B.binary), (A.ternary, B.ternary)):
        table = dict(a.support)
        for key, v in b.support.items():
            table[tuple(n + i for i in key)] = {n + r: q for r, q in v.items()}
        tensors.append(Tensor.from_support(table, dim, a.arity, (dim,)))
    S = LYAlgebra(dim, *tensors,
                  basis=list(A.basis) + list(B.basis),
                  name=name or "%s(+)%s" % (A.name, B.name))
    if A.verified and B.verified:
        S.verified = True
    return S
