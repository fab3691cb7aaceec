"""Post-Lie-Yamaguti algebras.

A post-algebra carries four operations on one space: an antisymmetric product
x.y, an unconstrained product x*y, a ternary <x,y,z> antisymmetric in the
first two slots making (A, ., <,,>) a Lie-Yamaguti algebra, and an
unconstrained ternary {x,y,z}.  Three derived operations are cached:

    {x,y,z}_D = {z,y,x} - {z,x,y} + (y,x,z) - (x,y,z) - (x.y)*z
    [x,y]_C   = x*y - y*x + x.y
    <x,y,z>_C = {x,y,z}_D + {x,y,z} - {y,x,z} + <x,y,z>

with (a,b,c) = (a*b)*c - a*(b*c).  The axioms make ([,]_C, <,,>_C) a
Lie-Yamaguti structure (the sub-adjacent algebra) acted on by
L(x)z = x*z, R(x,y)z = {z,x,y}, with the identity map a weight-1 operator.
The checker's default axiom set is the one under which the structure induced
by any weight-1 operator (dot = carrier binary, x*y = rho(Tx)y,
{x,y,z} = mu(Ty,Tz)x, angle = carrier ternary) always passes; a few alternate
variants of the compatibility equations are available via ``as_printed``.
"""

from .core import LYAlgebra, check_homomorphism
from .errors import AxiomsFailed, DimMismatch, StructureError, Unverified
from .linalg import (Q0, Q1, Tensor, contract, is_zero_vec, mat, mat_col, mat_id,
                     mat_vec, skew_fault, vadd, vsub, vzero)
from .reports import Checker
from .reps import RepAction, check_action


class PostLYAlgebra:
    """Four operations plus derived caches; see the module docstring."""

    def __init__(self, dim, dot, star, angle, brace, basis=None, name=None):
        self.dim = dim
        self.name = name or "post-algebra"
        self.basis = list(basis) if basis else ["e%d" % (i + 1) for i in range(dim)]
        self.dot = Tensor(dot, dim, 2, (dim,))
        self.star = Tensor(star, dim, 2, (dim,))
        self.angle = Tensor(angle, dim, 3, (dim,))
        self.brace = Tensor(brace, dim, 3, (dim,))
        fault = skew_fault(self.dot, self.angle)
        if fault is not None and len(fault) == 2:
            raise StructureError("dot not antisymmetric at (%d,%d)" % fault)
        if fault is not None:
            raise StructureError(
                "angle not antisymmetric in first two slots at (%d,%d,%d)" % fault)
        self._e = [tuple(Q1 if s == i else Q0 for s in range(dim)) for i in range(dim)]
        rng = range(dim)
        self.brace_D = Tensor([[[self._brace_D_formula(i, j, k) for k in rng] for j in rng]
                               for i in rng], dim, 3, (dim,))
        self.sub_binary = Tensor(
            [[vadd(vsub(self.star[i][j], self.star[j][i]), self.dot[i][j]) for j in rng]
             for i in rng], dim, 2, (dim,))
        self.sub_ternary = Tensor(
            [[[vadd(vadd(self.brace_D[i][j][k],
                         vsub(self.brace[i][j][k], self.brace[j][i][k])),
                    self.angle[i][j][k])
               for k in rng] for j in rng] for i in rng], dim, 3, (dim,))
        self._ly = None
        self._sub = None
        self.verified = False

    def _brace_D_formula(self, i, j, k):
        """{e_i,e_j,e_k}_D from the module docstring's formula."""
        x, y, z = self._e[i], self._e[j], self._e[k]
        out = vsub(self.brace[k][j][i], self.brace[k][i][j])
        out = vadd(out, vsub(self.assoc_at(y, x, z), self.assoc_at(x, y, z)))
        return vsub(out, self.star_at(self.dot[i][j], z))

    # operation evaluation at arbitrary vectors -----------------------------

    def dot_at(self, x, y):
        return contract(self.dot, x, y)

    def star_at(self, x, y):
        return contract(self.star, x, y)

    def angle_at(self, x, y, z):
        return contract(self.angle, x, y, z)

    def brace_at(self, x, y, z):
        return contract(self.brace, x, y, z)

    def assoc_at(self, x, y, z):
        return vsub(self.star_at(self.star_at(x, y), z),
                    self.star_at(x, self.star_at(y, z)))

    def brace_D_at(self, x, y, z):
        return contract(self.brace_D, x, y, z)

    def subb_at(self, x, y):
        return contract(self.sub_binary, x, y)

    def subt_at(self, x, y, z):
        return contract(self.sub_ternary, x, y, z)

    def base_ly(self):
        """(A, dot, angle) as a Lie-Yamaguti algebra (not yet axiom-checked)."""
        if self._ly is None:
            self._ly = LYAlgebra(self.dim, self.dot, self.angle,
                                 basis=self.basis, name="%s-base" % self.name)
        return self._ly

    def ensure_verified(self):
        if not self.verified:
            rep = check_post_axioms(self)
            if not rep.passed:
                raise AxiomsFailed("%s fails post-algebra axioms" % self.name, rep)
        return self

    def __repr__(self):
        return "PostLYAlgebra(%s, dim=%d)" % (self.name, self.dim)


def zero_post(dim, name=None):
    z = vzero(dim)
    t2 = [[z] * dim for _ in range(dim)]
    t3 = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    return PostLYAlgebra(dim, t2, t2, t3, t3, name=name or "zero-post%d" % dim)


def check_post_axioms(A, all_violations=False, as_printed=False):
    """Verify the compatibility equations plus the base LY axioms.

    With ``as_printed`` the three equations whose default form is the one
    transported from the representation/action axioms are replaced by their
    close variants (P4's first summand uses {{x,w,z},w,t}, P5 carries the
    derived brace on the inner slots, and P6 constrains only star images).
    """
    from .core import check_ly_axioms
    ck = Checker("post-axioms(%s)" % A.name, all_violations)
    base = check_ly_axioms(A.base_ly(), all_violations)
    for v in base.violations:
        ck.record("base-" + v.eq, v.args, v.residual)
    n = A.dim
    e = A._e
    rng = range(n)

    for i, j, k, l in ck.tuples(n, 4):
        x, y, z, w = e[i], e[j], e[k], e[l]
        # P1: {z,[x,y]_C,w} = {y*z,x,w} - {x*z,y,w}
        res = A.brace_at(z, A.subb_at(x, y), w)
        res = vsub(res, A.brace_at(A.star_at(y, z), x, w))
        res = vadd(res, A.brace_at(A.star_at(x, z), y, w))
        if not is_zero_vec(res):
            ck.record("P1", (i, j, k, l), res)
        # P2: {x,y,[z,w]_C} = z*{x,y,w} - w*{x,y,z}
        res = A.brace_at(x, y, A.subb_at(z, w))
        res = vsub(res, A.star_at(z, A.brace_at(x, y, w)))
        res = vadd(res, A.star_at(w, A.brace_at(x, y, z)))
        if not is_zero_vec(res):
            ck.record("P2", (i, j, k, l), res)
        # P3: <x,y,z>_C*w = {x,y,z*w}_D - z*{x,y,w}_D
        res = A.star_at(A.subt_at(x, y, z), w)
        res = vsub(res, A.brace_D_at(x, y, A.star_at(z, w)))
        res = vadd(res, A.star_at(z, A.brace_D_at(x, y, w)))
        if not is_zero_vec(res):
            ck.record("P3", (i, j, k, l), res)
    for i, j, k, l, m in ck.tuples(n, 5):
        x, y, z, w, t = e[i], e[j], e[k], e[l], e[m]
        # P4: {x,y,<z,w,t>_C} =
        #     {{x,y,z},w,t} - {{x,y,w},z,t} + {z,w,{x,y,t}}_D
        res = A.brace_at(x, y, A.subt_at(z, w, t))
        first = (A.brace_at(A.brace_at(x, w, z), w, t) if as_printed
                 else A.brace_at(A.brace_at(x, y, z), w, t))
        res = vsub(res, first)
        res = vadd(res, A.brace_at(A.brace_at(x, y, w), z, t))
        res = vsub(res, A.brace_D_at(z, w, A.brace_at(x, y, t)))
        if not is_zero_vec(res):
            ck.record("P4", (i, j, k, l, m), res)
        # P5: {x,y,{z,w,t}}_D =
        #     {{x,y,z}_D,w,t} + {z,<x,y,w>_C,t} + {z,w,<x,y,t>_C}
        if as_printed:
            res = A.brace_at(x, y, A.brace_D_at(z, w, t))
        else:
            res = A.brace_D_at(x, y, A.brace_at(z, w, t))
        res = vsub(res, A.brace_at(A.brace_D_at(x, y, z), w, t))
        res = vsub(res, A.brace_at(z, A.subt_at(x, y, w), t))
        res = vsub(res, A.brace_at(z, w, A.subt_at(x, y, t)))
        if not is_zero_vec(res):
            ck.record("P5", (i, j, k, l, m), res)

    def central(eq, args, v):
        if is_zero_vec(v):
            return
        for s in rng:
            res = A.dot_at(v, e[s])
            if not is_zero_vec(res):
                ck.record(eq + "-dot", args + (s,), res)
            for t in rng:
                res = A.angle_at(v, e[s], e[t])
                if not is_zero_vec(res):
                    ck.record(eq + "-angle12", args + (s, t), res)
                res = A.angle_at(e[s], e[t], v)
                if not is_zero_vec(res):
                    ck.record(eq + "-angle3", args + (s, t), res)

    for i, j in ck.tuples(n, 2):
        # P6: star images are central in (dot, angle); by default the same
        # holds for brace images (needed for R(x,y) to be an action)
        central("P6-star", (i, j), A.star[i][j])
        # P7: star kills dot-products; brace kills them in slot one
        dp = A.dot[i][j]
        if not is_zero_vec(dp):
            for s in rng:
                res = A.star_at(e[s], dp)
                if not is_zero_vec(res):
                    ck.record("P7-star", (s, i, j), res)
                for t in rng:
                    res = A.brace_at(dp, e[s], e[t])
                    if not is_zero_vec(res):
                        ck.record("P7-brace", (i, j, s, t), res)
    if not as_printed:
        for i, j, k in ck.tuples(n, 3):
            central("P6-brace", (i, j, k), A.brace[i][j][k])
    for i, j, k in ck.tuples(n, 3):
        # P8: star and brace (slot one) kill angle-products
        ap = A.angle[i][j][k]
        if is_zero_vec(ap):
            continue
        for s in rng:
            res = A.star_at(e[s], ap)
            if not is_zero_vec(res):
                ck.record("P8-star", (s, i, j, k), res)
            for t in rng:
                res = A.brace_at(ap, e[s], e[t])
                if not is_zero_vec(res):
                    ck.record("P8-brace", (i, j, k, s, t), res)
    rep = ck.report()
    if rep.passed and not as_printed:
        A.verified = True
    return rep


def subadjacent(A):
    """The Lie-Yamaguti algebra ([,]_C, <,,>_C) on the same space."""
    A.ensure_verified()
    if A._sub is None:
        S = LYAlgebra(A.dim, A.sub_binary, A.sub_ternary,
                      basis=A.basis, name="%s-sub" % A.name)
        S.ensure_verified()
        A._sub = S
    return A._sub


def induced_action(A):
    """The action (L, R) of the sub-adjacent algebra on (A, dot, angle).

    L(x)z = x*z and R(x,y)z = {z,x,y}; the derived D of the pair equals the
    derived brace on all basis triples (checked).
    """
    A.ensure_verified()
    S = subadjacent(A)
    base = A.base_ly()
    base.ensure_verified()
    n = A.dim
    rho = [tuple(tuple(A.star[i][s][t] for s in range(n)) for t in range(n))
           for i in range(n)]
    mu = [[tuple(tuple(A.brace[s][i][j][t] for s in range(n)) for t in range(n))
           for j in range(n)] for i in range(n)]
    r = RepAction(S, base, rho, mu)
    for i in range(n):
        for j in range(n):
            for s in range(n):
                if mat_col(r.derived_D[i][j], s) != A.brace_D[i][j][s]:
                    raise AxiomsFailed(
                        "derived D of (L, R) differs from the derived brace at "
                        "(%d,%d,%d)" % (i, j, s))
    rep = check_action(r)
    if not rep.passed:
        raise AxiomsFailed("(L, R) is not an action", rep)
    return r


def identity_is_rrb(A):
    """Package Id over the induced action and check the weight-1 equations."""
    from .rrb import RRBOperator, check_rrb
    r = induced_action(A)
    op = RRBOperator(r, mat_id(A.dim))
    return check_rrb(op)


def induced_post_from_rrb(op):
    """The post-algebra on the carrier of a verified weight-1 operator.

    dot = [,]_h, x*y = rho(Tx)y, {x,y,z} = mu(Ty,Tz)x, angle = <,,>_h.
    """
    op.ensure_verified()
    r = op.action
    h = r.carrier
    m = h.dim
    star = [[mat_col(r.rho_at(op._cols[i]), j) for j in range(m)] for i in range(m)]
    brace = [[[mat_col(r.mu_at(op._cols[j], op._cols[k]), i) for k in range(m)]
              for j in range(m)] for i in range(m)]
    A = PostLYAlgebra(m, h.binary, star, h.ternary, brace,
                      basis=h.basis, name="%s-post" % h.name)
    rep = check_post_axioms(A)
    if not rep.passed:
        raise Unverified("induced post-algebra fails its axioms", rep)
    return A


def check_post_homomorphism(A, B, psi, all_violations=False):
    """psi preserves all four operations; implies a sub-adjacent homomorphism."""
    psi = mat(psi)
    if len(psi) != B.dim or any(len(r) != A.dim for r in psi):
        raise DimMismatch("map must be %dx%d" % (B.dim, A.dim))
    ck = Checker("post-homomorphism(%s->%s)" % (A.name, B.name), all_violations)
    cols = [mat_col(psi, i) for i in range(A.dim)]
    for i, j in ck.tuples(A.dim, 2):
        pairs = [("hom-dot", A.dot[i][j], B.dot_at(cols[i], cols[j])),
                 ("hom-star", A.star[i][j], B.star_at(cols[i], cols[j]))]
        for eq, src, img in pairs:
            res = vsub(mat_vec(psi, src), img)
            if not is_zero_vec(res):
                ck.record(eq, (i, j), res)
        for k in range(A.dim):
            pairs = [("hom-angle", A.angle[i][j][k],
                      B.angle_at(cols[i], cols[j], cols[k])),
                     ("hom-brace", A.brace[i][j][k],
                      B.brace_at(cols[i], cols[j], cols[k]))]
            for eq, src, img in pairs:
                res = vsub(mat_vec(psi, src), img)
                if not is_zero_vec(res):
                    ck.record(eq, (i, j, k), res)
    rep = ck.report()
    if rep.passed and A.verified and B.verified:
        sub = check_homomorphism(subadjacent(A), subadjacent(B), psi)
        if not sub.passed:
            for v in sub.violations:
                ck.record("subadjacent-" + v.eq, v.args, v.residual)
            rep = ck.report()
    return rep
