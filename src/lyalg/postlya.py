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
The derived operations and every axiom are tabulated as signed sums of
compositions of the four operations' supports (``linalg.signed_sum``), so
no basis tuple is visited.  The default axiom set is this library's own, so
what rests on it (an induced post-algebra, the sub-adjacent algebra and its
action) is still checked.
"""

from .core import LYAlgebra, check_homomorphism, check_ly_axioms, set_operations
from .errors import AxiomsFailed, Unverified
from .linalg import Tensor, hom_table, mat, pull, signed_sum
from .reports import Checker, summed
from .reps import RepAction, check_action, regular_pair
from .rrb import RRBOperator, check_rrb


class PostLYAlgebra:
    """Four operations plus derived caches; see the module docstring."""

    KIND = "post-algebra"
    # (key, arity, name in antisymmetry errors or None); see ``core.set_operations``
    OPERATIONS = (("dot", 2, "dot"), ("star", 2, None), ("angle", 3, "angle"),
                  ("brace", 3, None))

    def __init__(self, dim, dot, star, angle, brace, basis=None, name=None):
        set_operations(self, dim, (dot, star, angle, brace), basis, name)
        dot, star, angle, brace = (t.support for t in (self.dot, self.star, self.angle,
                                                       self.brace))
        # (a,b,c) = (a*b)*c - a*(b*c), and each derived operation at (x, y[, z])
        assoc = signed_sum([(1, star, 0, star), (-1, star, 1, star)])
        bD = signed_sum([(1, brace, (2, 1, 0)), (-1, brace, (2, 0, 1)), (1, assoc, (1, 0, 2)),
                         (-1, assoc, None), (-1, star, 0, dot)])
        cb = signed_sum([(1, star, None), (-1, star, (1, 0)), (1, dot, None)])
        ct = signed_sum([(1, bD, None), (1, brace, None), (-1, brace, (1, 0, 2)),
                         (1, angle, None)])
        self.brace_D = Tensor.from_support(bD, dim, 3, (dim,))
        self.sub_binary = Tensor.from_support(cb, dim, 2, (dim,))
        self.sub_ternary = Tensor.from_support(ct, dim, 3, (dim,))
        self._ly = None
        self._sub = None
        self.verified = False

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
    t2, t3 = (Tensor.from_support({}, dim, arity, (dim,)) for arity in (2, 3))
    return PostLYAlgebra(dim, t2, t2, t3, t3, name=name or "zero-post%d" % dim)


def check_post_axioms(A, all_violations=False, as_printed=False):
    """Verify the compatibility equations plus the base LY axioms.

    With ``as_printed`` the three equations whose default form is the one
    transported from the representation/action axioms are replaced by their
    close variants (P4's first summand uses {{x,w,z},w,t}, P5 carries the
    derived brace on the inner slots, and P6 constrains only star images).
    As in ``core.check_ly_axioms``, each equation is one table of its
    residuals, a signed sum of compositions of the operations' supports.
    """
    ck = Checker("post-axioms(%s)" % A.name, all_violations)
    ck.include("base-", check_ly_axioms(A.base_ly(), all_violations))
    dot, star, angle, brace, bD, cb, ct = (
        t.support for t in (A.dot, A.star, A.angle, A.brace, A.brace_D,
                            A.sub_binary, A.sub_ternary))
    # P4's first summand -{{x,y,z},w,t}; the printed {{x,w,z},w,t} repeats w
    # and never reads y: the w-diagonal of brace o brace, at every y
    p4_first = (-1, brace, 0, brace)
    if as_printed:
        bb = signed_sum([(1, brace, 0, brace)])
        p4_first = (-1, {(x, y, z, w, t): v for (x, w, z, u, t), v in bb.items() if u == w
                          for y in range(A.dim)}, None)

    def central(eq, image, k, *order):
        """``image``, a table over positions 0..k-1, central in (dot, angle)."""
        return [(eq + "-dot", [(1, dot, 0, image)]) + order,
                (eq + "-angle12", [(1, angle, 0, image)]) + order,
                (eq + "-angle3", [(1, angle, 2, image, (k, k + 1) + tuple(range(k)))]) + order]

    # basis vectors x, y, z, w, t sit at tuple positions 0..4
    ck.tabulate((A.dim,), summed([
        # P1: {z,[x,y]_C,w} = {y*z,x,w} - {x*z,y,w}
        ("P1", [(1, brace, 1, cb, (2, 0, 1, 3)), (-1, brace, 0, star, (1, 2, 0, 3)),
                (1, brace, 0, star, (0, 2, 1, 3))]),
        # P2: {x,y,[z,w]_C} = z*{x,y,w} - w*{x,y,z}
        ("P2", [(1, brace, 2, cb), (-1, star, 1, brace, (2, 0, 1, 3)),
                (1, star, 1, brace, (3, 0, 1, 2))]),
        # P3: <x,y,z>_C*w = {x,y,z*w}_D - z*{x,y,w}_D
        ("P3", [(1, star, 0, ct), (-1, bD, 2, star), (1, star, 1, bD, (2, 0, 1, 3))])], [
        # P4: {x,y,<z,w,t>_C} = {{x,y,z},w,t} - {{x,y,w},z,t} + {z,w,{x,y,t}}_D
        ("P4", [(1, brace, 2, ct), p4_first, (1, brace, 0, brace, (0, 1, 3, 2, 4)),
                (-1, bD, 2, brace, (2, 3, 0, 1, 4))]),
        # P5: {x,y,{z,w,t}}_D = {{x,y,z}_D,w,t} + {z,<x,y,w>_C,t} + {z,w,<x,y,t>_C}
        ("P5", [(1, brace, 2, bD) if as_printed else (1, bD, 2, brace), (-1, brace, 0, bD),
                (-1, brace, 1, ct, (2, 0, 1, 3, 4)), (-1, brace, 2, ct, (2, 3, 0, 1, 4))])],
        # per pair (i, j), P6: star images are central in (dot, angle); P7:
        # star kills dot-products, brace kills them in slot one.  P6 comes
        # first, at (i, j, s[, t]), then P7 at (s, i, j) and (i, j, s, t).
        central("P6-star", star, 2, lambda a: a[:2] + (0,) + a[2:]) + [
            ("P7-star", [(1, star, 1, dot)], lambda a: a[1:] + (1, a[0])),
            ("P7-brace", [(1, brace, 0, dot)], lambda a: a[:2] + (1,) + a[2:])],
        # by default brace images are central too (needed for R(x,y) to be an action)
        [] if as_printed else central("P6-brace", brace, 3),
        # per triple (i, j, k), P8: star and brace (slot one) kill
        # angle-products, at (s, i, j, k) and (i, j, k, s, t)
        [("P8-star", [(1, star, 1, angle)], lambda a: a[1:] + a[:1]),
         ("P8-brace", [(1, brace, 0, angle)])]))
    rep = ck.report()
    if rep.passed and not as_printed:
        A.verified = True
    return rep


def subadjacent(A):
    """The Lie-Yamaguti algebra ([,]_C, <,,>_C) on the same space, checked
    once: it rests on the default post-axiom set, not on the paper's."""
    A.ensure_verified()
    if A._sub is None:
        S = LYAlgebra(A.dim, A.sub_binary, A.sub_ternary,
                      basis=A.basis, name="%s-sub" % A.name)
        S.ensure_verified()
        A._sub = S
    return A._sub


def induced_action(A):
    """The action (L, R) of the sub-adjacent algebra on (A, dot, angle).

    L(x)z = x*z and R(x,y)z = {z,x,y}; its derived D and the derived brace
    expand to the same seven terms.  It rests on the default post-axiom set,
    so it is checked as an action.
    """
    A.ensure_verified()
    S = subadjacent(A)
    base = A.base_ly()
    base.ensure_verified()
    r = RepAction(S, base, *regular_pair(A.star, A.brace))
    rep = check_action(r, center_dim=False)
    if not rep.passed:
        raise AxiomsFailed("(L, R) is not an action", rep)
    return r


def identity_is_rrb(A):
    """Package Id over the induced action and check the weight-1 equations."""
    r = induced_action(A)
    op = RRBOperator(r, mat({(i, i): 1 for i in range(A.dim)}, (A.dim, A.dim)))
    return check_rrb(op)


def induced_post_from_rrb(op):
    """The post-algebra on the carrier of a verified weight-1 operator.

    dot = [,]_h, x*y = rho(Tx)y, {x,y,z} = mu(Ty,Tz)x, angle = <,,>_h.
    Checked: the default post-axiom set is this library's own, not the paper's.
    """
    op.ensure_verified()
    r = op.action
    h = r.carrier
    m = h.dim
    # x*y at (x, y) and {x,y,z} at (x, y, z), T pulled into the slots of rho and mu
    T, star, brace = op.T, {}, {}
    pull(star, 1, r.rho.support, (T, None))
    pull(brace, 1, r.mu.support, (T, T, None), (1, 2, 0))
    A = PostLYAlgebra(m, h.binary, Tensor.from_support(star, m, 2, (m,)), h.ternary,
                      Tensor.from_support(brace, m, 3, (m,)),
                      basis=h.basis, name="%s-post" % h.name)
    rep = check_post_axioms(A)
    if not rep.passed:
        raise Unverified("induced post-algebra fails its axioms", rep)
    return A


def check_post_homomorphism(A, B, psi, all_violations=False):
    """psi preserves all four operations; implies a sub-adjacent homomorphism.

    The residuals are tabulated as in ``core.check_homomorphism``; each pair
    comes directly before its triples.
    """
    psi = mat(psi, (B.dim, A.dim), "map must be %dx%d")
    ck = Checker("post-homomorphism(%s->%s)" % (A.name, B.name), all_violations)
    ck.tabulate((B.dim,), [[("hom-" + op, hom_table(getattr(A, op), getattr(B, op), psi,
                                                   (psi,) * getattr(A, op).arity))
                            for op in ("dot", "star", "angle", "brace")]])
    rep = ck.report()
    if rep.passed and A.verified and B.verified:
        ck.include("subadjacent-", check_homomorphism(subadjacent(A), subadjacent(B), psi))
        rep = ck.report()
    return rep
