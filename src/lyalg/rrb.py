"""Relative Rota-Baxter operators of weight 1 and their characterizations.

An operator T: h -> g over an action (rho, mu) of g on h satisfies

    RRB1: [Tu,Tv]_g  = T( rho(Tu)v - rho(Tv)u + [u,v]_h )
    RRB2: <Tu,Tv,Tw>_g = T( D(Tu,Tv)w + mu(Tv,Tw)u - mu(Tu,Tw)v + <u,v,w>_h )

Equivalently the graph {Tu + u} is a subalgebra of the semidirect algebra, or
the block lift [[Id, T], [0, 0]] is a Nijenhuis operator there; both
characterizations are implemented and exercised against each other.  The
constructor certifies the action, so a verified operator carries every
hypothesis, and its descent algebra is built verified.
"""

from collections import namedtuple

from .core import LYAlgebra, check_homomorphism, derived_algebra
from .errors import DimMismatch, PreconditionFailed, Unverified
from .linalg import Map, Tensor, graded, graded_push, hom_table, invert, mat, pull, push
from .reports import Checker
from .reps import adjoint_rep, check_action


class RRBOperator:
    """A linear map T from the action's carrier into its acting algebra,
    read by ``linalg.mat`` and kept in that form (``linalg.Map``).

    T and the action are fixed at construction, so the t-expansion of T
    alone (``expansion``) is built once, on first read.
    """

    def __init__(self, action, T):
        action.ensure_action()
        self.action = action
        self.T = mat(T, (action.acting.dim, action.carrier.dim),
                     "T must be %dx%d (carrier -> acting)")
        self.verified = False
        self._expansion = None

    @property
    def expansion(self):
        """The ``Expansion`` of T alone, which ``check_rrb`` and
        ``descent_algebra`` both read."""
        if self._expansion is None:
            self._expansion = Expansion(self.action, [self.T])
        return self._expansion

    def ensure_verified(self):
        if not self.verified:
            rep = check_rrb(self)
            if not rep.passed:
                raise Unverified("operator fails the weight-1 equations", rep)
        return self

    def __repr__(self):
        return "RRBOperator(%s)" % (self.action,)


class HomPair(namedtuple("HomPair", "psi_g psi_h")):
    """A pair of maps (psi_g on the acting algebra, psi_h on the carrier),
    each read by ``linalg.mat`` where it is used, which knows its shape."""
    __slots__ = ()


# ---------------------------------------------------------------------------
# the t-coefficients of the weight-1 equations
#
# For T_t = sum_i t^i T_i the t^s coefficients of RRB1 and RRB2 are
#
#   B_s(u,v)   = [T_t u, T_t v]_s        - sum_i T_i(I_{s-i}(u,v))
#   C_s(u,v,w) = <T_t u, T_t v, T_t w>_s - sum_i T_i(J_{s-i}(u,v,w))
#
# with the inner sums grouped by degree:
#
#   I_p(u,v)   = (rho(T_t u)v - rho(T_t v)u + [u,v]_h)_p
#   J_p(u,v,w) = (D(T_t u, T_t v)w + mu(T_t v, T_t w)u - mu(T_t u, T_t w)v + <u,v,w>_h)_p
#
# where (..)_p is the t^p coefficient.  s = 0 is the operator's own residual
# and s = 1 the 1-cocycle condition.  Every term is one vector-valued tensor
# (rho, mu and D read with the column as one more slot) with each slot read
# through T_t or as it is, so the brackets of h count at degree 0 only, and
# its slots moved to tuple positions (``linalg.graded``); the outer T_t is
# applied to the inner sums graded by degree (``linalg.graded_push``).  The
# tables are expanded over the supports and the nonzero entries of the T_i,
# one degree at a time: a table is built on its first read and then kept, so
# a check that stops at degree s never pays for a higher one.

class Expansion:
    """The t-coefficients of RRB1 and RRB2 for T_t = sum_i t^i Ts[i] over the
    action ``r``, built on first read and cached; each T_i is read by
    ``linalg.mat`` as a dim(acting) x dim(carrier) map.

    ``table(2, s)`` and ``table(3, s)`` are the t^s coefficients of RRB1 and
    RRB2 as sparse tables {(a, b): {x: q}} and {(a, b, c): {x: q}} over the
    carrier's basis tuples, left side minus right side; a tuple whose
    coefficient vanishes is absent.  ``inner(2, p)`` and ``inner(3, p)`` are
    I_p and J_p, appended one degree at a time; I_0 and J_0 for T alone are
    the brackets of the descent algebra.  No basis tuple is visited: each
    table is expanded over the supports of the brackets, rho, mu and D and
    the nonzero entries of the Ts.
    """

    def __init__(self, r, Ts):
        self._action = r
        g, h = r.acting, r.carrier
        T = self._Ts = tuple(mat(T, (g.dim, h.dim), "each T_i must be %dx%d (carrier -> acting)")
                             for T in Ts)
        rho, mu, D = r.rho.support, r.mu.support, r.derived_D.support
        # per arity: the bracket of g, the terms of the inner sum, the inner
        # sums by degree and the tables by degree
        self._equations = {
            2: (g.binary.support, [(1, h.binary.support, (None, None), None),
                                   (1, rho, (T, None), None), (-1, rho, (T, None), (1, 0))],
                [], {}),
            3: (g.ternary.support, [(1, h.ternary.support, (None, None, None), None),
                                    (1, D, (T, T, None), None), (1, mu, (T, T, None), (1, 2, 0)),
                                    (-1, mu, (T, T, None), (0, 2, 1))],
                [], {})}

    def inner(self, arity, p):
        """I_p (arity 2) or J_p (arity 3), every lower degree built first."""
        _, terms, inner, _ = self._equations[arity]
        while len(inner) <= p:
            acc = {}
            for sign, values, polys, positions in terms:
                graded(acc, sign, values, polys, len(inner), positions)
            inner.append(acc)
        return inner[p]

    def table(self, arity, s):
        """The t^s coefficient of RRB1 (arity 2) or RRB2 (arity 3)."""
        bracket, _, inner, tables = self._equations[arity]
        if s not in tables:
            self.inner(arity, s)
            acc = {}
            graded(acc, 1, bracket, (self._Ts,) * arity, s)
            graded_push(acc, -1, self._Ts, inner, s)
            tables[s] = acc
        return tables[s]

    def extended(self, terms):
        """The expansion for Ts[0] + t terms[0] + t^2 terms[1] + ..: the
        degree-0 inner sums and the t^0 tables read Ts[0] alone, so those
        built here are taken over as they are, and higher degrees are built on
        first read."""
        ex = Expansion(self._action, self._Ts[:1] + tuple(terms))
        for arity, (_, _, inner, tables) in self._equations.items():
            _, _, ex_inner, ex_tables = ex._equations[arity]
            ex_inner.extend(inner[:1])
            if 0 in tables:
                ex_tables[0] = tables[0]
        return ex


def check_rrb(op, all_violations=False):
    """Verify the two weight-1 equations on all basis tuples of the carrier.

    The residuals are the t^0 coefficients of the operator's ``expansion``,
    tabulated over the supports; a tuple absent from a table has residual
    zero, and the witnesses come in lexicographic order, pairs first.  RRB2's
    table is not built once RRB1's has settled a capped report.
    """
    r = op.action
    ck = Checker("rrb(%s)" % (r,), all_violations)
    ck.tabulate((r.acting.dim,), ([(name, op.expansion.table(arity, 0))]
                                  for arity, name in ((2, "RRB1"), (3, "RRB2"))))
    rep = ck.report()
    if rep.passed:
        op.verified = True
    return rep


def graph_subalgebra_check(op, all_violations=False):
    """Closure of the graph {Tu + u} inside the semidirect algebra.

    The generators Te_a + e_a are independent, so the graph has dimension m,
    and a bracket w = x + u of generators lies in it exactly when x = Tu.  The
    brackets are the semidirect brackets pulled back along u -> Tu + u, and
    each is recorded where x - Tu does not vanish.  The ternary table is not
    built once the binary one has settled a capped report.
    """
    S = op.action.semidirect()
    n, m = op.action.acting.dim, op.action.carrier.dim
    T = [((r, c), q) for r, row in op.T.rows.items() for c, q in row]
    lift = mat({**dict(T), **{(n + c, c): 1 for c in range(m)}}, (n + m, m))    # u -> Tu + u
    defect = mat({**{(i, i): 1 for i in range(n)}, **{(r, n + c): -q for (r, c), q in T}},
                 (n, n + m))                                                    # x - Tu

    def off_graph(t):
        """The brackets w of ``t`` on the generators, where x - Tu does not vanish."""
        w, off = {}, {}
        pull(w, 1, t.support, (lift,) * t.arity)
        push(off, 1, defect, w)
        return {key: w[key] for key in off}

    ck = Checker("graph-subalgebra(%s)" % (op.action,), all_violations)
    ck.tabulate((n + m,), ([(name, off_graph(t))] for name, t in
                           (("graph-binary", S.binary), ("graph-ternary", S.ternary))))
    return ck.report({"graph_dim": m})


def check_nijenhuis(A, N, all_violations=False):
    """Both Nijenhuis identities for a linear map N on a verified algebra.

    [Nx,Ny] = N([Nx,y] + [x,Ny] - N[x,y])
    <Nx,Ny,Nz> = N( <Nx,Ny,z> + <Nx,y,Nz> + <x,Ny,Nz>
                    - N<Nx,y,z> - N<x,Ny,z> - N<x,y,Nz> + N^2<x,y,z> )

    The residual of a bracket in k slots is the t^k coefficient of
    (Id + tN)^-1 [(Id + tN)x, ..], the sum over j of (-N)^(k-j) applied to the
    bracket with N in j of its slots, summed by Horner's rule so that no
    power of N is formed; it is tabulated over all basis tuples, every pair
    first, then every triple, and the triples are not tabulated once the
    pairs have settled a capped report.
    """
    A.ensure_verified()
    n = A.dim
    N = mat(N, (n, n), "N must be %dx%d")

    def residual(t):
        # -N applied to the sum so far, plus the next degree
        k, acc = t.arity, {}
        for j in range(k + 1):
            acc, previous = {}, acc
            push(acc, -1, N, previous)
            graded(acc, 1, t.support, ((None, N),) * k, j)
        return acc

    ck = Checker("nijenhuis(%s)" % A.name, all_violations)
    ck.tabulate((n,), ([(name, residual(t))] for name, t in
                       (("nijenhuis-binary", A.binary), ("nijenhuis-ternary", A.ternary))))
    return ck.report()


def lift_operator(op):
    """The block map [[Id, T], [0, 0]] on acting (+) carrier, a ``linalg.Map``;
    idempotent."""
    n, m = op.action.acting.dim, op.action.carrier.dim
    return mat({**{(i, i): 1 for i in range(n)},
                **{(r, n + c): q for r, row in op.T.rows.items() for c, q in row}},
               (n + m, n + m))


def descent_algebra(op):
    """The induced algebra on the carrier, with T a homomorphism to g.

    [u,v]_T   = rho(Tu)v - rho(Tv)u + [u,v]_h
    <u,v,w>_T = D(Tu,Tv)w + mu(Tv,Tw)u - mu(Tu,Tw)v + <u,v,w>_h

    Both are the degree-0 inner sums I_0 and J_0 of the weight-1 equations,
    read off the operator's ``expansion``, so its check and this share them.
    T is a homomorphism D -> g with no further scan: its homomorphism tables
    are the t^0 tables of the weight-1 equations negated, which the
    operator's check has found empty.  D is built verified: the descendent
    algebra of a weight-1 operator is a Lie-Yamaguti algebra.
    """
    op.ensure_verified()
    h = op.action.carrier
    m = h.dim
    binary, ternary = op.expansion.inner(2, 0), op.expansion.inner(3, 0)
    D = LYAlgebra(m, Tensor.from_support(binary, m, 2, (m,)),
                  Tensor.from_support(ternary, m, 3, (m,)),
                  basis=h.basis, name="%s-descent" % h.name)
    D.verified = True
    return D


def projection_operator(A, h_sub, t_sub):
    """The projection of A onto the subspace h along t, as a weight-1 operator
    over the adjoint action.

    Hypotheses (each re-derived; names appear in PreconditionFailed):
    adjoint-is-action, h-abelian-subalgebra, derived-meets-h-trivially,
    t-h-complementary.  That list is this library's own, not a proved
    result, so the projection is still checked as a weight-1 operator.
    """
    A.ensure_verified()
    n = A.dim
    if h_sub.ambient_dim != n or t_sub.ambient_dim != n:
        raise PreconditionFailed("t-h-complementary", "subspaces live in ambient %d" % n)
    r = adjoint_rep(A)
    if not check_action(r, center_dim=False).passed:
        raise PreconditionFailed("adjoint-is-action",
                                 "the adjoint representation is not an action")
    # both brackets on the basis of h, each slot read through the basis
    # vectors; the first live tuple is named, a pair before its triples
    on_h = mat({(i, b): q for b, v in enumerate(h_sub.basis) for i, q in enumerate(v)},
               (n, h_sub.dim))
    live = []
    for t in (A.binary, A.ternary):
        values = {}
        pull(values, 1, t.support, (on_h,) * t.arity)
        live.extend(key + (-1,) if len(key) == 2 else key for key in values)
    if live:
        raise PreconditionFailed("h-abelian-subalgebra", "%s bracket does not vanish on h"
                                 % ("binary" if min(live)[2] < 0 else "ternary"))
    if derived_algebra(A).intersect(h_sub).dim != 0:
        raise PreconditionFailed("derived-meets-h-trivially",
                                 "derived algebra meets h nontrivially")
    if t_sub.dim + h_sub.dim != n or t_sub.sum(h_sub).dim != n:
        raise PreconditionFailed("t-h-complementary",
                                 "t and h do not decompose the algebra")
    # P = B diag(0,..,0,1,..,1) B^{-1} with columns of B listing t then h: the
    # columns of B^{-1} pushed through the h columns of B alone
    B = {(i, k): q for k, v in enumerate(list(t_sub.basis) + list(h_sub.basis))
         for i, q in enumerate(v)}
    P = {}
    push(P, 1, mat({(i, k): q for (i, k), q in B.items() if k >= t_sub.dim}, (n, n)),
         invert(mat(B, (n, n))).cols)
    op = RRBOperator(r, Map.from_columns(P, (n, n)))
    op.ensure_verified()
    return op


def check_rrb_homomorphism(from_op, to_op, pair, all_violations=False):
    """Verify a pair (psi_g, psi_h) as a morphism from one operator to another.

    Requires both psi maps (``linalg.mat``, "map must be kxk") to be
    homomorphisms of their algebras,
    psi_g T' = T psi_h, and the rho-, mu- (and derived D-) equivariance
    psi_h rho(x) - rho'(psi_g x) psi_h and likewise for mu and D, each
    tabulated over the basis tuples of g (``linalg.hom_table``, the matrix
    column read as one more slot): rho at (i,), then mu and D at (i, j).
    """
    rf, rt = from_op.action, to_op.action
    g, h = rf.acting, rf.carrier
    if (rt.acting.dim, rt.carrier.dim) != (g.dim, h.dim):
        raise DimMismatch("operators live over different action shapes")
    pg, ph = (mat(psi, (k, k), "map must be %dx%d")
              for psi, k in ((pair.psi_g, g.dim), (pair.psi_h, h.dim)))
    ck = Checker("rrb-homomorphism", all_violations)
    for src, dst, psi, name in ((g, rt.acting, pg, "psi_g"), (h, rt.carrier, ph, "psi_h")):
        ck.include(name + "-not-homomorphism:", check_homomorphism(src, dst, psi, all_violations))
    res, = intertwining((pg,), (from_op.T,), (to_op.T,), (ph,))
    ck.tabulate((g.dim, h.dim), [[("intertwines-T", res)]])
    ck.tabulate((h.dim, h.dim), [[
        (name, hom_table(src, dst, ph, (pg,) * src.arity + (ph,)))
        for name, src, dst in (("rho-equivariance", rf.rho, rt.rho),
                               ("mu-equivariance", rf.mu, rt.mu),
                               ("D-equivariance", rf.derived_D, rt.derived_D))]])
    return ck.report()


def intertwining(P, A, B, Q):
    """The coefficients of P A - B Q as the tables {(c,): {r: q}} of their
    columns, a matrix-shaped table for ``Checker.tabulate``, for polynomials
    in t given by their maps (``linalg.Map``, None for the identity), lowest
    degree first: P and B are applied to the column views of A and Q."""
    terms = [(sign, outer, [None if M is None else M.cols for M in inner])
             for sign, outer, inner in ((1, P, A), (-1, B, Q))]
    out = []
    for s in range(len(P) + len(A) - 1):
        acc = {}
        for sign, poly, tables in terms:
            graded_push(acc, sign, poly, tables, s)
        out.append(acc)
    return out
