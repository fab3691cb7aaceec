"""Relative Rota-Baxter operators of weight 1 and their characterizations.

An operator T: h -> g over an action (rho, mu) of g on h satisfies

    RRB1: [Tu,Tv]_g  = T( rho(Tu)v - rho(Tv)u + [u,v]_h )
    RRB2: <Tu,Tv,Tw>_g = T( D(Tu,Tv)w + mu(Tv,Tw)u - mu(Tu,Tw)v + <u,v,w>_h )

Equivalently the graph {Tu + u} is a subalgebra of the semidirect algebra, or
the block lift [[Id, T], [0, 0]] is a Nijenhuis operator there; both
characterizations are implemented and exercised against each other.
"""

import itertools
from dataclasses import dataclass

from .core import LYAlgebra, check_homomorphism, derived_algebra
from .errors import DimMismatch, PreconditionFailed, Unverified
from .linalg import (Q1, Tensor, hom_table, invert, is_zero_mat, is_zero_vec, mat, mat_id,
                     mat_mul, mat_sub, matrix_values, pull, push, sparse_map, transpose,
                     vector_values)
from .reports import Checker
from .reps import adjoint_rep


class RRBOperator:
    """A linear map T from the action's carrier into its acting algebra."""

    def __init__(self, action, T):
        action.ensure_action()
        self.action = action
        n, m = action.acting.dim, action.carrier.dim
        self.T = mat(T)
        if len(self.T) != n or any(len(r) != m for r in self.T):
            raise DimMismatch("T must be %dx%d (carrier -> acting)" % (n, m))
        self.verified = False

    def ensure_verified(self):
        if not self.verified:
            rep = check_rrb(self)
            if not rep.passed:
                raise Unverified("operator fails the weight-1 equations", rep)
        return self

    def __repr__(self):
        return "RRBOperator(%s)" % (self.action,)


@dataclass
class HomPair:
    """A pair of maps (psi_g on the acting algebra, psi_h on the carrier)."""
    psi_g: tuple
    psi_h: tuple

    def __post_init__(self):
        self.psi_g = mat(self.psi_g)
        self.psi_h = mat(self.psi_h)


# ---------------------------------------------------------------------------
# the t-coefficients of the weight-1 equations
#
# For T_t = sum_i t^i T_i the t^s coefficients of RRB1 and RRB2 are
#
#   B_s(u,v)   = sum_{i+j=s} [T_i u, T_j v]      - sum_i T_i(I_{s-i}(u,v))
#   C_s(u,v,w) = sum_{i+j+k=s} <T_i u, T_j v, T_k w> - sum_i T_i(J_{s-i}(u,v,w))
#
# with the inner sums grouped by degree:
#
#   I_p(u,v)   = rho(T_p u)v - rho(T_p v)u                  (+ [u,v]_h at p = 0)
#   J_p(u,v,w) = sum_{j+k=p} D(T_j u, T_k v)w + mu(T_j v, T_k w)u - mu(T_j u, T_k w)v
#                                                           (+ <u,v,w>_h at p = 0)
#
# s = 0 is the operator's own residual and s = 1 the 1-cocycle condition.
# Every term is one vector-valued tensor (rho, mu and D read with the column
# as one more slot) with some slots pulled back along a T_j and its slots
# moved to tuple positions, optionally pushed forward by a T_i (``linalg.pull``
# and ``linalg.push``); the tables are expanded over the supports and the
# nonzero entries of the T_i only.

def _splits(p, top):
    """(j, p - j) with both indices in range(top + 1)."""
    return [(j, p - j) for j in range(max(0, p - top), min(p, top) + 1)]


def _inner_sums(r, rows, degree):
    """([I_0, .., I_degree], [J_0, .., J_degree]) for T_t = sum_i t^i T_i over
    the action ``r``, each T_i given by the rows of its nonzero entries
    (``linalg.sparse_map``), as sparse tables over the carrier's basis tuples.
    I_0 and J_0 for T alone are the brackets of the descent algebra.
    """
    h = r.carrier
    rho, mu, D = (vector_values(t) for t in (r.rho, r.mu, r.derived_D))
    top = len(rows) - 1
    inner2, inner3 = [], []
    for p in range(degree + 1):
        I, J = {}, {}
        if p == 0:
            pull(I, Q1, h.binary.support, (None, None), (0, 1))
            pull(J, Q1, h.ternary.support, (None, None, None), (0, 1, 2))
        if p <= top:
            pull(I, Q1, rho, (rows[p], None), (0, 1))
            pull(I, -Q1, rho, (rows[p], None), (1, 0))
        for j, k in _splits(p, top):
            pull(J, Q1, D, (rows[j], rows[k], None), (0, 1, 2))
            pull(J, Q1, mu, (rows[j], rows[k], None), (1, 2, 0))
            pull(J, -Q1, mu, (rows[j], rows[k], None), (0, 2, 1))
        inner2.append(I)
        inner3.append(J)
    return inner2, inner3


def coefficients(r, Ts, degrees):
    """{s: (binary, ternary)} for each s in ``degrees``: the t^s coefficients
    of RRB1 and RRB2 for T_t = sum_i t^i Ts[i] over the action ``r``, as
    sparse tables {(a, b): {x: q}} and {(a, b, c): {x: q}} over the carrier's
    basis tuples, left side minus right side.  A tuple whose coefficient
    vanishes is absent.  No basis tuple is visited: each table is expanded
    over the supports of the brackets, rho, mu and D and the nonzero entries
    of the Ts.
    """
    g, h = r.acting, r.carrier
    n, m = g.dim, h.dim
    for T in Ts:
        if len(T) != n or any(len(row) != m for row in T):
            raise DimMismatch("each T_i must be %dx%d (carrier -> acting)" % (n, m))
    maps = [sparse_map(T) for T in Ts]
    rows, cols = [r for r, _ in maps], [c for _, c in maps]
    c, d = g.binary.support, g.ternary.support
    top = len(Ts) - 1
    inner2, inner3 = _inner_sums(r, rows, max(degrees, default=-1))
    out = {}
    for s in degrees:
        B, C = {}, {}
        for i, j in _splits(s, top):
            pull(B, Q1, c, (rows[i], rows[j]), (0, 1))
        for i in range(min(s, top) + 1):
            for j, k in _splits(s - i, top):
                pull(C, Q1, d, (rows[i], rows[j], rows[k]), (0, 1, 2))
            push(B, -Q1, cols[i], inner2[s - i])
            push(C, -Q1, cols[i], inner3[s - i])
        out[s] = (B, C)
    return out


def check_rrb(op, all_violations=False):
    """Verify the two weight-1 equations on all basis tuples of the carrier.

    The residuals are the t^0 coefficients of ``coefficients`` for T alone,
    tabulated over the supports; a tuple absent from a table has residual
    zero, and the witnesses come in lexicographic order, pairs first.
    """
    r = op.action
    ck = Checker("rrb(%s)" % (r,), all_violations)
    binary, ternary = coefficients(r, [op.T], (0,))[0]
    shape = (r.acting.dim,)
    ck.table(shape, ("RRB1", binary))
    ck.table(shape, ("RRB2", ternary))
    rep = ck.report()
    if rep.passed:
        op.verified = True
    return rep


def graph_subalgebra_check(op, all_violations=False):
    """Closure of the graph {Tu + u} inside the semidirect algebra.

    The generators Te_a + e_a are independent, so the graph has dimension m,
    and a bracket w = x + u of generators lies in it exactly when x = Tu.  The
    brackets are the semidirect brackets pulled back along u -> Tu + u, and
    each is recorded where x - Tu does not vanish.
    """
    S = op.action.semidirect()
    n, m = op.action.acting.dim, op.action.carrier.dim
    lift, _ = sparse_map(op.T + mat_id(m))                        # u -> Tu + u
    minus_T = tuple(tuple(-q for q in row) for row in op.T)
    _, defect = sparse_map(tuple(e + row for e, row in zip(mat_id(n), minus_T)))  # x - Tu
    ck = Checker("graph-subalgebra(%s)" % (op.action,), all_violations)
    for name, t in (("graph-binary", S.binary), ("graph-ternary", S.ternary)):
        w, off = {}, {}
        pull(w, Q1, t.support, (lift,) * t.arity)
        push(off, Q1, defect, w)
        ck.table((n + m,), (name, {key: w[key] for key in off}))
    return ck.report({"graph_dim": m})


def check_nijenhuis(A, N, all_violations=False):
    """Both Nijenhuis identities for a linear map N on a verified algebra.

    [Nx,Ny] = N([Nx,y] + [x,Ny] - N[x,y])
    <Nx,Ny,Nz> = N( <Nx,Ny,z> + <Nx,y,Nz> + <x,Ny,Nz>
                    - N<Nx,y,z> - N<x,Ny,z> - N<x,y,Nz> + N^2<x,y,z> )

    Each residual, the sum over j of (-N)^(k-j) applied to the bracket with N
    in j of its k slots, is tabulated over all basis tuples: every pair
    first, then every triple.
    """
    A.ensure_verified()
    N = mat(N)
    n = A.dim
    if len(N) != n or any(len(r) != n for r in N):
        raise DimMismatch("N must be %dx%d" % (n, n))
    rows, cols = sparse_map(N)

    def residual(t):
        values, k = t.support, t.arity
        acc = {}
        for j in range(k + 1):
            nxt = {}
            push(nxt, -Q1, cols, acc)
            for slots in itertools.combinations(range(k), j):
                pull(nxt, Q1, values, [rows if p in slots else None for p in range(k)])
            acc = nxt
        return acc

    ck = Checker("nijenhuis(%s)" % A.name, all_violations)
    ck.table((n,), ("nijenhuis-binary", residual(A.binary)))
    ck.table((n,), ("nijenhuis-ternary", residual(A.ternary)))
    return ck.report()


def lift_operator(op):
    """The block map [[Id, T], [0, 0]] on acting (+) carrier; idempotent."""
    n, m = op.action.acting.dim, op.action.carrier.dim
    rows = [tuple(1 if j == i else 0 for j in range(n)) + tuple(op.T[i])
            for i in range(n)]
    rows += [(0,) * (n + m)] * m
    return mat(rows)


def descent_algebra(op):
    """The induced algebra on the carrier, with T a homomorphism to g.

    [u,v]_T   = rho(Tu)v - rho(Tv)u + [u,v]_h
    <u,v,w>_T = D(Tu,Tv)w + mu(Tv,Tw)u - mu(Tu,Tw)v + <u,v,w>_h

    Both are the degree-0 inner sums of the weight-1 equations
    (``_inner_sums``), tabulated over the supports and T's nonzero entries.
    """
    op.ensure_verified()
    r = op.action
    h = r.carrier
    m = h.dim
    (binary,), (ternary,) = _inner_sums(r, [sparse_map(op.T)[0]], 0)
    D = LYAlgebra(m, Tensor.from_support(binary, m, 2, (m,)),
                  Tensor.from_support(ternary, m, 3, (m,)),
                  basis=h.basis, name="%s-descent" % h.name)
    D.ensure_verified()
    hom = check_homomorphism(D, r.acting, op.T)
    if not hom.passed:
        raise Unverified("T is not a homomorphism from the descent algebra", hom)
    return D


def projection_operator(A, h_sub, t_sub):
    """The projection of A onto the subspace h along t, as a weight-1 operator
    over the adjoint action.

    Hypotheses (each re-derived; names appear in PreconditionFailed):
    adjoint-is-action, h-abelian-subalgebra, derived-meets-h-trivially,
    t-h-complementary.
    """
    A.ensure_verified()
    n = A.dim
    if h_sub.ambient_dim != n or t_sub.ambient_dim != n:
        raise PreconditionFailed("t-h-complementary", "subspaces live in ambient %d" % n)
    r = adjoint_rep(A)
    from .reps import check_action
    if not check_action(r).passed:
        raise PreconditionFailed("adjoint-is-action",
                                 "the adjoint representation is not an action")
    hb = h_sub.basis
    for u in hb:
        for v in hb:
            if not is_zero_vec(A.bracket2(u, v)):
                raise PreconditionFailed("h-abelian-subalgebra",
                                         "binary bracket does not vanish on h")
            for w in hb:
                if not is_zero_vec(A.bracket3(u, v, w)):
                    raise PreconditionFailed("h-abelian-subalgebra",
                                             "ternary bracket does not vanish on h")
    if derived_algebra(A).intersect(h_sub).dim != 0:
        raise PreconditionFailed("derived-meets-h-trivially",
                                 "derived algebra meets h nontrivially")
    if t_sub.dim + h_sub.dim != n or t_sub.sum(h_sub).dim != n:
        raise PreconditionFailed("t-h-complementary",
                                 "t and h do not decompose the algebra")
    # P = B diag(0,..,0,1,..,1) B^{-1} with columns of B listing t then h
    cols = list(t_sub.basis) + list(h_sub.basis)
    B = transpose(tuple(cols))
    Binv = invert(B)
    sel = tuple(tuple((1 if (i == j and i >= t_sub.dim) else 0) for j in range(n))
                for i in range(n))
    P = mat_mul(mat_mul(B, mat(sel)), Binv)
    op = RRBOperator(r, P)
    op.ensure_verified()
    return op


def check_rrb_homomorphism(from_op, to_op, pair, all_violations=False):
    """Verify a pair (psi_g, psi_h) as a morphism from one operator to another.

    Requires both psi maps to be homomorphisms of their algebras,
    psi_g T' = T psi_h, and the rho-, mu- (and derived D-) equivariance
    psi_h rho(x) - rho'(psi_g x) psi_h and likewise for mu and D, each
    tabulated over the basis tuples of g (``linalg.hom_table``, the matrix
    column read as one more slot): rho at (i,), then mu and D at (i, j).
    """
    rf, rt = from_op.action, to_op.action
    g, h = rf.acting, rf.carrier
    if (rt.acting.dim, rt.carrier.dim) != (g.dim, h.dim):
        raise DimMismatch("operators live over different action shapes")
    pg, ph = pair.psi_g, pair.psi_h
    ck = Checker("rrb-homomorphism", all_violations)
    for src, dst, psi, name in ((g, rt.acting, pg, "psi_g"), (h, rt.carrier, ph, "psi_h")):
        for v in check_homomorphism(src, dst, psi, all_violations).violations:
            ck.record(name + "-not-homomorphism:" + v.eq, v.args, v.residual)
    res = mat_sub(mat_mul(pg, from_op.T), mat_mul(to_op.T, ph))
    if not is_zero_mat(res):
        ck.record("intertwines-T", (), res)
    (g_rows, _), (h_rows, h_cols) = sparse_map(pg), sparse_map(ph)
    ck.table((h.dim, h.dim), *[
        (name, matrix_values(hom_table(src, dst, h_cols, (g_rows,) * src.arity + (h_rows,))))
        for name, src, dst in (("rho-equivariance", rf.rho, rt.rho),
                               ("mu-equivariance", rf.mu, rt.mu),
                               ("D-equivariance", rf.derived_D, rt.derived_D))])
    return ck.report()
