"""Relative Rota-Baxter operators of weight 1 and their characterizations.

An operator T: h -> g over an action (rho, mu) of g on h satisfies

    RRB1: [Tu,Tv]_g  = T( rho(Tu)v - rho(Tv)u + [u,v]_h )
    RRB2: <Tu,Tv,Tw>_g = T( D(Tu,Tv)w + mu(Tv,Tw)u - mu(Tu,Tw)v + <u,v,w>_h )

Equivalently the graph {Tu + u} is a subalgebra of the semidirect algebra, or
the block lift [[Id, T], [0, 0]] is a Nijenhuis operator there; both
characterizations are implemented and exercised against each other.
"""

from dataclasses import dataclass

from .core import LYAlgebra, check_homomorphism, derived_algebra
from .errors import DimMismatch, PreconditionFailed, Unverified
from .linalg import (Subspace, invert, is_zero_mat, is_zero_vec, mat, mat_col,
                     mat_mul, mat_sub, mat_vec, transpose, vadd, vsub)
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
        self._cols = tuple(mat_col(self.T, a) for a in range(m))

    def apply(self, u):
        return mat_vec(self.T, u)

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


def _rrb_binary_residual(op, u, v):
    r = op.action
    Tu, Tv = op.apply(u), op.apply(v)
    lhs = r.acting.bracket2(Tu, Tv)
    inner = vadd(vsub(mat_vec(r.rho_at(Tu), v), mat_vec(r.rho_at(Tv), u)),
                 r.carrier.bracket2(u, v))
    return vsub(lhs, op.apply(inner))


def _rrb_ternary_residual(op, u, v, w):
    r = op.action
    Tu, Tv, Tw = op.apply(u), op.apply(v), op.apply(w)
    lhs = r.acting.bracket3(Tu, Tv, Tw)
    inner = vadd(mat_vec(r.D_at(Tu, Tv), w),
                 vsub(mat_vec(r.mu_at(Tv, Tw), u), mat_vec(r.mu_at(Tu, Tw), v)))
    inner = vadd(inner, r.carrier.bracket3(u, v, w))
    return vsub(lhs, op.apply(inner))


def check_rrb(op, all_violations=False):
    """Verify the two weight-1 equations on all basis tuples of the carrier."""
    m = op.action.carrier.dim
    h = op.action.carrier
    ck = Checker("rrb(%s)" % (op.action,), all_violations)
    for a, b in ck.tuples(m, 2):
        res = _rrb_binary_residual(op, h.e(a), h.e(b))
        if not is_zero_vec(res):
            ck.record("RRB1", (a, b), res)
    for a, b, c in ck.tuples(m, 3):
        res = _rrb_ternary_residual(op, h.e(a), h.e(b), h.e(c))
        if not is_zero_vec(res):
            ck.record("RRB2", (a, b, c), res)
    rep = ck.report()
    if rep.passed:
        op.verified = True
    return rep


def graph_subalgebra_check(op, all_violations=False):
    """Closure of the graph {Tu + u} inside the semidirect algebra."""
    S = op.action.semidirect()
    n, m = op.action.acting.dim, op.action.carrier.dim
    gens = [tuple(op._cols[a]) + op.action.carrier.e(a) for a in range(m)]
    graph = Subspace(n + m, gens)
    ck = Checker("graph-subalgebra(%s)" % (op.action,), all_violations)
    for a, b in ck.tuples(m, 2):
        w = S.bracket2(gens[a], gens[b])
        if not graph.contains(w):
            ck.record("graph-binary", (a, b), w)
    for a, b, c in ck.tuples(m, 3):
        w = S.bracket3(gens[a], gens[b], gens[c])
        if not graph.contains(w):
            ck.record("graph-ternary", (a, b, c), w)
    return ck.report({"graph_dim": graph.dim})


def check_nijenhuis(A, N, all_violations=False):
    """Both Nijenhuis identities for a linear map N on a verified algebra.

    [Nx,Ny] = N([Nx,y] + [x,Ny] - N[x,y])
    <Nx,Ny,Nz> = N( <Nx,Ny,z> + <Nx,y,Nz> + <x,Ny,Nz>
                    - N<Nx,y,z> - N<x,Ny,z> - N<x,y,Nz> + N^2<x,y,z> )
    """
    A.ensure_verified()
    N = mat(N)
    n = A.dim
    if len(N) != n or any(len(r) != n for r in N):
        raise DimMismatch("N must be %dx%d" % (n, n))
    Ne = [mat_col(N, i) for i in range(n)]
    ck = Checker("nijenhuis(%s)" % A.name, all_violations)
    for i, j in ck.tuples(n, 2):
        lhs = A.bracket2(Ne[i], Ne[j])
        inner = vsub(vadd(A.bracket2(Ne[i], A.e(j)), A.bracket2(A.e(i), Ne[j])),
                     mat_vec(N, A.binary[i][j]))
        res = vsub(lhs, mat_vec(N, inner))
        if not is_zero_vec(res):
            ck.record("nijenhuis-binary", (i, j), res)
    for i, j, k in ck.tuples(n, 3):
        ei, ej, ek = A.e(i), A.e(j), A.e(k)
        lhs = A.bracket3(Ne[i], Ne[j], Ne[k])
        inner = vadd(vadd(A.bracket3(Ne[i], Ne[j], ek),
                          A.bracket3(Ne[i], ej, Ne[k])),
                     A.bracket3(ei, Ne[j], Ne[k]))
        once = vadd(vadd(A.bracket3(Ne[i], ej, ek),
                         A.bracket3(ei, Ne[j], ek)),
                    A.bracket3(ei, ej, Ne[k]))
        inner = vsub(inner, mat_vec(N, once))
        inner = vadd(inner, mat_vec(N, mat_vec(N, A.ternary[i][j][k])))
        res = vsub(lhs, mat_vec(N, inner))
        if not is_zero_vec(res):
            ck.record("nijenhuis-ternary", (i, j, k), res)
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
    """
    op.ensure_verified()
    r = op.action
    h = r.carrier
    m = h.dim
    T = op._cols
    rho_T = [r.rho_at(T[a]) for a in range(m)]
    mu_T = [[r.mu_at(T[a], T[b]) for b in range(m)] for a in range(m)]
    binary = [[None] * m for _ in range(m)]
    ternary = [[[None] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(m):
            binary[a][b] = vadd(vsub(mat_col(rho_T[a], b), mat_col(rho_T[b], a)),
                                h.binary[a][b])
            D_T = r.D_at(T[a], T[b])
            for c in range(m):
                t = vadd(mat_col(D_T, c), vsub(mat_col(mu_T[b][c], a), mat_col(mu_T[a][c], b)))
                ternary[a][b][c] = vadd(t, h.ternary[a][b][c])
    D = LYAlgebra(m, binary, ternary, basis=h.basis, name="%s-descent" % h.name)
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
    psi_g T' = T psi_h, and the rho-, mu- (and derived D-) equivariance.
    """
    rf, rt = from_op.action, to_op.action
    g, h = rf.acting, rf.carrier
    if (rt.acting.dim, rt.carrier.dim) != (g.dim, h.dim):
        raise DimMismatch("operators live over different action shapes")
    pg, ph = pair.psi_g, pair.psi_h
    ck = Checker("rrb-homomorphism", all_violations)
    for rep, eq in ((check_homomorphism(g, rt.acting, pg), "psi_g-not-homomorphism"),
                    (check_homomorphism(h, rt.carrier, ph), "psi_h-not-homomorphism")):
        if not rep.passed:
            for v in rep.violations:
                ck.record(eq + ":" + v.eq, v.args, v.residual)
    res = mat_sub(mat_mul(pg, from_op.T), mat_mul(to_op.T, ph))
    if not is_zero_mat(res):
        ck.record("intertwines-T", (), res)
    pg_cols = [mat_col(pg, i) for i in range(g.dim)]
    for i in range(g.dim):
        if ck.done:
            break
        res = mat_sub(mat_mul(ph, rf.rho[i]), mat_mul(rt.rho_at(pg_cols[i]), ph))
        if not is_zero_mat(res):
            ck.record("rho-equivariance", (i,), res)
        for j in range(g.dim):
            res = mat_sub(mat_mul(ph, rf.mu[i][j]),
                          mat_mul(rt.mu_at(pg_cols[i], pg_cols[j]), ph))
            if not is_zero_mat(res):
                ck.record("mu-equivariance", (i, j), res)
            res = mat_sub(mat_mul(ph, rf.derived_D[i][j]),
                          mat_mul(rt.D_at(pg_cols[i], pg_cols[j]), ph))
            if not is_zero_mat(res):
                ck.record("D-equivariance", (i, j), res)
    return ck.report()
