"""Deformations of weight-1 operators: linear and order-n deformations,
equivalences, obstruction classes, and the extension solver.

A polynomial family T_t = T + t T_1 + ... + t^n T_n is an order-n deformation
when both defining equations hold over K[t]/(t^(n+1)).  The coefficient of
t^(n+1) of an extension splits as Ob + delta^T(T_{n+1}), Ob collecting exactly
the summands with all indices at most n; extendability is solvability of
delta^T(T_{n+1}) = -Ob over Hom(h, g), decided by one elimination.

Every t-expansion is a truncated polynomial whose coefficients come from
``linalg.graded``/``graded_push``: those of both defining equations
(``rrb.Expansion``) and every identity of an equivalence (Id + t L(X),
Id + t D(X)), its intertwining (``rrb.intertwining``) included.  A
deformation's expansion extends the base operator's (``Expansion.extended``),
taking over the degree-0 inner sums and t^0 tables its check has built, and
builds each higher degree on first read.  The tables t^1..t^n that define an
order-n deformation come from one generator, in order: the order-n check
reads them and stops once a capped report is settled, and the obstruction
reads them only up to the first non-empty one, which decides that the input
is no order-n deformation with no report or witness built.  So t^(n+1) is
built only once every lower table is empty, and a linear deformation reads
t^1..t^3.  Maps h -> g and the obstruction are
sparse degree-1 and degree-2 cochains (``cohomology.Cochain``); closedness is
delta of one cochain, read from the columns in its support
(``TComplex.coboundary``), and the boundary partial(X) reads
``cohomology.partial_matrix``.
"""

from collections import namedtuple

from .cohomology import Cochain, TComplex, pair_index, partial_matrix, wedge_coords
from .errors import Inconsistent, InvalidDeformation
from .linalg import (Map, Tensor, axpy, contract, format_frac, graded, graded_push, mat, pull,
                     signed_sum, skew_faults, vector)
from .reports import Checker, Report
from .rrb import Expansion, intertwining


def _at(r, table, *vecs):
    """A coefficient table {basis tuple: sparse vector} evaluated at ``vecs``."""
    m, n = r.carrier.dim, r.acting.dim
    return contract(Tensor.from_support(table, m, len(vecs), (n,)), *vecs)


def binary_coefficient(r, Ts, s, u, v):
    """t^s coefficient of the binary defining equation for sum_i t^i T_i."""
    return _at(r, Expansion(r, Ts).table(2, s), u, v)


def ternary_coefficient(r, Ts, s, u, v, w):
    """t^s coefficient of the ternary defining equation for sum_i t^i T_i."""
    return _at(r, Expansion(r, Ts).table(3, s), u, v, w)


def _operator_matrix(op, T, what):
    """T as a matrix of the operator's shape, dim(acting) x dim(carrier)."""
    return mat(T, (op.action.acting.dim, op.action.carrier.dim),
               what + " must be %dx%d (carrier -> acting)")


class OrderNDeformation:
    """T_t = T + t T_1 + ... + t^n T_n over a verified base operator."""

    def __init__(self, base, terms):
        base.ensure_verified()
        self.base = base
        self.terms = [_operator_matrix(base, t, "deformation terms") for t in terms]
        self.order = len(self.terms)
        self._cx = None
        self._ob = None
        self._expansion = None

    def complex(self):
        if self._cx is None:
            self._cx = TComplex(self.base)
        return self._cx

    def coefficients(self):
        """The expansion of both defining equations for T_t (``rrb.Expansion``),
        made once by extending the base operator's; each higher degree's
        tables are built on their first read and cached, so t^(n+1) is built
        only when the obstruction reads it."""
        if self._expansion is None:
            self._expansion = self.base.expansion.extended(self.terms)
        return self._expansion

    def __repr__(self):
        return "OrderNDeformation(order=%d)" % self.order


def _order_n_tables(d):
    """(name, table) for the coefficients t^1..t^n of both defining equations,
    read from the deformation's expansion, s ascending and the binary one
    first: T_t is an order-n deformation exactly when every table is empty.
    Each table is built when it is read."""
    ex = d.coefficients()
    for s in range(1, d.order + 1):
        for arity, name in ((2, "binary"), (3, "ternary")):
            yield "deform-%s-t^%d" % (name, s), ex.table(arity, s)


def check_order_n(d, all_violations=False):
    """The order-n tables (``_order_n_tables``) on all basis tuples; witnesses
    come degree by degree, in lexicographic order with pairs first.  No table
    is read once a capped report is settled, and t^(n+1) is never read."""
    ck = Checker("order-%d-deformation" % d.order, all_violations)
    ck.tabulate((d.base.action.acting.dim,), ([entry] for entry in _order_n_tables(d)))
    return ck.report({"order": d.order})


def check_linear_deformation(op, T1, all_violations=False):
    """Per-coefficient verdicts for T + t*T1 (t^1..t^3 can be nonzero).

    The report fails when any coefficient survives; data lists the verdict per
    coefficient, read from whether its tables are empty, and whether T1 is
    closed for the operator's complex.  The t^1 coefficient is delta^T(T1),
    so T1 is closed (the degree-1 cocycle condition) exactly when both t^1
    tables are empty, and no complex is built.
    """
    op.ensure_verified()
    r = op.action
    T1 = _operator_matrix(op, T1, "T1")
    shape = (r.acting.dim,)
    ex = op.expansion.extended([T1])
    ck = Checker("linear-deformation", all_violations)
    tables = {s: (ex.table(2, s), ex.table(3, s)) for s in (1, 2, 3)}
    ck.tabulate(shape, [[("deform-%s-t^%d" % (name, s), t)] for s, pair in tables.items()
                        for name, t in zip(("binary", "ternary"), pair)])
    per = {"t^%d" % s: "fail" if any(pair) else "pass" for s, pair in tables.items()}
    return ck.report({"coefficient_verdicts": per, "t1_closed": per["t^1"] == "pass"})


def _difference_cochain(T1, T2, m, n):
    """T2 - T1 as a degree-1 cochain, the signed sum of the maps' column tables."""
    return Cochain.from_table(1, m, n, signed_sum([(1, T2.cols, None), (-1, T1.cols, None)]))


def check_equivalence(op, T1, T2, wedges, all_violations=False):
    """Whether (Id + t L(X), Id + t D(X)) is a homomorphism T+tT2 -> T+tT1.

    ``wedges`` lists (x, y) vector pairs (``linalg.vector``) whose sum is X in
    the wedge square of the acting algebra.  All homomorphism equations are
    expanded in t; the verdict covers the coefficients of t^0 and t^1 (the
    identities are read modulo t^2), higher coefficients are reported in the
    data payload.

    An identity of psi = Id + tM in k slots is the t^s coefficient of the
    tensor with each slot read through psi, less psi applied to the tensor,
    zero at s = 0; L(X) fills the acting algebra's slots and D(X) the
    carrier's, rho, mu and D being read with the matrix column as one more
    slot.  Witnesses come intertwines-T first (``rrb.intertwining``), then
    psi_g's pairs and triples interleaved, then psi_h's, then the
    equivariance, rho at (i,) before mu and D at (i, j).
    """
    op.ensure_verified()
    r = op.action
    g, h = r.acting, r.carrier
    n, m = g.dim, h.dim
    T1, T2 = (_operator_matrix(op, T, "T1 and T2") for T in (T1, T2))
    # L(X) = <x, y, .> and D(X) = D(x, y) summed over the wedges, the slots
    # x and y of each support pulled back along the vectors: {(0, 0, c): {row: q}}
    wedges = [(vector(x, n), vector(y, n)) for x, y in wedges]
    LX, DX = {}, {}
    for xy in wedges:
        pull(LX, 1, g.ternary.support, xy)
        pull(DX, 1, r.derived_D.support, xy)
    LX, DX = (Map.from_columns({key[2:]: v for key, v in M.items()}, (k, k))
              for M, k in ((LX, n), (DX, m)))
    ck = Checker("deformation-equivalence", all_violations)
    higher = {}
    res = intertwining((None, LX), (op.T, T2), (op.T, T1), (None, DX))
    ck.tabulate((n, m), [[("intertwines-T-t^%d" % s, v) for s, v in enumerate(res[:2])]])
    for s, v in enumerate(res[2:], 2):
        if v:
            higher.setdefault("intertwines-T", set()).add(s)

    def identity(name, t, polys, M):
        """(name-t^1, the t^1 table) of ``t`` with slot p read through polys[p],
        less (Id + t M) t; higher nonzero degrees go to ``higher``."""
        values = t.support
        for s in range(1, len(polys) + 1):
            acc = {}
            graded(acc, 1, values, polys, s)
            graded_push(acc, -1, (None, M), [values], s)
            if s == 1:
                first = ("%s-t^1" % name, acc)
            elif acc:
                higher.setdefault(name, set()).add(s)
        return first

    L, D = (None, LX), (None, DX)
    for name, alg, psi, M in (("psi_g", g, L, LX), ("psi_h", h, D, DX)):
        ck.tabulate((alg.dim,), [[identity(name + "-binary", alg.binary, (psi,) * 2, M),
                                  identity(name + "-ternary", alg.ternary, (psi,) * 3, M)]])
    ck.tabulate((m, m), [[identity(name, t, (L,) * t.arity + (D,), DX)
                          for name, t in (("rho-equivariance", r.rho), ("mu-equivariance", r.mu),
                                          ("D-equivariance", r.derived_D))]])

    X = {}
    for x, y in wedges:
        axpy(X, 1, wedge_coords(x, y, n))
    diff = _difference_cochain(T1, T2, m, n)
    data = {"difference_equals_boundary": partial_matrix(op).apply(X) == diff.support,
            "higher_order_residual_degrees": {k: sorted(v) for k, v in sorted(higher.items())}}
    return ck.report(data)


class ObstructionClass(namedtuple("ObstructionClass", "as_cochain closed")):
    """A degree-2 ``Cochain`` and whether its coboundary vanishes."""
    __slots__ = ()
    # value vectors per pair (a < b) of carrier indices, and per (pair, c)
    ob_I = property(lambda self: self.as_cochain.f)
    ob_II = property(lambda self: self.as_cochain.g)


def obstruction_class(d):
    """The degree-2 cochain obstructing extension of an order-n deformation.

    Its components are the t^(n+1) coefficients of both defining equations
    with every index in 0..n, that is with T_(n+1) = 0; its coboundary must
    vanish (checked), and extension is solvable iff it is a coboundary.  The
    order-n tables are read up to the first non-empty one, which raises
    InvalidDeformation.  The class is built once per deformation and then
    cached.
    """
    if d._ob is not None:
        return d._ob
    if any(table for _, table in _order_n_tables(d)):
        raise InvalidDeformation("not an order-%d deformation" % d.order)
    n, m = d.base.action.acting.dim, d.base.action.carrier.dim
    ex = d.coefficients()
    first, second = ex.table(2, d.order + 1), ex.table(3, d.order + 1)
    # the first component must be alternating to be a cochain
    fault = min((k for k in skew_faults(first) if k[0] >= k[1]), default=None)
    if fault is not None:
        raise InvalidDeformation("first component not alternating" if fault[0] == fault[1]
                                 else "first component not antisymmetric")
    pidx = pair_index(m)
    c2 = Cochain.from_table(2, m, n, {(pidx[k[:2]],) + k[2:]: v for table in (first, second)
                                      for k, v in table.items() if k[0] < k[1]})
    closed = d.complex().coboundary(c2).is_zero()
    d._ob = ObstructionClass(c2, closed)
    return d._ob


def extend(d):
    """Try to solve delta^T(T_{n+1}) = -Ob; returns (T_{n+1} as a
    ``linalg.Map``, or None, and the report).

    On failure the report carries a rank certificate showing the right-hand
    side lies outside the column space of the degree-1 coboundary matrix.
    """
    ob = obstruction_class(d)
    A = d.complex().matrix(1)
    m, n = d.base.action.carrier.dim, d.base.action.acting.dim
    data = {"obstruction_closed": ob.closed}
    try:
        x = A.solve({k: -q for k, q in ob.as_cochain.support.items()})
    except Inconsistent as e:
        data.update({"extendable": False, "rank": e.rank, "rank_augmented": e.rank_augmented})
        return None, Report("deformation-extension", "fail", [], data)
    # coordinate a n + r of a degree-1 cochain is row r of column a
    t_next = Map.from_columns({(a,): dict(enumerate(x[a * n:(a + 1) * n])) for a in range(m)},
                              (n, m))
    data["extendable"] = True
    return t_next, Report("deformation-extension", "pass", [], data)


def difference_class(op, T1, T2):
    """Decide whether T2 - T1 is the boundary of some X in the wedge square.

    Solves partial(X) = T2 - T1; on success the data payload carries X's
    coordinates on the (i < j) pair basis of the acting algebra.
    """
    op.ensure_verified()
    T1, T2 = (_operator_matrix(op, T, "T1 and T2") for T in (T1, T2))
    n, m = op.action.acting.dim, op.action.carrier.dim
    try:
        x = partial_matrix(op).solve(_difference_cochain(T1, T2, m, n).support)
    except Inconsistent:
        return Report("difference-class", "fail", [],
                      {"cohomologous": False})
    return Report("difference-class", "pass", [],
                  {"cohomologous": True,
                   "X_pair_coordinates": [format_frac(c) for c in x]})
