"""Representations of Lie-Yamaguti algebras, actions, and semidirect products.

A representation of g on a space V is a pair (rho, mu): rho linear in one
g-slot, mu bilinear in two g-slots, both valued in endomorphisms of V, subject
to five compatibility equations (R1-R5 below).  The derived skew map

    D(x, y) = mu(y, x) - mu(x, y) + [rho(x), rho(y)] - rho([x, y])

is computed once, at construction, from the supports of rho, mu and the acting
bracket.  R1-R5 and the lemma identities are each one table of residuals
over all basis tuples, a signed sum of compositions of the supports of the
brackets, rho, mu and D, each read with its matrix column as one more slot;
a product of two action matrices is a composition into the column slot of
the left one.  An *action* additionally lands in the center of the carrier algebra
and kills its brackets, which is exactly what makes the semidirect brackets on
g (+) h satisfy the Lie-Yamaguti axioms.  The action test reads supports too:
each nonzero column of rho, mu and D is tested against the center, and each
nonzero block is applied to the nonzero bracket values only.
"""

from .core import LYAlgebra, center
from .errors import AxiomsFailed, DimMismatch, NotAnAction
from .linalg import Q1, Tensor, axpy, dense, sparse_mul, vector_values
from .reports import Checker


class RepAction:
    """A pair (rho, mu) of an algebra ``acting`` on the carrier's space.

    ``rho`` is a list of dim(g) matrices; ``mu`` a dim(g) x dim(g) array of
    matrices, each dim(h) x dim(h); either may be a ``linalg.Tensor`` of that
    shape already.  The carrier is itself an algebra (often abelian); its
    brackets only matter for action checks and semidirect products.
    """

    def __init__(self, acting, carrier, rho, mu):
        self.acting = acting
        self.carrier = carrier
        n, m = acting.dim, carrier.dim
        if len(rho) != n or len(mu) != n or any(len(row) != n for row in mu):
            raise DimMismatch("rho needs %d matrices, mu a %dx%d array" % (n, n, n))
        self.rho = Tensor(rho, n, 1, (m, m))
        self.mu = Tensor(mu, n, 2, (m, m))
        self.derived_D = derive_D(self)
        self.action_certified = False
        self._rep_report = None
        self._semidirect = None

    def ensure_representation(self):
        if self._rep_report is None:
            self._rep_report = check_representation(self)
        if not self._rep_report.passed:
            raise AxiomsFailed("(rho, mu) is not a representation", self._rep_report)
        return self._rep_report

    def ensure_action(self):
        if not self.action_certified:
            rep = check_action(self)
            if not rep.passed:
                raise NotAnAction("(rho, mu) is not an action", rep)
        return self

    def semidirect(self):
        """The semidirect algebra, built and axiom-checked once, then cached."""
        if self._semidirect is None:
            self._semidirect = semidirect_product(self)
        return self._semidirect

    def __repr__(self):
        return "RepAction(%s on %s)" % (self.acting.name, self.carrier.name)


def derive_D(r):
    """The skew bilinear map D(x,y) = mu(y,x) - mu(x,y) + [rho(x),rho(y)] - rho([x,y]).

    Only the supports are multiplied: the products of nonzero rho blocks, and
    each rho block by a nonzero bracket coefficient.  The acting bracket is
    antisymmetric (``LYAlgebra`` enforces it), so D is, and D(e_j, e_i) is
    -D(e_i, e_j) for i < j.
    """
    n, shape = r.acting.dim, r.rho.shape
    c, rho, mu = r.acting.binary.support, r.rho.support, r.mu.support
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = dict(mu.get((j, i), {}))
            axpy(d, -Q1, mu.get((i, j), {}))
            a, b = rho.get((i,)), rho.get((j,))
            if a and b:
                axpy(d, Q1, sparse_mul(a, b))
                axpy(d, -Q1, sparse_mul(b, a))
            for k, q in c.get((i, j), {}).items():
                axpy(d, -q, rho.get((k,), {}))
            if d:
                values[i, j] = d
                values[j, i] = {rc: -q for rc, q in d.items()}
    return Tensor.from_support(values, n, 2, shape)


def check_representation(r, all_violations=False):
    """Verify the five representation equations on all basis tuples of g.

    R1: mu([x,y],z) - mu(x,z)rho(y) + mu(y,z)rho(x) = 0
    R2: mu(x,[y,z]) - rho(y)mu(x,z) + rho(z)mu(x,y) = 0
    R3: rho(<x,y,z>) = [D(x,y), rho(z)]
    R4: mu(z,w)mu(x,y) - mu(y,w)mu(x,z) - mu(x,<y,z,w>) + D(y,z)mu(x,w) = 0
    R5: mu(<x,y,z>,w) + mu(z,<x,y,w>) = [D(x,y), mu(z,w)]

    Each equation is one table of its residuals over all basis tuples, a
    signed sum of compositions of the supports (``linalg.signed_sum``): rho,
    mu and D are read with the matrix column as one more slot, so a product
    such as mu(x,z)rho(y) is rho composed into mu's column slot, and the
    table is regrouped into matrices to be scanned (``Checker.tabulate``).
    """
    g = r.acting
    ck = Checker("representation(%s on %s)" % (g.name, r.carrier.name), all_violations)
    c, d = g.binary.support, g.ternary.support
    rho, mu, D = (vector_values(t) for t in (r.rho, r.mu, r.derived_D))
    # basis vectors x, y, z, w sit at tuple positions 0..3, the column last
    ck.tabulate(r.rho.shape, [
        ("R1", [(Q1, mu, 0, c), (-Q1, mu, 2, rho, (0, 2, 1, 3)), (Q1, mu, 2, rho, (1, 2, 0, 3))]),
        ("R2", [(Q1, mu, 1, c), (-Q1, rho, 1, mu, (1, 0, 2, 3)), (Q1, rho, 1, mu, (2, 0, 1, 3))]),
        ("R3", [(Q1, rho, 0, d), (-Q1, D, 2, rho), (Q1, rho, 1, D, (2, 0, 1, 3))])], [
        ("R4", [(Q1, mu, 2, mu, (2, 3, 0, 1, 4)), (-Q1, mu, 2, mu, (1, 3, 0, 2, 4)),
                (-Q1, mu, 1, d), (Q1, D, 2, mu, (1, 2, 0, 3, 4))]),
        ("R5", [(Q1, mu, 0, d), (Q1, mu, 1, d, (2, 0, 1, 3, 4)), (-Q1, D, 2, mu),
                (Q1, mu, 2, D, (2, 3, 0, 1, 4))])])
    rep = ck.report()
    if r._rep_report is None or not r._rep_report.passed:
        r._rep_report = rep
    return rep


def check_lemma_identities(r, all_violations=False):
    """Derived identities that hold for every representation (regression tripwire).

    L1: D([x,y],z) + D([y,z],x) + D([z,x],y) = 0
    L2: D(<x,y,z>,w) + D(z,<x,y,w>) = [D(x,y), D(z,w)]
    L3: mu(<x,y,z>,w) = mu(x,w)mu(z,y) - mu(y,w)mu(z,x) - mu(z,w)D(x,y)

    Tabulated as in ``check_representation``.
    """
    g = r.acting
    ck = Checker("lemma-identities(%s on %s)" % (g.name, r.carrier.name), all_violations)
    c, d = g.binary.support, g.ternary.support
    mu, D = vector_values(r.mu), vector_values(r.derived_D)
    ck.tabulate(r.rho.shape, [
        ("L1", [(Q1, D, 0, c, xyz + (3,)) for xyz in ((0, 1, 2), (1, 2, 0), (2, 0, 1))])], [
        ("L2", [(Q1, D, 0, d), (Q1, D, 1, d, (2, 0, 1, 3, 4)), (-Q1, D, 2, D),
                (Q1, D, 2, D, (2, 3, 0, 1, 4))]),
        ("L3", [(Q1, mu, 0, d), (-Q1, mu, 2, mu, (0, 3, 2, 1, 4)),
                (Q1, mu, 2, mu, (1, 3, 2, 0, 4)), (Q1, mu, 2, D, (2, 3, 0, 1, 4))])])
    return ck.report()


def regular_pair(binary, ternary):
    """(rho, mu) with rho(x)z = x.z and mu(x, y)z = {z, x, y} for a binary
    and a ternary operation on one space: column s of rho(e_i) is
    binary(e_i, e_s) and column s of mu(e_i, e_j) is ternary(e_s, e_i, e_j)."""
    n = binary.dim
    rho, mu = {}, {}
    for (i, s), v in binary.support.items():
        rho.setdefault((i,), {}).update({(t, s): q for t, q in v.items()})
    for (s, i, j), v in ternary.support.items():
        mu.setdefault((i, j), {}).update({(t, s): q for t, q in v.items()})
    return (Tensor.from_support(rho, n, 1, (n, n)), Tensor.from_support(mu, n, 2, (n, n)))


def adjoint_rep(A):
    """The adjoint representation of A on itself.

    rho(x)z = [x, z] and mu(x, y)z = <z, x, y>; the carrier is A with its own
    brackets, so this doubles as the adjoint *action* when those images are
    central.
    """
    A.ensure_verified()
    return RepAction(A, A, *regular_pair(A.binary, A.ternary))


def check_action(r, all_violations=False):
    """Verify that a representation is an action on its carrier algebra.

    Requires: images of rho, mu (and the derived D) lie in the carrier's
    center, and all three annihilate the carrier's binary and ternary brackets.
    """
    rep = check_representation(r, all_violations)
    if not rep.passed:
        return rep
    g, h = r.acting, r.carrier
    h.ensure_verified()
    shape = (h.dim,)
    C = center(h)
    ck = Checker("action(%s on %s)" % (g.name, h.name), all_violations)
    brackets = [("-kills-binary", [(ab, v) for ab, v in h.binary.support.items()
                                   if ab[0] < ab[1]]),
                ("-kills-ternary", h.ternary.support.items())]
    for fam, t in (("rho", r.rho), ("mu", r.mu), ("D", r.derived_D)):
        for args, M in t.support.items():
            if ck.done:
                break
            cols = {}
            for (row, col), q in M.items():
                cols.setdefault(col, {})[row] = q
            for col in sorted(cols):
                v = dense(cols[col], shape)
                if not C.contains(v):
                    ck.record(fam + "-image-central", args + (col,), v)
            # M applied to each nonzero bracket value, column by column
            for eq, values in brackets:
                for bargs, v in values:
                    w = {}
                    for col, q in v.items():
                        axpy(w, q, cols.get(col, {}))
                    if w:
                        ck.record(fam + eq, args + bargs, dense(w, shape))
    out = ck.report({"center_dim": C.dim})
    if out.passed:
        r.action_certified = True
    return out


def semidirect_product(r):
    """The Lie-Yamaguti algebra on g (+) h induced by a certified action.

    [x+u, y+v]   = [x,y]_g + rho(x)v - rho(y)u + [u,v]_h
    <x+u,y+v,z+w> = <x,y,z>_g + D(x,y)w + mu(y,z)u - mu(x,z)v + <u,v,w>_h
    """
    if not r.action_certified:
        raise NotAnAction("action not certified; run check_action first")
    g, h = r.acting, r.carrier
    n = g.dim
    dim = n + h.dim
    binary, ternary = dict(g.binary.support), dict(g.ternary.support)

    def put(table, key, v, sign=1):
        table[key] = {n + t: sign * q for t, q in v.items()}

    for key, v in h.binary.support.items():
        put(binary, tuple(n + i for i in key), v)
    for key, v in h.ternary.support.items():
        put(ternary, tuple(n + i for i in key), v)
    # column c of a block is its value at the carrier's basis vector c
    for (i, c), v in vector_values(r.rho).items():
        put(binary, (i, n + c), v)
        put(binary, (n + c, i), v, -1)
    for (i, j, c), v in vector_values(r.derived_D).items():
        put(ternary, (i, j, n + c), v)
    for (i, j, c), v in vector_values(r.mu).items():
        put(ternary, (n + c, i, j), v)
        put(ternary, (i, n + c, j), v, -1)
    # mixed tuples with two carrier entries vanish
    binary = Tensor.from_support(binary, dim, 2, (dim,))
    ternary = Tensor.from_support(ternary, dim, 3, (dim,))
    S = LYAlgebra(dim, binary, ternary,
                  basis=["g:%s" % b for b in g.basis] + ["h:%s" % b for b in h.basis],
                  name="%s|x%s" % (g.name, h.name))
    S.ensure_verified()
    return S
