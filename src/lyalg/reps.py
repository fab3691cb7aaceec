"""Representations of Lie-Yamaguti algebras, actions, and semidirect products.

A representation of g on a space V is a pair (rho, mu): rho linear in one
g-slot, mu bilinear in two g-slots, both valued in endomorphisms of V, subject
to five compatibility equations (R1-R5 below).  rho, mu and the derived
skew map

    D(x, y) = mu(y, x) - mu(x, y) + [rho(x), rho(y)] - rho([x, y])

are stored as their supports, a matrix's column the last key slot
(``linalg.Tensor``), so rho(x)v, mu(x, y)v and D(x, y)v are read as
multilinear in every slot.  D is computed once, at construction, and R1-R5
and the lemma identities are each one table of residuals over all basis
tuples, all of them signed sums of compositions of the supports of the
brackets, rho, mu and D; a product of two action matrices is a composition
into the column slot of the left one.  An *action* additionally lands in the
center of the carrier algebra and kills its brackets, which is exactly what
makes the semidirect brackets on g (+) h satisfy the Lie-Yamaguti axioms;
``check_action`` checks both algebras too, so that algebra is built verified.
The action test reads supports too, one acting tuple at a time: the center's
defining equations are pushed through each nonzero column of rho, mu and D,
with no elimination, and each nonzero block through the nonzero bracket
values only, each table one group for the one check driver
(``Checker.tabulate``).
"""

import itertools

from .core import LYAlgebra, center_equations
from .errors import NotAnAction
from .linalg import SparseMat, Tensor, compose, push, signed_sum
from .reports import Checker, summed


class RepAction:
    """A pair (rho, mu) of an algebra ``acting`` on the carrier's space.

    ``rho`` is a list of dim(g) matrices; ``mu`` a dim(g) x dim(g) array of
    matrices, each dim(h) x dim(h); either may be a ``linalg.Tensor`` of that
    signature already, and any other shape raises ``DimMismatch``.  Both, and
    the derived D, are stored as Tensors and read by ``linalg.contract``.  The
    carrier is itself an algebra (often abelian); its brackets only matter for
    action checks and semidirect products.
    """

    def __init__(self, acting, carrier, rho, mu):
        self.acting = acting
        self.carrier = carrier
        n, m = acting.dim, carrier.dim
        self.rho = Tensor(rho, n, 1, (m, m))
        self.mu = Tensor(mu, n, 2, (m, m))
        self.derived_D = derive_D(self)
        self.action_certified = False
        self._semidirect = None

    def ensure_action(self):
        if not self.action_certified:
            rep = check_action(self, center_dim=False)
            if not rep.passed:
                raise NotAnAction("(rho, mu) is not an action", rep)
        return self

    def semidirect(self):
        """The semidirect algebra, built once, then cached."""
        if self._semidirect is None:
            self._semidirect = semidirect_product(self)
        return self._semidirect

    def __repr__(self):
        return "RepAction(%s on %s)" % (self.acting.name, self.carrier.name)


def derive_D(r):
    """The skew bilinear map D(x,y) = mu(y,x) - mu(x,y) + [rho(x),rho(y)] - rho([x,y]).

    One signed sum of the supports (``linalg.signed_sum``), keyed (x, y, c):
    the commutator is rho composed into rho's column slot, and rho([x,y]) the
    acting bracket composed into rho's acting slot.  D is skew because the
    acting bracket is (``LYAlgebra`` enforces it).
    """
    rho, mu = r.rho.support, r.mu.support
    values = signed_sum([(1, mu, (1, 0, 2)), (-1, mu, None), (1, rho, 1, rho),
                         (-1, rho, 1, rho, (1, 0, 2)), (-1, rho, 0, r.acting.binary.support)])
    return Tensor.from_support(values, r.acting.dim, 2, r.rho.shape)


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
    table is scanned in that form.  R1-R3 are one group and R4-R5 another
    (``Checker.tabulate``), so the 5-slot tables of R4 and R5 are not built
    once R1-R3 have settled a capped report.
    """
    g = r.acting
    ck = Checker("representation(%s on %s)" % (g.name, r.carrier.name), all_violations)
    c, d = g.binary.support, g.ternary.support
    rho, mu, D = r.rho.support, r.mu.support, r.derived_D.support
    # basis vectors x, y, z, w sit at tuple positions 0..3, the column last
    ck.tabulate(r.rho.shape, summed([
        ("R1", [(1, mu, 0, c), (-1, mu, 2, rho, (0, 2, 1, 3)), (1, mu, 2, rho, (1, 2, 0, 3))]),
        ("R2", [(1, mu, 1, c), (-1, rho, 1, mu, (1, 0, 2, 3)), (1, rho, 1, mu, (2, 0, 1, 3))]),
        ("R3", [(1, rho, 0, d), (-1, D, 2, rho), (1, rho, 1, D, (2, 0, 1, 3))])], [
        ("R4", [(1, mu, 2, mu, (2, 3, 0, 1, 4)), (-1, mu, 2, mu, (1, 3, 0, 2, 4)),
                (-1, mu, 1, d), (1, D, 2, mu, (1, 2, 0, 3, 4))]),
        ("R5", [(1, mu, 0, d), (1, mu, 1, d, (2, 0, 1, 3, 4)), (-1, D, 2, mu),
                (1, mu, 2, D, (2, 3, 0, 1, 4))])]))
    return ck.report()


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
    mu, D = r.mu.support, r.derived_D.support
    ck.tabulate(r.rho.shape, summed([
        ("L1", [(1, D, 0, c, xyz + (3,)) for xyz in ((0, 1, 2), (1, 2, 0), (2, 0, 1))])], [
        ("L2", [(1, D, 0, d), (1, D, 1, d, (2, 0, 1, 3, 4)), (-1, D, 2, D),
                (1, D, 2, D, (2, 3, 0, 1, 4))]),
        ("L3", [(1, mu, 0, d), (-1, mu, 2, mu, (0, 3, 2, 1, 4)),
                (1, mu, 2, mu, (1, 3, 2, 0, 4)), (1, mu, 2, D, (2, 3, 0, 1, 4))])]))
    return ck.report()


def regular_pair(binary, ternary):
    """(rho, mu) with rho(x)z = x.z and mu(x, y)z = {z, x, y} for a binary
    and a ternary operation on one space: rho at (i, s) is binary(e_i, e_s),
    so its support is binary's, and mu at (i, j, s) is ternary(e_s, e_i, e_j)."""
    n = binary.dim
    mu = signed_sum([(1, ternary.support, (2, 0, 1))])
    return (Tensor.from_support(binary.support, n, 1, (n, n)),
            Tensor.from_support(mu, n, 2, (n, n)))


def adjoint_rep(A):
    """The adjoint representation of A on itself.

    rho(x)z = [x, z] and mu(x, y)z = <z, x, y>; the carrier is A with its own
    brackets, so this doubles as the adjoint *action* when those images are
    central.
    """
    A.ensure_verified()
    return RepAction(A, A, *regular_pair(A.binary, A.ternary))


def check_action(r, all_violations=False, center_dim=True):
    """Verify that a representation is an action on its carrier algebra.

    Requires: a representation (its failing report is returned), both
    algebras verified (AxiomsFailed otherwise), images of rho, mu (and the
    derived D) in the carrier's center, all three annihilating its brackets.
    A column is central when the center's defining equations
    (``core.center_equations``) vanish on it; only the center's dimension,
    reported in the data, takes an elimination: the nullity of the equations'
    ``linalg.SparseMat``, its rank read from their dim h columns, the narrow
    side, with no kernel vectors built, and not for a passing report when
    ``center_dim`` is False, where the library only certifies.  Each
    acting tuple of rho, then mu, then D, in support order, gives up to
    three tables, each one group for ``Checker.tabulate``: its columns that
    are not central, when there are any, then its block pushed through the
    binary (a < b) and the ternary bracket values, left out when its columns
    are none of the rows of the bracket values (applied to any bracket
    value, the block gives zero).  So witnesses come by tuple, then by
    table, then by key, and no table is built once the report is settled.
    """
    rep = check_representation(r, all_violations)
    if not rep.passed:
        return rep
    g, h = r.acting, r.carrier
    g.ensure_verified()
    h.ensure_verified()
    equations = center_equations(h)
    brackets = [("-kills-binary", {ab: v for ab, v in h.binary.support.items()
                                   if ab[0] < ab[1]}),
                ("-kills-ternary", h.ternary.support)]
    # a block records a kill only at a column that is a row of some bracket value
    rows = {row for _, values in brackets for v in values.values() for row in v}

    def groups():
        for fam, t in (("rho", r.rho), ("mu", r.mu), ("D", r.derived_D)):
            # the support is sorted, so each acting tuple's columns come together
            for args, group in itertools.groupby(t.support.items(), lambda kv: kv[0][:-1]):
                # the block at args as the table of its columns, {(c,): v}
                block = {key[-1:]: v for key, v in group}
                off = {}
                push(off, 1, equations, block)
                if off:
                    yield [(fam + "-image-central", {args + c: block[c] for c in off})]
                if any(c in rows for c, in block):
                    for eq, values in brackets:
                        kills = {}
                        compose(kills, 1, block, 0, values)
                        yield [(fam + eq, {args + k: w for k, w in kills.items()})]

    ck = Checker("action(%s on %s)" % (g.name, h.name), all_violations)
    ck.tabulate((h.dim,), groups())
    out = ck.report({"center_dim": SparseMat(*equations.shape, equations).nullity()}
                    if center_dim or ck.violations else None)
    if out.passed:
        r.action_certified = True
    return out


def semidirect_product(r):
    """The Lie-Yamaguti algebra on g (+) h induced by a certified action.

    [x+u, y+v]   = [x,y]_g + rho(x)v - rho(y)u + [u,v]_h
    <x+u,y+v,z+w> = <x,y,z>_g + D(x,y)w + mu(y,z)u - mu(x,z)v + <u,v,w>_h

    Built verified: an action's semidirect sum is a Lie-Yamaguti algebra.
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
    for (i, c), v in r.rho.support.items():
        put(binary, (i, n + c), v)
        put(binary, (n + c, i), v, -1)
    for (i, j, c), v in r.derived_D.support.items():
        put(ternary, (i, j, n + c), v)
    for (i, j, c), v in r.mu.support.items():
        put(ternary, (n + c, i, j), v)
        put(ternary, (i, n + c, j), v, -1)
    # mixed tuples with two carrier entries vanish
    binary = Tensor.from_support(binary, dim, 2, (dim,))
    ternary = Tensor.from_support(ternary, dim, 3, (dim,))
    S = LYAlgebra(dim, binary, ternary,
                  basis=["g:%s" % b for b in g.basis] + ["h:%s" % b for b in h.basis],
                  name="%s|x%s" % (g.name, h.name))
    S.verified = True
    return S
