"""Exact rational linear algebra.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator).
Vectors are tuples of Fraction; matrices are tuples of row tuples.  The
elimination routine also takes sparse rows, dicts {column: Fraction}.
Structure tensors (``Tensor``) are stored as their support, the nonzero
vector or matrix values as sparse dicts, and read as nested tuples through a
view built from it.  ``contract`` evaluates them at vectors; every equation
is tabulated from the supports as one sparse table, a signed sum of
compositions (``compose``) and of supports pulled back along or pushed
through a linear map (``pull``/``push``).
There are no tolerances anywhere: equality means exact equality.
"""

import itertools
import operator
from fractions import Fraction

from .errors import AmbientMismatch, DimMismatch, Inconsistent, NotInvertible

Q0 = Fraction(0)
Q1 = Fraction(1)


def frac(x):
    """Coerce int / "p/q" string / Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError("not a rational: %r" % (x,))


def format_frac(q):
    """Serialize a Fraction as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# vectors

def is_zero_vec(a):
    return all(x == 0 for x in a)


# ---------------------------------------------------------------------------
# matrices (tuple of row tuples)

def mat(rows):
    return tuple(tuple(frac(x) for x in row) for row in rows)


def mat_zero(r, c):
    return tuple((Q0,) * c for _ in range(r))


def mat_id(n):
    return tuple(tuple(Q1 if i == j else Q0 for j in range(n)) for i in range(n))


def mat_shape(m):
    return (len(m), len(m[0]) if m else 0)


def mat_mul(a, b):
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise DimMismatch("cannot multiply %dx%d by %dx%d" % (ra, ca, rb, cb))
    bt = transpose(b)
    return tuple(tuple(sum((row[k] * col[k] for k in range(ca) if row[k] != 0), Q0)
                       for col in bt) for row in a)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def is_zero_mat(m):
    return all(x == 0 for row in m for x in row)


# ---------------------------------------------------------------------------
# structure tensors
#
# Every bracket, action and post-operation is a multilinear map given by its
# values on basis tuples.  A Tensor is stored as its support, the nonzero
# values as sparse dicts; the nested tuples it also is, so that t[i][j] is the
# value at (e_i, e_j) as a plain nested tuple would give it, are a view filled
# from the support.  ``contract`` is the one routine that evaluates a tensor.

class Tensor(tuple):
    """Values t[i]...[k] of a multilinear map on basis tuples of Q^dim.

    Every value has ``shape``: (d,) for a vector, (r, c) for a matrix.
    ``support`` maps each index tuple whose value is nonzero to that value as
    a sparse dict, {r: q} for a vector and {(r, c): q} for a matrix; keys are
    in lexicographic order and entries in ascending order, and callers
    never change the table in place.  Built from nested values, or, inside the
    library, from a support table by ``from_support``; a Tensor of the
    requested dim, arity and shape is taken as it is.
    """

    def __new__(cls, values, dim, arity, shape):
        if isinstance(values, Tensor) and (values.dim, values.arity, values.shape) \
                == (dim, arity, shape):
            return values
        table = {}

        def walk(v, key):
            if len(key) < arity:
                for i in range(dim):
                    walk(v[i], key + (i,))
                return
            vec = len(shape) == 1
            rows = mat([v] if vec else v)
            if len(rows) != (1 if vec else shape[0]) \
                    or any(len(row) != shape[-1] for row in rows):
                raise DimMismatch("tensor values must have shape %s"
                                  % "x".join(map(str, shape)))
            table[key] = {c if vec else (r, c): x
                          for r, row in enumerate(rows) for c, x in enumerate(row)}
        walk(values, ())
        return cls.from_support(table, dim, arity, shape)

    @classmethod
    def from_support(cls, table, dim, arity, shape):
        """The tensor whose nonzero values are those of the sparse ``table``
        {index tuple: sparse value}, in any order; zero entries are dropped."""
        support = {}
        for key in sorted(table):
            v = {e: q for e, q in sorted(table[key].items()) if q}
            if v:
                support[key] = v
        zero = dense({}, shape)

        def level(key):
            if len(key) == arity:
                v = support.get(key)
                return zero if v is None else dense(v, shape)
            return tuple(level(key + (i,)) for i in range(dim))
        self = super().__new__(cls, level(()))
        self.dim, self.arity, self.shape, self.support = dim, arity, shape, support
        return self

    def __reduce__(self):
        # copy and pickle rebuild a tensor from its support
        return Tensor.from_support, (self.support, self.dim, self.arity, self.shape)


def contract(t, *slots):
    """The value of the tensor ``t`` with each slot a basis index or a vector.

    Only index tuples in the support contribute, and a coefficient product is
    formed only for those; with no live term the result is the zero of the
    tensor's value shape.
    """
    if len(slots) != t.arity:
        raise DimMismatch("tensor takes %d arguments, got %d" % (t.arity, len(slots)))
    picks, vecs = [], []
    for k, s in enumerate(slots):
        if isinstance(s, int):
            picks.append((s,))
        else:
            if len(s) != t.dim:
                raise DimMismatch("vectors must have length %d" % t.dim)
            picks.append([i for i, x in enumerate(s) if x])
            vecs.append(k)
    acc = {}
    support = t.support
    for key in itertools.product(*picks):
        v = support.get(key)
        if v is None:
            continue
        c = Q1
        for k in vecs:
            c *= slots[k][key[k]]
        for e, x in v.items():
            acc[e] = acc.get(e, Q0) + c * x
    return dense(acc, t.shape)


# ---------------------------------------------------------------------------
# sparse values
#
# The equation tables read the support of each tensor, a matrix value's column
# as one more slot; the dense residual is built only for a recorded witness.

def vector_values(t):
    """The support of ``t`` as {index tuple: {row: q}}; a matrix value's
    column is one more slot at the end."""
    if len(t.shape) == 1:
        return t.support
    out = {}
    for key, v in t.support.items():
        for (r, c), x in v.items():
            out.setdefault(key + (c,), {})[r] = x
    return out


def matrix_values(table):
    """A table read as by ``vector_values``, with the column in its last slot,
    regrouped as {index tuple: {(r, c): q}}."""
    out = {}
    for key, v in table.items():
        c = key[-1]
        out.setdefault(key[:-1], {}).update({(r, c): q for r, q in v.items()})
    return out


def axpy(acc, f, x):
    """acc += f * x on sparse dicts, in place, dropping entries that cancel."""
    if not f:
        return
    for k, v in (x.items() if f == 1 else ((k, f * v) for k, v in x.items())):
        old = acc.get(k)
        if old is None:
            acc[k] = v
        else:
            new = old + v
            if new:
                acc[k] = new
            else:
                del acc[k]


def skew_faults(values):
    """The keys of a sparse table {index tuple: sparse value} at which it is
    not antisymmetric in its first two slots, read off the table alone: a key
    faults with its swap when the swap's value is not the negative of its
    own (absent counts as zero), so a diagonal key always faults."""
    bad = set()
    for key, v in values.items():
        swap = (key[1], key[0]) + key[2:]
        if v != {r: -q for r, q in values.get(swap, {}).items()}:
            bad.update((key, swap))
    return bad


def skew_fault(binary, ternary=None):
    """The first index tuple at which the vector-valued tensor ``binary``, or
    ``ternary``, is not antisymmetric in its first two slots, or None.

    "First" is the order of nested loops over i, j that check binary[i][j]
    and then ternary[i][j][k] for each k; only the supports are read.
    """
    faults = [key + (-1,) for key in skew_faults(binary.support)]
    if ternary is not None:
        faults.extend(skew_faults(ternary.support))
    if not faults:
        return None
    key = min(faults)
    return key[:2] if key[2] < 0 else key


def sparse_mul(a, b):
    """The product of two sparse matrices {(r, c): q}."""
    rows = {}
    for (k, c), w in b.items():
        rows.setdefault(k, []).append((c, w))
    out = {}
    for (r, k), q in a.items():
        for c, w in rows.get(k, ()):
            rc = (r, c)
            out[rc] = out.get(rc, Q0) + q * w
    return {rc: v for rc, v in out.items() if v}


# ---------------------------------------------------------------------------
# equation tables
#
# Every equation is tabulated over all basis tuples at once, as one sparse
# table {index tuple: {row: q}} in which a tuple whose value vanishes is
# absent.  Each signed term is added straight into the equation's table: a
# tensor's support pulled back along the nonzero entries of a linear map, slot
# by slot (``pull``), a table pushed forward through a map (``push``), or one
# support composed into a slot of another (``compose``).  The slots of a term
# are placed at the tuple positions of the equation's arguments.

def sparse_map(M):
    """The nonzero entries of the matrix M as (rows, cols), rows {r: [(c, q)]}
    and cols {c: [(r, q)]}."""
    rows, cols = {}, {}
    for r, row in enumerate(M):
        for c, q in enumerate(row):
            if q:
                rows.setdefault(r, []).append((c, q))
                cols.setdefault(c, []).append((r, q))
    return rows, cols


def _add_at(table, key, f, x):
    """table[key] += f * x on sparse values, dropping a value that cancels."""
    v = table.setdefault(key, {})
    axpy(v, f, x)
    if not v:
        del table[key]


def _placement(positions):
    """The map taking a key to the tuple with slot p at position
    positions[p], or None for slot order."""
    if positions is None or len(positions) < 2:
        return None
    slots = [0] * len(positions)
    for p, x in enumerate(positions):
        slots[x] = p
    return operator.itemgetter(*slots)


def pull(acc, sign, values, maps, positions=None):
    """acc += sign * ``values`` with slot p read through maps[p] (the rows of a
    map, see ``sparse_map``, or None to read the slot as it is) and placed at
    tuple position positions[p] (slot order by default).

    The slots are pulled back one at a time, so that the terms meeting at a
    partly pulled-back key are summed before the next slot multiplies them.
    """
    for p, rows in enumerate(maps):
        if rows is not None:
            table = {}
            for key, v in values.items():
                for a, q in rows.get(key[p], ()):
                    _add_at(table, key[:p] + (a,) + key[p + 1:], q, v)
            values = table
    place = _placement(positions)
    for key, v in values.items():
        _add_at(acc, place(key) if place else key, sign, v)


def push(acc, sign, cols, table):
    """acc += sign * M(table), M given by its columns (see ``sparse_map``)."""
    for key, v in table.items():
        out = {}
        for y, q in v.items():
            for x, t in cols.get(y, ()):
                out[x] = out.get(x, Q0) + q * t
        _add_at(acc, key, sign, {x: q for x, q in out.items() if q})


def signed_sum(terms):
    """One table summing ``terms``: (sign, values, positions) adds ``values``
    placed as by ``pull``, and (sign, outer, p, inner[, positions]) adds a
    composition (see ``compose``)."""
    acc = {}
    for sign, values, *rest in terms:
        if len(rest) == 1:
            pull(acc, sign, values, (), rest[0])
        else:
            compose(acc, sign, values, *rest)
    return acc


def compose(acc, sign, outer, p, inner, positions=None):
    """acc += sign * ``outer`` with the value of ``inner`` in its slot p, both
    tables read as by ``vector_values``: the key is outer's with slot p
    replaced by inner's slots, then placed as by ``pull``.  The product of
    two matrix values is the composition into the outer one's column slot.
    No table of the composition itself is formed."""
    at = {}
    for key, v in outer.items():
        at.setdefault(key[p], []).append((key[:p], key[p + 1:], v))
    place = _placement(positions)
    for key, w in inner.items():
        for s, q in w.items():
            f = sign * q
            for head, tail, v in at.get(s, ()):
                k = head + key + tail
                _add_at(acc, place(k) if place else k, f, v)


def hom_table(src, dst, cols, maps):
    """M(src(e_i, ..)) - dst(..) with slot p of dst read through maps[p], over
    the basis tuples of src's slots, M given by its columns (see
    ``sparse_map``); both tensors are read by ``vector_values``."""
    acc = {}
    push(acc, Q1, cols, vector_values(src))
    pull(acc, -Q1, vector_values(dst), maps)
    return acc


def dense(x, shape):
    """The dense vector or matrix of the given shape with sparse entries x."""
    if len(shape) == 1:
        return tuple(x.get(r, Q0) for r in range(shape[0]))
    return tuple(tuple(x.get((r, c), Q0) for c in range(shape[1])) for r in range(shape[0]))


# ---------------------------------------------------------------------------
# elimination
#
# Every rank, kernel, solve and subspace below goes through one sparse
# row-echelon routine.  Rows are dicts {column: value} of nonzero entries; a
# stored row starts at its pivot, the smallest column it touches, with the
# pivot entry normalised to 1, and no two stored rows share a pivot.  The
# pivots are therefore the leftmost possible ones, and after back-substitution
# the rows are the canonical reduced echelon form of their span, whatever the
# order the rows came in.

def _as_dict(row):
    if isinstance(row, dict):
        return {c: v for c, v in row.items() if v != 0}
    return {c: v for c, v in enumerate(row) if v != 0}


class Echelon:
    """Incremental sparse row echelon form over Q.

    ``insert`` adds a row (a dict {col: value} or a dense sequence) and reports
    whether it was independent of the rows before it.  ``items`` back-substitutes
    on demand and returns the canonical reduced echelon basis.
    """

    def __init__(self, rows=()):
        self._rows = {}            # pivot column -> row dict with row[pivot] == 1
        self._reduced = True
        for row in rows:
            self.insert(row)

    @property
    def rank(self):
        return len(self._rows)

    @property
    def pivots(self):
        return sorted(self._rows)

    def reduce(self, row):
        """What is left of ``row`` after eliminating its leading entries.

        The result is empty exactly when the row lies in the span.
        """
        r = _as_dict(row)
        stored = self._rows
        while r:
            c = min(r)
            p = stored.get(c)
            if p is None:
                break
            axpy(r, -r[c], p)
        return r

    def insert(self, row):
        """Add a row; True when it was independent of the rows before it."""
        r = self.reduce(row)
        if not r:
            return False
        c = min(r)
        inv = Q1 / r[c]
        self._rows[c] = {k: v * inv for k, v in r.items()}
        self._reduced = False
        return True

    def items(self):
        """The reduced echelon basis as (pivot, row dict), pivots increasing."""
        stored = self._rows
        if not self._reduced:
            # a row only meets pivots to its right, which are reduced first
            for c in sorted(stored, reverse=True):
                row = stored[c]
                for k in [k for k in row if k != c and k in stored]:
                    axpy(row, -row[k], stored[k])
            self._reduced = True
        return sorted(stored.items())

    def dense_rows(self, ncols):
        return tuple(tuple(row.get(c, Q0) for c in range(ncols)) for _, row in self.items())

    def nullspace(self, ncols):
        """Kernel basis of the rows in Q^ncols, one sparse vector {col: q} per
        free column."""
        hits = {}
        for pc, row in self.items():
            for c, v in row.items():
                if c != pc:
                    hits.setdefault(c, []).append((pc, v))
        basis = []
        for c in range(ncols):
            if c in self._rows:
                continue
            v = {c: Q1}
            for pc, val in hits.get(c, ()):
                v[pc] = -val
            basis.append(v)
        return basis


def rref(rows):
    """Reduced row echelon form. Returns (rows, pivot column list)."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    ech = Echelon(rows)
    red = ech.dense_rows(nc)
    return red + ((Q0,) * nc,) * (nr - len(red)), ech.pivots


def rank(rows):
    """Rank of dense or sparse (dict) rows."""
    return Echelon(rows).rank


def nullspace_basis(rows, ncols=None):
    """Vectors spanning {v : rows . v = 0}; one per free column.

    Sparse (dict) rows need ``ncols``.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return [dense(v, (ncols,)) for v in Echelon(rows).nullspace(ncols)]


def solve(rows, b, ncols=None):
    """Some x with rows . x = b; raises Inconsistent when there is none.

    The free coordinates of x are 0.  Sparse (dict) rows need ``ncols``.
    """
    nr = len(rows)
    if len(b) != nr:
        raise DimMismatch("rhs length %d != %d rows" % (len(b), nr))
    if ncols is None:
        ncols = len(rows[0]) if nr else 0
    ech = Echelon()
    for row, bv in zip(rows, b):
        row = _as_dict(row)
        if bv != 0:
            row[ncols] = bv
        ech.insert(row)
    if ncols in ech._rows:
        raise Inconsistent("rhs outside column space")
    x = [Q0] * ncols
    for pc, row in ech.items():
        x[pc] = row.get(ncols, Q0)
    return tuple(x)


def invert(m):
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimMismatch("inverse needs a square matrix")
    ech = Echelon(list(r) + [Q1 if j == i else Q0 for j in range(n)] for i, r in enumerate(m))
    if ech.pivots[:n] != list(range(n)):
        raise NotInvertible("matrix is singular")
    return tuple(row[n:] for row in ech.dense_rows(2 * n))


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of Q^n in canonical (reduced echelon) basis.

    Two equal subspaces always store bit-identical bases, whatever spanning
    set they were built from.
    """

    def __init__(self, ambient_dim, spanning=()):
        self.ambient_dim = ambient_dim
        for v in spanning:
            if len(v) != ambient_dim:
                raise AmbientMismatch("vector length %d in ambient %d" % (len(v), ambient_dim))
        self._ech = Echelon(tuple(frac(x) for x in v) for v in spanning)
        self.basis = self._ech.dense_rows(ambient_dim)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length %d in ambient %d" % (len(v), self.ambient_dim))
        return not self._ech.reduce(v)

    def intersect(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambients %d vs %d" % (self.ambient_dim, other.ambient_dim))
        n = self.ambient_dim
        # Zassenhaus: the rows (u | u) and (w | 0) reduce to (0 | x) exactly for
        # x in the intersection
        ech = Echelon([u + u for u in self.basis] + [w + (Q0,) * n for w in other.basis])
        return Subspace(n, [tuple(row.get(n + c, Q0) for c in range(n))
                            for pc, row in ech.items() if pc >= n])

    def sum(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambients %d vs %d" % (self.ambient_dim, other.ambient_dim))
        return Subspace(self.ambient_dim, self.basis + other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)
