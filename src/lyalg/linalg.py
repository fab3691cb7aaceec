"""Exact rational linear algebra.

A scalar is an exact rational, and every scalar handed out is a
``fractions.Fraction``: vectors are tuples of Fraction, matrices tuples of
row tuples.  Inside, a scalar stored in a support, a linear map or an
equation table is an ``int`` when its denominator is 1 and a Fraction
otherwise (``scalar``), so integral data is multiplied and summed with no
Fraction arithmetic; values enter in that form through ``Tensor.from_support``
and ``mat`` and leave as Fractions through ``dense``.  ``rational`` reads
every rational literal, from the API or a file, ``vector`` every API vector
and ``mat`` every linear map, into its one form, ``Map``.  No routine
divides with ``/``, so no float can appear.  The one elimination routine
takes sparse rows, {column: Fraction or int}, works fraction-free on
primitive integer rows, and hands back Fractions; every rank, kernel and
solve is asked of a ``SparseMat``, which feeds it the columns of its matrix,
each with a tag for a kernel or a solve, and reads its entries by ``mat``.
A reduced row echelon basis is read off the canonical kernel.
Structure tensors (``Tensor``) are their support, {index tuple: {row: q}}
over the nonzero values, a matrix value's column the last slot of its key.
``pull``, ``push`` and ``compose`` are the one contraction primitive: a
support pulled back along a linear map slot by slot, a table pushed forward
through one, or one support composed into a slot of another.  Every equation
is tabulated from the supports with them as one sparse table of the same
form, a signed sum of such terms, and ``contract`` evaluates a tensor at
vectors and basis indices as one ``pull``.  A composition costs a scan of
the inner table's rows and one set test per outer key, plus one accumulation
per entry that meets; all three add their terms by one loop (``_sum_into``),
in which a sign of 1 or -1 makes no product.  Every expansion in t is a
truncated polynomial whose t^s coefficient is read off by one routine:
``graded`` for a support with its slots read through polynomial maps,
``graded_push`` for a polynomial map applied to tables graded by degree.
There are no tolerances anywhere: equality means exact equality.
"""

import functools
import math
import operator
from fractions import Fraction

from .errors import (AmbientMismatch, DimMismatch, Inconsistent, NotInvertible, ShapeMismatch,
                     TooLarge)

Q0 = Fraction(0)
Q1 = Fraction(1)


# The most digits a string literal may carry in all, and the largest exponent
# it may carry in size: CPython's limit on the digits of an integer literal.
# ``Fraction`` reads "1e999999999" by building 10**999999999, which does not
# return in any useful time; within the bound the numerator and denominator
# it builds have at most a few thousand digits, like any integer literal's.
MAX_DECIMAL_DIGITS = 4300


def rational(x):
    """The rational literal x, an int, a Fraction or a string "p/q" or
    decimal such as "0.5", in its stored form (``scalar``).  An ASCII "n" or
    "p/q" (digits, an optional leading "-", q > 0) is read with ``int``, any
    other string by ``Fraction`` (ValueError or ZeroDivisionError if it
    refuses it); a string of more than MAX_DECIMAL_DIGITS digits in all, or
    an exponent larger than that in size, is TooLarge before it is read.  A
    bool, a float or any other value is a ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        p, slash, d = x.partition("/")
        if len(x) <= MAX_DECIMAL_DIGITS and x.isascii() \
                and (p[1:] if p[:1] == "-" else p).isdigit() and (d.isdigit() or not slash):
            if not slash:
                return int(p)
            p, d = int(p), int(d)
            if d:  # q = 0 is refused by Fraction below
                return Fraction(p, d) if p % d else p // d
        try:
            huge = abs(int(x.replace("E", "e").partition("e")[2] or 0)) > MAX_DECIMAL_DIGITS
        except ValueError:  # not an integer exponent: refused by Fraction
            huge = False
        if huge or len(x) > MAX_DECIMAL_DIGITS and sum(map(str.isdigit, x)) > MAX_DECIMAL_DIGITS:
            raise TooLarge("a decimal may have at most %d digits and an exponent of at most %d"
                           % (MAX_DECIMAL_DIGITS, MAX_DECIMAL_DIGITS))
        return scalar(Fraction(x))
    if isinstance(x, Fraction):  # after str: an ABC test costs more
        return scalar(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise ValueError("not a rational: %r" % (x,))


def frac(x):
    """The rational literal x (``rational``) as a Fraction."""
    t = type(x)
    return x if t is Fraction else Fraction(x if t is int else rational(x))


def scalar(q):
    """The int or Fraction q as it is stored in a table: an int when its
    denominator is 1, else the Fraction itself."""
    return q.numerator if q.denominator == 1 else q


def format_frac(q):
    """Serialize an int or Fraction as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# linear maps: one form (``Map``), one entry (``mat``), one dense exit

class Map:
    """A linear map Q^c -> Q^r of ``shape`` (r, c), by its nonzero entries,
    each stored by ``scalar``, in the two views built once when it is made:
    ``rows`` {r: [(c, q)]}, which ``pull`` reads, and the column table
    ``cols`` {(c,): {r: q}}, the form of a matrix-valued support, which
    ``push`` reads.  Made by ``mat``, or inside the library from its column
    table by ``from_columns``; it leaves as dense rows by ``dense``."""

    def __init__(self, shape, entries):
        rows, cols = {}, {}
        for (r, c), q in entries:        # row-major, each q nonzero and stored
            rows.setdefault(r, []).append((c, q))
            cols.setdefault((c,), {})[r] = q
        self.shape, self.rows, self.cols = shape, rows, cols

    @classmethod
    def from_columns(cls, table, shape):
        """The map whose column c is the sparse value at (c,) of ``table``."""
        return cls(shape, sorted(((r, c), scalar(q)) for (c,), v in table.items()
                                 for r, q in v.items() if q))

    def dense(self):
        """The dense rows of Fractions: the form in which a map leaves."""
        return dense({(r, c): q for r, row in self.rows.items() for c, q in row}, self.shape)


def mat(M, shape=None, message="matrix must be %dx%d"):
    """The linear map M as a ``Map``: dense rows, lists or tuples of
    ``rational`` literals, a sparse {(r, c): literal} dict of the given
    shape, or a Map, taken as it is.  Any other form, ragged rows, another
    shape or a key outside it is a DimMismatch, ``message % shape``, or
    without a shape "a matrix is a list of equal rows"."""
    if isinstance(M, Map) and M.shape == (shape or M.shape):
        return M
    if isinstance(M, dict) and shape and all(
            type(k) is tuple and len(k) == 2 and type(k[0]) is int is type(k[1])
            and 0 <= k[0] < shape[0] and 0 <= k[1] < shape[1] for k in M):
        return Map(shape, [(k, q) for k, q in sorted((k, rational(q)) for k, q in M.items()) if q])
    if isinstance(M, (list, tuple)) and all(isinstance(row, (list, tuple)) for row in M):
        nc = len(M[0]) if M else shape[1] if shape else 0
        if all(len(row) == nc for row in M) and shape in (None, (len(M), nc)):
            return Map((len(M), nc), [((r, c), q) for r, row in enumerate(M)
                                      for c, q in enumerate(map(rational, row)) if q])
    raise DimMismatch(message % shape if shape else "a matrix is a list of equal rows")


def vector(x, n):
    """The one reader of an API vector: x, n ``rational`` literals in a list
    or tuple, or an n x 1 Map, as that Map.  Anything else is a DimMismatch."""
    if isinstance(x, Map) and x.shape == (n, 1):
        return x
    if not isinstance(x, (list, tuple)) or len(x) != n:
        raise DimMismatch("vectors must have length %d" % n)
    return Map((n, 1), [((i, 0), q) for i, q in enumerate(map(rational, x)) if q])


# ---------------------------------------------------------------------------
# structure tensors
#
# Every bracket, action and post-operation is a multilinear map given by its
# values on basis tuples.  A Tensor is its support, the nonzero values as
# sparse dicts, and nothing more: no dense view is built, so its size follows
# the support, not dim^arity.  ``contract`` evaluates a tensor at vectors and
# basis indices by pulling its support back (``pull``).

class Tensor:
    """A multilinear map on basis tuples of Q^dim, given by its values there.

    Every value has ``shape``: (d,) for a vector, (r, c) for a matrix.
    ``support`` maps each index tuple whose value is nonzero to that value as
    a sparse dict {row: q}, each q stored by ``scalar``; a matrix value is
    read by its columns, column c of the value at (i, .., k) keyed
    (i, .., k, c), the form in which rho(x)v, mu(x, y)v and D(x, y)v are
    multilinear in every slot.  Keys are in lexicographic order and entries
    in ascending order, and callers never change the table in place.  Built from
    nested lists or tuples, dim entries at every index level and
    values[i]...[k] at (e_i, ..., e_k) of the value's shape, else DimMismatch;
    inside the library, from a support table by ``from_support``.  A Tensor of
    the same dim, arity and shape is taken as it is.
    """

    def __new__(cls, values, dim, arity, shape):
        if isinstance(values, Tensor):
            if (values.dim, values.arity, values.shape) == (dim, arity, shape):
                return values
            raise DimMismatch("a tensor of dim, arity, shape %s where %s is needed" % (
                (values.dim, values.arity, values.shape), (dim, arity, shape)))
        sizes, table = (dim,) * arity + shape, {}

        def walk(v, key):
            seq = isinstance(v, (list, tuple))
            if len(key) == len(sizes) and not seq:
                table.setdefault(key[:arity] + key[arity + 1:], {})[key[arity]] = frac(v)
            elif len(key) == len(sizes) or not seq or len(v) != sizes[len(key)]:
                what = "%d entries" % len(v) if seq else "a scalar"
                raise DimMismatch("%s at depth %d of values nested %s" % (what, len(key), sizes))
            else:
                for i, w in enumerate(v):
                    walk(w, key + (i,))
        walk(values, ())
        return cls.from_support(table, dim, arity, shape)

    @classmethod
    def from_support(cls, table, dim, arity, shape):
        """The tensor whose nonzero values are those of the sparse ``table``
        {index tuple: sparse value}, in any order; zero entries are dropped
        and every other one is stored by ``scalar``."""
        support = {}
        for key in sorted(table):
            v = table[key]
            v = dict(sorted(v.items())) if len(v) > 1 else dict(v)
            # a zero or an integral Fraction is rare: only then is v rebuilt
            for q in v.values():
                if not q or type(q) is not int and q.denominator == 1:
                    v = {e: scalar(q) for e, q in v.items() if q}
                    break
            if v:
                support[key] = v
        self = object.__new__(cls)
        self.dim, self.arity, self.shape, self.support = dim, arity, shape, support
        return self

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.dim, self.arity, self.shape, self.support) \
            == (other.dim, other.arity, other.shape, other.support)

    def __reduce__(self):
        # copy and pickle rebuild a tensor from its support
        return Tensor.from_support, (self.support, self.dim, self.arity, self.shape)


def contract(t, *slots):
    """The value of the tensor ``t`` with each slot a basis index or a vector.

    One ``pull`` of the support: a basis index s (an int, not a bool) is read
    through the map 1 -> e_s and a vector through ``vector``, each onto the
    one index 0, and a matrix value keeps its column slot.  With no live term
    the result is the zero of the tensor's value shape.  A basis index
    outside 0..dim-1 or a vector of another length is a DimMismatch.
    """
    if len(slots) != t.arity:
        raise DimMismatch("tensor takes %d arguments, got %d" % (t.arity, len(slots)))
    maps = []
    for s in slots:
        if type(s) is int:
            if not 0 <= s < t.dim:
                raise DimMismatch("basis index %d outside 0..%d" % (s, t.dim - 1))
            maps.append(Map((t.dim, 1), [((s, 0), 1)]))
        else:
            maps.append(vector(s, t.dim))
    acc = {}
    pull(acc, 1, t.support, maps)
    return dense({(r, key[-1]) if len(t.shape) == 2 else r: q
                  for key, v in acc.items() for r, q in v.items()}, t.shape)


# ---------------------------------------------------------------------------
# sparse values

def axpy(acc, f, x):
    """acc += f * x on sparse dicts of ints and Fractions, in place, dropping
    entries that cancel; f == 1 adds the entries of x as they are and
    f == -1 their negatives, with no product."""
    if f == 1:
        items = x.items()
    elif f == -1:
        items = ((k, -v) for k, v in x.items())
    elif f:
        items = ((k, f * v) for k, v in x.items())
    else:
        return
    for k, v in items:
        old = acc.get(k)
        if old is None:
            acc[k] = v
        else:
            new = old + v
            if new:
                acc[k] = new
            else:
                del acc[k]


def _sum_into(acc, terms):
    """acc[key] += f * x for each (key, f, x) of ``terms``, on sparse values
    given by their entries x, (row, q) pairs, in place.  With f == 1 the
    entries are copied and with f == -1 negated, so a sign makes no product;
    any other f multiplies them.  An entry that cancels is dropped, and so
    is a value left empty."""
    for key, f, x in terms:
        if f == 1:
            unit = 1
        elif f == -1:
            unit = -1
        elif f:
            unit = 0
        else:
            continue
        v = acc.get(key)
        if v is None:
            v = (dict(x) if unit == 1 else {r: -q for r, q in x} if unit
                 else {r: f * q for r, q in x})
            if v:
                acc[key] = v
            continue
        for r, q in x:
            if unit != 1:
                q = -q if unit else f * q
            old = v.get(r)
            if old is None:
                v[r] = q
            else:
                new = old + q
                if new:
                    v[r] = new
                else:
                    del v[r]
        if not v:
            del acc[key]


def skew_faults(values):
    """The keys of a sparse table {index tuple: sparse value} at which it is
    not antisymmetric in its first two slots, read off the table alone: a key
    faults with its swap when the swap's value is not the negative of its
    own (absent counts as zero), so a diagonal key always faults.  Each
    unordered pair is compared once: a key with i > j only checks that its
    swap is present, and is otherwise compared from the swap."""
    bad = set()
    for key, v in values.items():
        swap = (key[1], key[0]) + key[2:]
        if key[0] > key[1]:
            if v and swap not in values:
                bad.update((key, swap))
            continue
        w = values.get(swap, {})
        if v != dict(zip(w, map(operator.neg, w.values()))):
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


# ---------------------------------------------------------------------------
# equation tables
#
# Every equation is tabulated over all basis tuples at once, as one sparse
# table {index tuple: {row: q}} in which a tuple whose value vanishes is
# absent.  Each signed term is added straight into the equation's table: a
# tensor's support pulled back along the nonzero entries of a linear map, slot
# by slot (``pull``), a table pushed forward through a map (``push``), or one
# support composed into a slot of another (``compose``).  The slots of a term
# are placed at the tuple positions of the equation's arguments.  A term's
# sign is the int 1 or -1, so a product of integral entries stays an int.

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
    """acc += sign * ``values`` with slot p read through the map maps[p] (its
    rows, see ``Map``), or as it is where maps[p] is None, and placed at
    tuple position positions[p] (slot order by default).

    The slots are pulled back one at a time, so that the terms meeting at a
    partly pulled-back key are summed before the next slot multiplies them.
    """
    for p, M in enumerate(maps):
        if M is not None:
            rows, table = M.rows, {}
            _sum_into(table, ((key[:p] + (a,) + key[p + 1:], q, v.items())
                              for key, v in values.items() for a, q in rows.get(key[p], ())))
            values = table
    place = _placement(positions)
    _sum_into(acc, ((place(key) if place else key, sign, v.items())
                    for key, v in values.items()))


def push(acc, sign, M, table):
    """acc += sign * M(table) for the map M: its column y (see ``Map``)
    scaled by the entry at row y of each value."""
    cols = M.cols
    _sum_into(acc, ((key, sign * q, cols[y,].items())
                    for key, v in table.items() for y, q in v.items() if (y,) in cols))


# ---------------------------------------------------------------------------
# truncated polynomials in t
#
# A polynomial map sum_i t^i P_i is the tuple (P_0, P_1, ..), each P_i a
# ``Map`` or None for the identity.  Every t-expansion takes
# its t^s coefficient from one of the two routines below.

@functools.lru_cache(maxsize=1024)
def _degrees(lengths, s):
    """Every (d_0, d_1, ..) with d_p < lengths[p] summing to s, in lexicographic order."""
    if not lengths:
        return ((),) if s == 0 else ()
    return tuple((d,) + rest for d in range(min(s + 1, lengths[0]))
                 for rest in _degrees(lengths[1:], s - d))


def graded(acc, sign, values, polys, s, positions=None):
    """acc += sign * the t^s coefficient of ``values`` with slot p read
    through the polynomial map polys[p] = (P_0, P_1, ..), and placed as by
    ``pull``; polys[p] = None reads slot p as it is, at degree 0 only."""
    polys = [(None,) if P is None else P for P in polys]
    for degrees in _degrees(tuple(map(len, polys)), s):
        pull(acc, sign, values, [P[d] for P, d in zip(polys, degrees)], positions)


def graded_push(acc, sign, poly, tables, s):
    """acc += sign * the t^s coefficient of the polynomial map P(t) = sum_i
    t^i poly[i] applied to the graded table sum_j t^j tables[j], a table None
    standing for the identity's columns (not where poly[i] is None too)."""
    for i, M in enumerate(poly[:s + 1]):
        if s - i < len(tables):
            table = tables[s - i]
            if M is None or table is None:
                pull(acc, sign, M.cols if table is None else table, ())
            else:
                push(acc, sign, M, table)


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
    tables {key: {row: q}} with a matrix value's column in the last slot (see
    ``Tensor``): the key is outer's with slot p replaced by inner's slots,
    then placed as by ``pull``.  The product of two matrix values is the
    composition into the outer one's column slot.  No table of the
    composition itself is formed, and only the outer keys whose slot p is a
    row of inner are indexed: when there are none, nothing meets."""
    met = set().union(*inner.values())
    at = {}
    for key, v in outer.items():
        if key[p] in met:
            at.setdefault(key[p], []).append((key[:p], key[p + 1:], v.items()))
    if not at:
        return
    place = _placement(positions)

    def terms():
        for key, w in inner.items():
            for s, q in w.items():
                if s in at:
                    f = sign * q
                    for head, tail, x in at[s]:
                        k = head + key + tail
                        yield place(k) if place else k, f, x
    _sum_into(acc, terms())


def hom_table(src, dst, M, maps):
    """M(src(e_i, ..)) - dst(..) with slot p of dst read through the map
    maps[p], over the basis tuples of src's slots, for the map M; both
    supports are read as they are, a matrix value's column one more slot
    that maps[-1] reads."""
    acc = {}
    push(acc, 1, M, src.support)
    pull(acc, -1, dst.support, maps)
    return acc


def dense(x, shape):
    """The dense vector or matrix of the given shape with sparse entries x,
    each a Fraction: the form in which every scalar leaves the library."""
    if len(shape) == 1:
        return tuple(frac(x[r]) if r in x else Q0 for r in range(shape[0]))
    return tuple(tuple(frac(x[r, c]) if (r, c) in x else Q0 for c in range(shape[1]))
                 for r in range(shape[0]))


# ---------------------------------------------------------------------------
# elimination
#
# Every rank, kernel, solve and subspace goes through one sparse echelon
# routine, fraction-free: a row is scaled to integers once, by the lcm
# of its denominators, and every row it keeps is primitive, {column: int} with
# content 1 and a positive entry at its pivot, the smallest column it touches.
# A rank, kernel or solve is asked of a ``SparseMat``, which feeds the echelon
# the columns of its matrix (``SparseMat.column_echelon``), for a kernel or a
# solve column c tagged by one more entry at width + c that is never a pivot:
# a column that depends on the earlier ones is left with tags only, its
# dependency on the earlier pivot columns, the canonical kernel vector at
# that free column.  The reduced row echelon basis of a row space is read off
# that kernel (``_row_basis``), and an inverse is n solves.

def _primitive(r):
    """The sparse row ``r`` in place divided by the gcd of its entries."""
    g = math.gcd(*r.values())
    if g != 1:
        for k in r:
            r[k] //= g
    return r


def _integer_row(row):
    """The nonzero entries of a sparse rational row {column: int or Fraction},
    scaled to a primitive integer row; a row of ints is only divided by its gcd."""
    if all(type(v) is int for v in row.values()):
        return _primitive({c: v for c, v in row.items() if v})
    r = {c: v.as_integer_ratio() for c, v in row.items() if v}
    if not r:
        return r
    den = math.lcm(*(d for _, d in r.values()))
    return _primitive({c: n * (den // d) for c, (n, d) in r.items()})


def _eliminate(r, p, c):
    """The primitive integer row a*r - b*p, with a = p[c] and b = r[c] divided
    by their gcd, which has no entry at column c; r may be changed in place."""
    a, b = p[c], r[c]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        r = {k: a * v for k, v in r.items()}
    for k, v in p.items():
        x = r.get(k)
        if x is None:
            r[k] = -b * v
        else:
            x -= b * v
            if x:
                r[k] = x
            else:
                del r[k]
    return _primitive(r) if r else r


class Echelon:
    """Incremental sparse row echelon form over Q, on primitive integer rows.

    ``insert`` adds a sparse row {col: int or Fraction} and reports whether
    it was independent of the rows before it.  Columns from ``width`` on are
    tags, never pivots; a row left with tags only is kept for ``kernel``.
    """

    def __init__(self, rows=(), width=None):
        self.width = width
        self._rows = {}            # pivot column -> primitive row, row[pivot] > 0
        self._deps = []            # the rows inserted as dependent, tags only
        for row in rows:
            self.insert(row)

    def copy(self):
        """An independent echelon of the same rows; stored rows are never
        changed in place, so they are shared."""
        new = Echelon(width=self.width)
        new._rows, new._deps = dict(self._rows), list(self._deps)
        return new

    @property
    def rank(self):
        return len(self._rows)

    def reduce(self, row):
        """What is left of ``row`` after eliminating its leading entries, as an
        integer row defined up to a nonzero factor.

        The result is empty exactly when the row lies in the span.
        """
        r = _integer_row(row)
        stored = self._rows
        while r:
            c = min(r)
            p = stored.get(c)
            if p is None:
                break
            r = _eliminate(r, p, c)
        return r

    def insert(self, row):
        """Add a row; True when it was independent of the rows before it."""
        r = self.reduce(row)
        if not r:
            return False
        c = min(r)
        if self.width is not None and c >= self.width:
            self._deps.append(r)
            return False
        self._rows[c] = r if r[c] > 0 else {k: -v for k, v in r.items()}
        return True

    def kernel(self):
        """The tags of each dependent row, in order, as {tag - width: q} with
        1 at its own tag, the largest."""
        return [self._dependency(r) for r in self._deps]

    def _dependency(self, r):
        w, d = self.width, r[max(r)]
        return {k - w: Fraction(v, d) for k, v in r.items()}


def rref(rows):
    """Reduced row echelon form of the dense rows (``mat``). Returns (rows,
    pivot column list)."""
    M = mat(rows)
    nr, nc = M.shape
    basis = _row_basis(M)
    red = _dense_rows(basis, nc)
    return red + ((Q0,) * nc,) * (nr - len(red)), [p for p, _ in basis]


def _indices_below(vec, n):
    """Whether every key of the sparse vector ``vec`` is an int in 0..n-1 (a bool is not)."""
    return all(type(i) is int and 0 <= i < n for i in vec)


class SparseMat:
    """A rows x cols rational matrix S (x) I_k, k = ``copies``, stored by the
    columns of its factor S: ``factor[j]`` = {row: value} over the nonzero
    entries of column j of S, each value an int or a Fraction.  Column
    j k + r of the matrix is column j of S placed on the rows b k + r, so a
    matrix with k = 1 is S itself.  ``column``, ``columns``, ``apply`` and
    ``data`` give the entries of the whole matrix, built on each read.
    Built from ``data``, anything ``mat`` reads of that shape (a Map, the
    sparse entries {(r, c): literal} or the dense rows), or inside the
    library from columns of stored scalars by ``from_columns``.

    Every rank, kernel and solve asks its matrix.  A matrix is never changed
    once built, so one echelon of the columns of S is built when first needed
    and kept (``column_echelon``): without tags for ``rank`` alone, and with
    tags the first time ``nullspace`` or ``solve`` asks, which every later
    question reads.  Everything else is read off it: the rank is k rank(S);
    the kernel vector at the free column j k + r is S's at j placed on the
    columns i k + r, since S (x) e_r is a copy of S on its own rows; and a
    solve splits b by the residue r of its rows and solves each part
    against S."""

    def __init__(self, rows, cols, data=None):
        M = mat({} if data is None else data, (rows, cols))
        self.rows, self.cols, self.copies, self._ech = rows, cols, 1, None
        self.factor = [M.cols.get((c,), {}) for c in range(cols)]

    @classmethod
    def from_columns(cls, rows, columns, copies=1):
        """The matrix S (x) I_copies for the rows x len(columns) matrix S whose
        column c is the sparse ``columns[c]`` of stored scalars, taken as it is."""
        self = cls.__new__(cls)
        self.rows, self.cols, self.copies = rows * copies, len(columns) * copies, copies
        self.factor, self._ech = columns, None
        return self

    def _spread(self, vec, r):
        """A sparse vector on the rows or columns of S, placed in copy r."""
        k = self.copies
        return vec if k == 1 else {i * k + r: q for i, q in vec.items()}

    def expand(self, vectors):
        """Each sparse vector on the rows or columns of S in every copy,
        copies innermost."""
        return [self._spread(v, r) for v in vectors for r in range(self.copies)]

    def column(self, c):
        j, r = divmod(c, self.copies)
        return self._spread(self.factor[j], r)

    @property
    def columns(self):
        return self.expand(self.factor)

    @property
    def data(self):
        return {(r, c): v for c, col in enumerate(self.columns) for r, v in col.items()}

    def apply(self, vec):
        """The product with a sparse vector {col: q}, each q read by
        ``rational``, as a sparse vector {row: q}; a key that is no column
        index is a ShapeMismatch."""
        if not _indices_below(vec, self.cols):
            raise ShapeMismatch("vector index outside the %d columns" % self.cols)
        out = {}
        for c, x in vec.items():
            axpy(out, rational(x), self.column(c))
        return out

    def nonzero_rows(self):
        """The nonzero rows, in order, as dense tuples."""
        columns = self.columns
        return [tuple(frac(col[r]) if r in col else Q0 for col in columns)
                for r in sorted(set().union(*columns))]

    def column_echelon(self, tags=False):
        """The echelon of the columns of S, rows below ``width`` = its row
        count, tagged if ``tags`` asks or it was built so: column c then
        carries the tag width + c, so that ``kernel`` gives one vector per
        free column, in order, the canonical kernel basis of S."""
        if self._ech is None or tags and self._ech.width is None:
            width = self.rows // self.copies
            self._ech = Echelon(({**col, width + c: 1} for c, col in enumerate(self.factor)),
                                width) if tags else Echelon(col for col in self.factor if col)
        return self._ech

    def rank(self):
        return self.copies * self.column_echelon().rank

    def nullity(self):
        return self.cols - self.rank()

    def nullspace(self):
        """The canonical kernel basis, one sparse vector {col: q} per free column."""
        return self.expand(self.column_echelon(tags=True).kernel())

    def solve(self, b):
        """Some x with self . x = b for a sparse b {row: q}, each q read by
        ``rational``, free coordinates 0: for each copy, the kernel vector of
        [S | b's part] at that part, negated.  Raises Inconsistent, with the
        ranks of the matrix without and with b, or ShapeMismatch for a key
        that is no row index."""
        ech, k, ncols = self.column_echelon(tags=True), self.copies, len(self.factor)
        if not _indices_below(b, self.rows):
            raise ShapeMismatch("right-hand side index outside the %d rows" % self.rows)
        w = ech.width
        parts = [{w + ncols: 1} for _ in range(k)]
        for i, q in b.items():
            parts[i % k][i // k] = rational(q)
        xs = []
        for part in parts:
            r = ech.reduce(part)
            if min(r) < w:
                rank = self.rank()
                raise Inconsistent("rhs outside column space", rank, rank + 1)
            x = ech._dependency(r)
            xs.append([-x.get(c, Q0) for c in range(ncols)])
        return tuple(q for qs in zip(*xs) for q in qs)


def solve(rows, b, ncols=None):
    """Some x with rows . x = b (dense or sparse {row: q}), free coordinates
    0 (``SparseMat.solve``); raises Inconsistent, with the ranks of the rows
    without and with b, when there is none.  Sparse rows need ``ncols``.
    Every entry is read by ``rational``; a row that is not a list, tuple or
    dict, a dense row of another length, or a sparse one with an index
    outside the columns, is a ShapeMismatch.
    """
    if not isinstance(b, dict):
        if len(b) != len(rows):
            raise DimMismatch("rhs length %d != %d rows" % (len(b), len(rows)))
        b = dict(enumerate(b))
    data = {}
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple, dict)):
            raise ShapeMismatch("row %d is not a list, tuple or dict" % i)
        if ncols is None:
            ncols = len(row)
        if not isinstance(row, dict):
            if len(row) != ncols:
                raise ShapeMismatch("row %d has %d entries, not %d" % (i, len(row), ncols))
            row = dict(enumerate(row))
        elif not _indices_below(row, ncols):
            raise ShapeMismatch("row %d has an entry outside the %d columns" % (i, ncols))
        data.update(((i, c), q) for c, q in row.items())
    return SparseMat(len(rows), ncols or 0, data).solve(b)


def invert(M):
    """The inverse of the square map M (``mat``), as a Map: its column i
    solves M x = e_i.  NotInvertible when M is singular."""
    M = mat(M)
    n = M.shape[0]
    if M.shape != (n, n):
        raise DimMismatch("inverse needs a square matrix")
    S = SparseMat(n, n, M)
    try:
        columns = {(i,): dict(enumerate(S.solve({i: 1}))) for i in range(n)}
    except Inconsistent:
        raise NotInvertible("matrix is singular") from None
    return Map.from_columns(columns, (n, n))


def _row_basis(M):
    """The reduced row echelon basis of the rows of the Map M, as (pivot,
    {col: Fraction}) pairs, pivots ascending, read off the canonical kernel.
    Column j is a pivot exactly when it does not depend on the columns
    before it; a free column f is sum_p a_p (pivot column p), its kernel
    vector 1 at f, the largest key, and -a_p at each pivot p < f, and row p
    holds a_p at f."""
    kernel = [(max(v), v) for v in SparseMat(*M.shape, M).nullspace()]
    free = {f for f, _ in kernel}
    rows = {p: {p: Q1} for p in range(M.shape[1]) if p not in free}
    for f, v in kernel:
        for p, q in v.items():
            if p != f:
                rows[p][f] = -q
    return list(rows.items())


def _dense_rows(basis, n):
    """The rows of a ``_row_basis`` as dense rows of length n."""
    return tuple(tuple(row.get(c, Q0) for c in range(n)) for _, row in basis)


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of Q^n in canonical (reduced echelon) basis, spanned by
    vectors that are lists or tuples of n ``rational`` literals.

    Two equal subspaces always store bit-identical bases, whatever spanning
    set they were built from.
    """

    def __init__(self, ambient_dim, spanning=()):
        self.ambient_dim = ambient_dim
        spanning = list(spanning)
        for v in spanning:
            if isinstance(v, (list, tuple)) and len(v) != ambient_dim:
                raise AmbientMismatch("vector length %d in ambient %d" % (len(v), ambient_dim))
        M = mat(spanning, (len(spanning), ambient_dim),
                "each of %d spanning vectors must be a list or tuple of %d entries")
        self.basis = _dense_rows(_row_basis(M), ambient_dim)

    @property
    def dim(self):
        return len(self.basis)

    def intersect(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambients %d vs %d" % (self.ambient_dim, other.ambient_dim))
        n = self.ambient_dim
        # Zassenhaus: the rows (u | u) and (w | 0) reduce to (0 | x) exactly for
        # x in the intersection
        rows = [u + u for u in self.basis] + [w + (Q0,) * n for w in other.basis]
        return Subspace(n, [tuple(row.get(n + c, Q0) for c in range(n))
                            for pc, row in _row_basis(mat(rows, (len(rows), 2 * n))) if pc >= n])

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
