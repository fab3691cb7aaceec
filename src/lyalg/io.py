"""JSON file formats.

Algebra files carry sparse structure constants as index tuples with a rational
value:

    {"name": "...", "dim": 4, "basis": ["e1", ...],
     "binary":  [[i, j, k, "p/q"], ...],      # coefficient of e_k in [e_i, e_j]
     "ternary": [[i, j, k, l, "p/q"], ...]}   # coefficient of e_l in <e_i,e_j,e_k>

Indices are 0-based.  The entries are read straight into each tensor's
support (``linalg.Tensor.from_support``); entries at one place add up.  The
keys a file carries, and which of them are antisymmetric in their first two
slots, are its class's ``OPERATIONS`` (``core.set_operations``), which one
reader (``_Load.structure``) and one writer (``dump_structure``) follow.  An
antisymmetric tensor (binary; ternary in its first two slots; a
post-algebra's dot and angle) may list either orientation; the missing one is
filled in, an entry listed with the value "0" counting as listed, and the
first fault ``linalg.skew_faults`` finds, both orientations listed with
inconsistent values or a nonzero value with i = j, is an error.
Representation files are

    {"acting": <inline algebra or file path>, "carrier": ...,
     "rho": [matrix, ...], "mu": [[matrix, ...], ...]}

with matrices as row-major arrays of rationals; operator files are
{"action": ..., "T": matrix}; post-algebra files replace binary/ternary with
the four keys dot/star/angle/brace.  A file with the other kind's keys is a
FormatError naming the key, so a post-algebra is never read as a zero
algebra or the reverse; a file with none of its own keys is the zero
structure.  File references resolve relative to the referencing file's
directory.

Every input is read once, straight into the form the library uses, in one
pass over each entry list and matrix.  A matrix is read once, straight into
the ``linalg.Map`` of its nonzero entries, the Map ``linalg.mat`` (the API's
entry for a linear map) builds from them, with no dense matrix between: a row
of "0" strings is skipped whole by one ``list.count``, any other literal zero
(the JSON int 0 or the string "0") without a parse, and a matrix's location in
an error (``action.mu[i][j]``) is formatted only when an error names it.  rho
and mu become tensors through ``Tensor.from_support`` from each matrix's
column table (``Map.cols``), column c of the matrix at (i, ..) stored at
(i, .., c); every other matrix (T, N, a homomorphism's matrix,
``load_matrix``) is handed on as that Map.  A JSON int is stored as it is,
and every other literal is read by ``linalg.rational``, the reader of the
library's API, into the form a support stores (``linalg.scalar``: an int when
it is integral); within one top-level load each distinct string is read once.
Two references to one algebra (the same file by absolute path, or equal
inline objects, such as an adjoint action's acting and carrier) load and
verify one ``LYAlgebra``, used in both slots.  Nothing is kept from one load
to the next.

A rational is an integer, a string "p/q" or a decimal string such as "0.5".
A string with more than ``linalg.MAX_DECIMAL_DIGITS`` digits in all, or an
exponent larger than that in size, is refused by ``linalg.rational`` before
it is read, and is a FormatError here.  An error quotes a literal over 40
characters by its head, an ellipsis and its length.  A JSON float
is read as its shortest decimal string, so 0.1 is 1/10, not the binary double
nearest to it; NaN, Infinity and floats out of range (1e400) are a
FormatError.  JSON booleans are never read as numbers: as an index, a dim or
a rational they are a FormatError.  A container of the wrong type (an entry
list, a name, a wedge vector) is a FormatError too.  So is a file that cannot
be decoded: bytes that are not UTF-8, invalid JSON, an integer literal over
CPython's 4300-digit limit, or nesting deeper than the interpreter's
recursion limit; each names the file, and the CLI exits with 2.
"""

import json
import os
from operator import neg

from .core import LYAlgebra
from .errors import FormatError, TooLarge
from .linalg import Map, Tensor, format_frac, mat, rational, skew_faults
from .postlya import PostLYAlgebra
from .reps import RepAction
from .rrb import RRBOperator


def _path(source, base_dir):
    return source if os.path.isabs(source) else os.path.join(base_dir or ".", source)


def _load_doc(source, base_dir, where):
    """Return (dict, directory for nested references); ``where`` names the
    field or file that gave ``source`` when it is neither."""
    if isinstance(source, dict):
        return source, base_dir
    if isinstance(source, str):
        path = _path(source, base_dir)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as e:
            raise FormatError("cannot read %s: %s" % (path, e)) from e
        except UnicodeDecodeError as e:
            raise FormatError("%s: not UTF-8: %s" % (path, e)) from e
        except ValueError as e:  # a JSONDecodeError, or an int over CPython's digit limit
            raise FormatError("%s: invalid JSON: %s" % (path, e)) from e
        except RecursionError as e:
            raise FormatError("%s: invalid JSON: nested too deeply" % path) from e
        if not isinstance(doc, dict):
            raise FormatError("%s: top level must be an object" % path)
        return doc, os.path.dirname(os.path.abspath(path))
    raise FormatError("%s: expected an object or a file path, got %r"
                      % (where, type(source).__name__))


def _field(doc, key, where):
    if key not in doc:
        raise FormatError("%s: missing field %r" % (where, key))
    return doc[key]


def _at(where):
    """An error location: a string, or a format and its arguments, formatted
    only when an error names it."""
    return where if isinstance(where, str) else where[0] % where[1:]


def _quote(v):
    """repr(v), or for a string over 40 characters its head, an ellipsis and
    its length, so that an error line stays short."""
    return "%r... (%d characters)" % (v[:40], len(v)) if isinstance(v, str) and len(v) > 40 \
        else repr(v)


def _read_sparse(entries, dim, arity, where, antisym, read):
    """The tensor of vector values listed by ``entries``, [i, .., value] with
    ``arity`` indices before the row, each value read by ``read``.
    Entries at one place add up.  With ``antisym`` a tensor antisymmetric in
    its first two slots is completed from either orientation, an entry
    counting as listed even when its value is zero, and the first fault
    (``linalg.skew_faults``) in lexicographic order is reported."""
    if entries is None:
        entries = []
    if not isinstance(entries, list):
        raise FormatError("%s: entries must be a list" % where)
    table, size = {}, arity + 2
    for ent in entries:
        if not isinstance(ent, list) or len(ent) != size:
            raise FormatError("%s: entries must be [%s, value]"
                              % (where, ", ".join("ijkl"[:arity + 1])))
        for i in ent[:-1]:
            if type(i) is not int and not _is_int(i) or not 0 <= i < dim:
                raise FormatError("%s: index %r out of range 0..%d" % (where, i, dim - 1))
        key, row, q = tuple(ent[:arity]), ent[arity], read(ent[-1], where)
        v = table.get(key)
        if v is None:
            table[key] = {row: q}
        else:
            v[row] = v[row] + q if row in v else q
    # only a key listed in both orientations, or on the diagonal, can fault
    twice = False
    if antisym:
        for key, v in list(table.items()):
            swap = (key[1], key[0]) + key[2:]
            if swap in table:
                twice = True
            else:
                table[swap] = dict(zip(v, map(neg, v.values())))
    t = Tensor.from_support(table, dim, arity, (dim,))
    faults = twice and skew_faults(t.support)
    if faults:
        # each key with i <= j sorts before its swap
        key = min(faults)
        raise FormatError(("%s: diagonal entry %s must vanish" if key[0] == key[1]
                           else "%s: entries at %s break antisymmetry") % (where, key))
    return t


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


# The most coefficients a dense ternary structure tensor, dim^4 of them, may
# hold: dim 32 is admitted and dim 33 is not.  Loading reads only the listed
# entries and a tensor holds only its support, but the downstream layouts
# (semidirect sums, cochain spaces) grow with dim alone, so a file of a few
# bytes could otherwise ask for any amount of memory.
MAX_TENSOR_COEFFICIENTS = 2 ** 20


def _read_dim(doc, name):
    dim = _field(doc, "dim", name)
    if not _is_int(dim) or dim < 0:
        raise FormatError("%s: dim must be a non-negative integer" % name)
    if dim ** 4 > MAX_TENSOR_COEFFICIENTS:
        raise TooLarge("%s: dim %d needs %d ternary coefficients, over the budget of %d"
                       % (name, dim, dim ** 4, MAX_TENSOR_COEFFICIENTS))
    return dim


def _read_basis(doc, dim, name):
    """The optional basis labels: a list of ``dim`` strings."""
    basis = doc.get("basis")
    if basis is None:
        return None
    if not isinstance(basis, list) or len(basis) != dim \
            or not all(isinstance(b, str) for b in basis):
        raise FormatError("%s: basis must be a list of %d strings" % (name, dim))
    return basis


def _read_name(doc, default):
    name = doc.get("name", default)
    if not isinstance(name, str):
        raise FormatError("%s: name must be a string" % default)
    return name


# the structures a file may hold, each with the article its kind takes
_STRUCTURES = ((LYAlgebra, "an"), (PostLYAlgebra, "a"))


def _same(a, b):
    """Equal JSON values of equal types at every level (1, 1.0 and true differ)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


class _Load:
    """The state of one top-level load: the string rationals read so far,
    and the algebras loaded so far, keyed by their absolute path or their
    inline object."""

    def __init__(self):
        self.scalars = {}
        self.algebras = []

    def rational(self, v, where):
        """The stored scalar of the JSON value ``v`` (``linalg.rational``), a
        float read as its shortest decimal string and each distinct string
        once per load; a value it refuses is a FormatError naming ``where``
        (``_at``)."""
        if type(v) is int:
            return v
        q = self.scalars.get(v) if type(v) is str else None
        if q is None:
            try:
                q = rational(str(v) if isinstance(v, float) else v)
            except TooLarge as e:
                raise FormatError("%s: bad rational %s: %s" % (_at(where), _quote(v), e)) from e
            except (ValueError, ZeroDivisionError) as e:
                raise FormatError("%s: bad rational %s" % (_at(where), _quote(v))) from e
            if type(v) is str:
                self.scalars[v] = q
        return q

    def structure(self, cls, source, base_dir, where):
        """The ``cls`` (an algebra or a post-algebra) of a file, each of its
        ``OPERATIONS`` read from the entry list under its key.  A file
        carrying another structure's key is refused."""
        doc, here = _load_doc(source, base_dir, where)
        name = _read_name(doc, cls.KIND)
        for other, article in _STRUCTURES:
            for key, _, _ in other.OPERATIONS if other is not cls else ():
                if key in doc:
                    raise FormatError("%s: %r is a key of %s %s file"
                                      % (name, key, article, other.KIND))
        dim = _read_dim(doc, name)
        values = [_read_sparse(doc.get(key), dim, arity, "%s.%s" % (name, key), skew,
                               self.rational) for key, arity, skew in cls.OPERATIONS]
        return cls(dim, *values, basis=_read_basis(doc, dim, name), name=name)

    def algebra(self, source, base_dir, where):
        key = os.path.abspath(_path(source, base_dir)) if isinstance(source, str) else source
        for k, A in self.algebras:
            if _same(k, key):
                return A
        A = self.structure(LYAlgebra, source, base_dir, where)
        self.algebras.append((key, A))
        return A

    def action(self, source, base_dir, where, certify=True):
        doc, here = _load_doc(source, base_dir, where)
        acting = self.algebra(_field(doc, "acting", "action"), here, "action.acting")
        carrier = self.algebra(_field(doc, "carrier", "action"), here, "action.carrier")
        n, m = acting.dim, carrier.dim
        rho_doc = _field(doc, "rho", "action")
        mu_doc = _field(doc, "mu", "action")
        if not isinstance(rho_doc, list) or len(rho_doc) != n:
            raise FormatError("action.rho: need %d matrices" % n)
        if not isinstance(mu_doc, list) or len(mu_doc) != n \
                or any(not isinstance(row, list) or len(row) != n for row in mu_doc):
            raise FormatError("action.mu: need a %dx%d array of matrices" % (n, n))
        # column c of the matrix at (i, ..) is the value at (i, .., c)
        rho = {(i,) + c: v for i, mx in enumerate(rho_doc)
               for c, v in self.matrix(mx, ("action.rho[%d]", i), m, m).cols.items()}
        mu = {(i, j) + c: v for i in range(n) for j in range(n) for c, v in
              self.matrix(mu_doc[i][j], ("action.mu[%d][%d]", i, j), m, m).cols.items()}
        acting.ensure_verified()
        carrier.ensure_verified()
        r = RepAction(acting, carrier, Tensor.from_support(rho, n, 1, (m, m)),
                      Tensor.from_support(mu, n, 2, (m, m)))
        if certify:
            r.ensure_action()
        return r

    def matrix(self, rows, where, nr=None, nc=None):
        """The ``linalg.Map`` of a row-major array of rationals, its nonzero
        entries in row-major order.  A ragged row is reported before a wrong
        size, and the first bad entry in row-major order; a row of "0" strings is skipped
        whole, and any other literal zero, the JSON int 0 or the string "0",
        without a parse.  ``where`` is the location (``_at``) an error names."""
        if not isinstance(rows, list) or not rows \
                or not all(isinstance(r, list) for r in rows):
            raise FormatError("%s: matrix must be a non-empty array of rows" % _at(where))
        width = len(rows[0])
        rational, entries = self.rational, []
        for r, row in enumerate(rows):
            if len(row) != width:
                raise FormatError("%s: ragged matrix" % _at(where))
            if row.count("0") == width:
                continue
            for c, v in enumerate(row):
                if v == "0" or type(v) is int and v == 0:
                    continue
                q = rational(v, where)
                if q:
                    entries.append(((r, c), q))
        if nr is not None and len(rows) != nr or nc is not None and width != nc:
            raise FormatError("%s: matrix must be %sx%s" % (_at(where), nr, nc))
        return Map((len(rows), width), entries)


def load_algebra(source, base_dir=None):
    return _Load().algebra(source, base_dir, "algebra")


def load_action(source, base_dir=None, certify=True):
    return _Load().action(source, base_dir, "action", certify)


def load_operator(source, base_dir=None):
    ld = _Load()
    doc, here = _load_doc(source, base_dir, "operator")
    action = ld.action(_field(doc, "action", "operator"), here, "operator.action")
    T = ld.matrix(_field(doc, "T", "operator"), "operator.T", action.acting.dim,
                  action.carrier.dim)
    return RRBOperator(action, T)


def load_post(source, base_dir=None):
    return _Load().structure(PostLYAlgebra, source, base_dir, "post-algebra")


def load_matrix(source, base_dir=None):
    doc, here = _load_doc(source, base_dir, "matrix file")
    return _Load().matrix(_field(doc, "matrix", "matrix file"), "matrix")


def load_homomorphism(source, base_dir=None):
    ld = _Load()
    doc, here = _load_doc(source, base_dir, "homomorphism")
    src = ld.algebra(_field(doc, "from", "homomorphism"), here, "homomorphism.from")
    dst = ld.algebra(_field(doc, "to", "homomorphism"), here, "homomorphism.to")
    mx = ld.matrix(_field(doc, "matrix", "homomorphism"), "homomorphism.matrix", dst.dim,
                   src.dim)
    return src, dst, mx


def load_nijenhuis(source, base_dir=None):
    ld = _Load()
    doc, here = _load_doc(source, base_dir, "nijenhuis file")
    A = ld.algebra(_field(doc, "algebra", "nijenhuis file"), here, "nijenhuis file.algebra")
    N = ld.matrix(_field(doc, "N", "nijenhuis file"), "N", A.dim, A.dim)
    return A, N


def load_wedges(source, base_dir=None):
    """{"wedges": [[vector, vector], ...]} with rational-string vectors, each
    read as an n x 1 ``linalg.Map``, the form ``linalg.vector`` takes."""
    rational = _Load().rational
    doc, here = _load_doc(source, base_dir, "wedge file")
    wedges = _field(doc, "wedges", "wedge file")
    if not isinstance(wedges, list):
        raise FormatError("wedge file: wedges must be a list of pairs of vectors")
    out = []
    for i, pair in enumerate(wedges):
        if not isinstance(pair, list) or len(pair) != 2 \
                or not all(isinstance(v, list) for v in pair):
            raise FormatError("wedges[%d]: expected a pair of vectors" % i)
        x, y = (Map((len(vec), 1), [((c, 0), q) for c, q in enumerate(
            rational(v, "wedges[%d]" % i) for v in vec) if q]) for vec in pair)
        if x.shape != y.shape:
            raise FormatError("wedges[%d]: vectors of unequal length" % i)
        out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# writers

def _dump_sparse(t, antisym):
    """The entries [i, .., row, value] of the tensor ``t``, in lexicographic
    order; with ``antisym`` only the orientations i < j."""
    return [list(key) + [r, format_frac(q)] for key, v in t.support.items()
            if not antisym or key[0] < key[1] for r, q in v.items()]


def dump_structure(S):
    """The file of an algebra or a post-algebra, each of its ``OPERATIONS``
    under its key."""
    doc = {"name": S.name, "dim": S.dim, "basis": list(S.basis)}
    for key, _, skew in S.OPERATIONS:
        doc[key] = _dump_sparse(getattr(S, key), skew)
    return doc


def dump_matrix(mx):
    """The rows of a map, or of anything ``linalg.mat`` reads, as "p/q" strings."""
    return [[format_frac(v) for v in row] for row in mat(mx).dense()]


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
