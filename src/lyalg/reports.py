"""Pass/fail reports with equation witnesses.

Every check tabulates each equation as one sparse table {args: residual} over
the basis tuples, often a signed sum of compositions of supports (``summed``),
and hands its tables group by group to ``Checker.tabulate``, the one way a
witness is recorded: it records the nonzero residuals in a fixed order and
reads no further group once a capped report is settled, so groups that come
from a generator, such as ``reps.check_action``'s one group per table, are
not built after that.  A sub-check's witnesses come in through
``Checker.include``.

A check returns a ``Report``: a subject, a verdict ("pass" or "fail"), the
witnesses as ``Violation`` records (equation, basis tuple, residual) in the
order recorded, and a dict of data; ``to_dict`` and ``pretty`` give its JSON
and text forms.  Both classes compare field by field.
"""

from collections import namedtuple

from .linalg import dense, format_frac, signed_sum

DEFAULT_CAP = 10


class Violation(namedtuple("Violation", "eq args residual")):
    """The equation ``eq`` (e.g. "LY3") fails at the basis tuple ``args`` by the
    left-minus-right ``residual``: a vector, or a matrix for operator equations."""
    __slots__ = ()

    def to_dict(self):
        return {"eq": self.eq, "args": list(self.args), "residual": _ser(self.residual)}


def _ser(x):
    if isinstance(x, tuple) and x and isinstance(x[0], tuple):
        return [[format_frac(v) for v in row] for row in x]
    return [format_frac(v) for v in x]


class Report:
    def __init__(self, subject, verdict="pass", violations=None, data=None):
        self.subject, self.verdict = subject, verdict   # verdict: "pass" | "fail"
        self.violations = [] if violations is None else violations
        self.data = {} if data is None else data

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is Report else NotImplemented

    def __repr__(self):
        return "Report(%s)" % ", ".join("%s=%r" % kv for kv in vars(self).items())

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_dict(self):
        return {
            "subject": self.subject,
            "verdict": self.verdict,
            "violations": [v.to_dict() for v in self.violations],
            "data": self.data,
        }

    def pretty(self):
        lines = ["%s: %s" % (self.subject, self.verdict.upper())]
        for v in self.violations:
            lines.append("  %s at %s: residual %s" % (v.eq, v.args, _ser(v.residual)))
        for k in sorted(self.data):
            lines.append("  %s: %s" % (k, self.data[k]))
        return "\n".join(lines)


class Checker:
    """Collects violations, capping the witness list at ``DEFAULT_CAP`` unless
    asked not to."""

    def __init__(self, subject, all_violations=False):
        self.subject = subject
        self.all_violations = all_violations
        self.violations = []
        self._saturated = False

    def _record(self, eq, args, residual):
        if not self._saturated:
            self.violations.append(Violation(eq, tuple(args), residual))
            if not self.all_violations and len(self.violations) >= DEFAULT_CAP:
                self._saturated = True

    def include(self, prefix, report):
        """Record the violations of a sub-check's ``report`` in its order, each
        equation named with ``prefix``, up to the cap."""
        for v in report.violations:
            self._record(prefix + v.eq, v.args, v.residual)

    def tabulate(self, shape, groups):
        """Record the nonzero residuals of each group of (name, table[, order])
        in ``groups``, a table being {key: {row: q}} of ``shape`` (see
        ``linalg.signed_sum``); a matrix value's column is the last slot of
        its key, and its witness tuple is the key without it.  In a group,
        witnesses come sorted by ``order(args)``, the tuple itself when no
        order is given, so a tuple comes before its extensions; where the
        order ties, by table in the order of the group, then by key.  A
        matrix residual is gathered only for a recorded witness.  ``groups``
        is read one group at a time and never again once the report is
        settled, so a generator of groups builds no table after that."""
        if self._saturated:
            return
        cut = -1 if len(shape) == 2 else None
        for group in groups:
            live = {(eq[2](args) if len(eq) > 2 else args, e, args)
                    for e, eq in enumerate(group) for args in (key[:cut] for key in eq[1])}
            for _, e, args in sorted(live):
                name, values = group[e][:2]
                if cut is None:
                    v = values[args]
                else:
                    v = {(r, c): q for c in range(shape[1])
                         for r, q in values.get(args + (c,), {}).items()}
                self._record(name, args, dense(v, shape))
                if self._saturated:
                    return

    def report(self, data=None):
        return Report(self.subject,
                      "fail" if self.violations else "pass",
                      self.violations,
                      dict(data or {}))


def summed(*groups):
    """Each group of (name, terms[, order]) as a group for ``Checker.tabulate``,
    an equation's table the ``linalg.signed_sum`` of its terms; a group's
    tables are built when the group is read."""
    for group in groups:
        yield [(name, signed_sum(terms), *order) for name, terms, *order in group]
