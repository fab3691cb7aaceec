"""Pass/fail reports with equation witnesses."""

from dataclasses import dataclass, field

from .linalg import Terms, dense, format_frac

DEFAULT_CAP = 10


@dataclass
class Violation:
    eq: str           # equation identifier, e.g. "LY3"
    args: tuple       # witness basis tuple (indices)
    residual: tuple   # left-minus-right value: vector, or matrix for operator equations

    def to_dict(self):
        return {"eq": self.eq, "args": list(self.args), "residual": _ser(self.residual)}


def _ser(x):
    if isinstance(x, tuple) and x and isinstance(x[0], tuple):
        return [[format_frac(v) for v in row] for row in x]
    return [format_frac(v) for v in x]


@dataclass
class Report:
    subject: str
    verdict: str = "pass"                 # "pass" | "fail"
    violations: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

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
    """Collects violations, capping the witness list unless asked not to."""

    def __init__(self, subject, all_violations=False, cap=DEFAULT_CAP):
        self.subject = subject
        self.all_violations = all_violations
        self.cap = cap
        self.violations = []
        self._saturated = False

    def record(self, eq, args, residual):
        if not self._saturated:
            self.violations.append(Violation(eq, tuple(args), residual))
            if not self.all_violations and len(self.violations) >= self.cap:
                self._saturated = True

    @property
    def done(self):
        """True once further scanning cannot change the report."""
        return self._saturated

    def scan(self, live):
        """The distinct items of ``live`` in sorted order, ending as soon as the
        report is settled, so a capped check stops at its tenth witness.

        ``live`` is read only when the scan starts, so a generator passed here
        is never run once the report is settled.
        """
        if self._saturated:
            return
        for t in sorted(set(live)):
            if self._saturated:
                return
            yield t

    def equations(self, dim, shape, equations):
        """Check each (name, terms[, order]) of ``equations`` at the basis
        tuples over range(dim), as many positions as its terms read.

        ``terms`` is a signed sum as in ``linalg.Terms`` with values of
        ``shape``.  Only tuples where some term is live are visited: at any
        other tuple every term has a zero factor, so the residual is zero.
        Witnesses come sorted by ``order(args)`` (the tuple itself when no
        order is given), a tuple before its extensions, and at one key in
        list order.
        """
        terms = Terms(dim)
        live = ((eq[2](args) if len(eq) > 2 else args, e, args)
                for e, eq in enumerate(equations) for args in terms.live(eq[1]))
        for _, e, args in self.scan(live):
            acc = terms.residual(equations[e][1], args)
            if acc:
                self.record(equations[e][0], args, dense(acc, shape))

    def table(self, shape, *named):
        """Record each (name, values) of ``named`` at every tuple of its sparse
        table {args: sparse value} (see ``linalg.pull``), tuples in
        lexicographic order, a tuple before its extensions, and at one tuple
        in argument order."""
        live = ((args, e) for e, (_, values) in enumerate(named) for args in values)
        for args, e in self.scan(live):
            name, values = named[e]
            self.record(name, args, dense(values[args], shape))

    def report(self, data=None):
        return Report(self.subject,
                      "fail" if self.violations else "pass",
                      self.violations,
                      dict(data or {}))
