"""Pass/fail reports with equation witnesses."""

import itertools
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

    def tuples(self, n, k):
        """Basis index k-tuples over range(n) in lexicographic order.

        The scan ends as soon as the report is settled, so a capped check stops
        at its tenth witness instead of finishing every loop.
        """
        for t in itertools.product(range(n), repeat=k):
            if self._saturated:
                return
            yield t

    def scan(self, live):
        """The distinct tuples of ``live`` in lexicographic order, the order of
        ``tuples``, ending as soon as the report is settled.

        ``live`` is read only when the scan starts, so a generator passed here
        is never run once the report is settled.
        """
        if self._saturated:
            return
        for t in sorted(set(live)):
            if self._saturated:
                return
            yield t

    def equations(self, arity, shape, equations):
        """Check each (name, terms) of ``equations`` at the basis ``arity``-tuples,
        tuples in lexicographic order and, at one tuple, names in list order.

        ``terms`` is a signed sum as in ``linalg.Terms`` with values of
        ``shape``.  Only tuples where some term is live are visited: at any
        other tuple every term has a zero factor, so the residual is zero.
        """
        terms = Terms()
        live = (t for _, ts in equations for t in terms.live(ts, arity))
        for args in self.scan(live):
            for name, ts in equations:
                acc = terms.residual(ts, args)
                if acc:
                    self.record(name, args, dense(acc, shape))

    def table(self, eq, values, shape):
        """Record ``eq`` at each tuple of a sparse table {args: sparse value}
        (see ``linalg.sparse_values``), tuples in the order of ``tuples``."""
        for args in self.scan(values):
            self.record(eq, args, dense(values[args], shape))

    @property
    def failed(self):
        return bool(self.violations)

    def report(self, data=None):
        return Report(self.subject,
                      "fail" if self.violations else "pass",
                      self.violations,
                      dict(data or {}))
