"""Spans around lyalg's public functions, installed from outside the package.

``install`` wraps each function in TARGETS and rebinds the wrapper in every
``lyalg`` namespace that holds the original, because ``cli``, ``cohomology``
and ``deformation`` import names directly.  Methods are wrapped on their
class.  A span records its name, parent, job and start/end times; spans stay
in memory and ``write`` stores them as JSON lines when the run ends.  Self
time is a span's duration minus the time of its direct children.  Counts come
from arguments and return values (matrix shapes, pivots, witnesses), so they
repeat exactly from run to run.
"""

import functools
import json
import sys
import time
from collections import defaultdict


def _rref_counts(counts, args, result):
    rows = args[0]
    counts["linalg.rref.rows"] += len(rows)
    counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    counts["linalg.rref.pivots"] += len(result[1])


def _matrix_counts(counts, args, result):
    counts["cohomology.matrix.rows"] += result.rows
    counts["cohomology.matrix.cols"] += result.cols
    counts["cohomology.matrix.nnz"] += len(result.data)


def _violation_counts(counts, args, result):
    counts["reports.violations"] += len(result.violations)


IO_LOADERS = ("load_algebra", "load_action", "load_operator", "load_post",
              "load_matrix", "load_homomorphism", "load_nijenhuis", "load_wedges")

# (module, attribute or Class.method, span name or None for count-only, counter)
TARGETS = [
    ("linalg", "rref", "linalg.rref", _rref_counts),
    ("linalg", "solve", "linalg.solve", None),
    ("cohomology", "coboundary_matrix_for", "cohomology.coboundary_matrix_for", _matrix_counts),
    ("cohomology", "SparseMat.rank", "cohomology.SparseMat.rank", None),
    ("cohomology", "TComplex.cohomology_witnesses", "cohomology.cohomology_witnesses", None),
    ("cohomology", "induced_rep", "cohomology.induced_rep", None),
    ("cohomology", "TComplex.__init__", "cohomology.TComplex", None),
    ("reps", "check_representation", "reps.check_representation", None),
    ("reps", "check_action", "reps.check_action", None),
    ("reps", "semidirect_product", "reps.semidirect_product", None),
    ("core", "check_ly_axioms", "core.check_ly_axioms", None),
    ("rrb", "check_rrb", "rrb.check_rrb", None),
    ("rrb", "graph_subalgebra_check", "rrb.graph_subalgebra_check", None),
    ("rrb", "check_nijenhuis", "rrb.check_nijenhuis", None),
    ("rrb", "descent_algebra", "rrb.descent_algebra", None),
    ("postlya", "induced_post_from_rrb", "postlya.induced_post_from_rrb", None),
    ("postlya", "check_post_axioms", "postlya.check_post_axioms", None),
    ("deformation", "check_order_n", "deformation.check_order_n", None),
    ("deformation", "obstruction_class", "deformation.obstruction_class", None),
    ("deformation", "extend", "deformation.extend", None),
    ("deformation", "check_linear_deformation", "deformation.check_linear_deformation", None),
    ("deformation", "check_equivalence", "deformation.check_equivalence", None),
    ("io", "canonical_json", "io.canonical_json", None),
    ("reports", "Checker.report", None, _violation_counts),
] + [("io", name, "io.load", None) for name in IO_LOADERS]


class Tracer:
    def __init__(self):
        self.spans = []              # [name, parent index, job, start, end]
        self.stack = []              # [span index, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.job = None

    def span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1][0] if self.stack else None
        rec = [name, parent, self.job, time.perf_counter(), None]
        self.spans.append(rec)
        self.stack.append([idx, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            _, child = self.stack.pop()
            dur = rec[4] - rec[3]
            if self.stack:
                self.stack[-1][1] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - child

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self.counts, args, result)
            return result
        return traced

    def install(self):
        """Wrap every target; returns a function that restores the originals."""
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "lyalg" or k.startswith("lyalg."))]
        undo = []
        for modname, attr, name, counter in TARGETS:
            mod = sys.modules["lyalg." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(orig, name, counter))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(orig, name, counter)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        undo.append((m, key, orig))

        def restore():
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)
        return restore

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, job, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "job": job,
                                     "start": start, "end": end}) + "\n")
