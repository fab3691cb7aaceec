"""Every function the benchmark's tracer wraps still exists in lyalg.

``perfbench/spans.py`` names its targets as strings, and a target that no
longer resolves would drop a per-layer metric without failing anything.  The
module is read from its source and executed here; nothing is written.
"""

import importlib

from families import load_spans


def resolves(modname, attr):
    """True when lyalg.<modname> has the function ``attr``, or the class
    method ``Class.method`` defined on that class itself (where the tracer
    wraps it)."""
    mod = importlib.import_module("lyalg." + modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        return isinstance(cls, type) and callable(vars(cls).get(meth))
    return callable(getattr(mod, attr, None))


def test_every_trace_target_resolves():
    targets = load_spans().TARGETS
    assert len(targets) > 20
    missing = [(m, a) for m, a, _, _ in targets if not resolves(m, a)]
    assert missing == []


def test_a_missing_target_is_caught():
    assert not resolves("deformation", "no_such_check")
    assert not resolves("cohomology", "TComplex.no_such_method")
    assert not resolves("reports", "NoSuchClass.report")
