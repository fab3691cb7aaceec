"""Seeded mutations of every fixture under every command that reads it.

Each case inlines a command's input files, replaces some seeded nodes of their
JSON trees with values from ``CATALOGUE`` or deletes them, and runs the CLI
in process.  Whatever the mutation, ``cli.run`` answers with exit 0 or 1 and
a JSON report on stdout, or with one ``error:`` line on stderr (exit 2, or 1
for a failed check that carries no report), within ``CASE_SECONDS``.
``fuzz`` takes the number of cases per command, so a longer run is one call.
"""

import contextlib
import io
import json
import os
import random
import time

import pytest

from lyalg.cli import run

from conftest import FIXTURES

CATALOGUE = [5, -1, 2 ** 70, "x", "", "1/0", "1e999999", True, None, 1.5, [], {}, [[]], "0"]

CASE_SECONDS = 2.0

P3 = "p3_on_nilpotent4.json"

# (name, argv), each input file named in braces
COMMANDS = [
    ("check-algebra", ["check", "algebra", "{nilpotent4.json}"]),
    ("check-rep", ["check", "rep", "{nilpotent4_adjoint.json}"]),
    ("check-action", ["check", "action", "{nilpotent4_adjoint.json}"]),
    ("check-rrb", ["check", "rrb", "{%s}" % P3]),
    ("check-rrb-p12", ["check", "rrb", "{p12_projection.json}"]),
    ("construct-semidirect", ["construct", "semidirect", "{nilpotent4_adjoint.json}"]),
    ("construct-descent", ["construct", "descent", "{%s}" % P3]),
    ("construct-post", ["construct", "post", "{%s}" % P3]),
    ("construct-lift", ["construct", "lift", "{%s}" % P3]),
    ("cohomology-p3", ["cohomology", "--op", "{%s}" % P3, "--degree", "2"]),
    ("cohomology-5102", ["cohomology", "--op", "{square_zero_5102.json}", "--degree", "2"]),
    ("deform-linear", ["deform", "linear", "--op", "{%s}" % P3, "--t1", "{t1_family.json}"]),
    ("deform-obstruct", ["deform", "obstruct", "--op", "{%s}" % P3,
                         "--terms", "{t1_family.json}", "--extend"]),
    ("deform-equiv", ["deform", "equiv", "--op", "{%s}" % P3, "--t1", "{t1_family.json}",
                      "--t2", "{t1_family_b.json}", "--x", "{x_e1e2.json}"]),
]


def inlined(name):
    """The fixture ``name`` with every file it references read in its place."""
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        doc = json.load(fh)

    def inline(node):
        if isinstance(node, dict):
            return {k: inline(v) for k, v in node.items()}
        if isinstance(node, list):
            return [inline(v) for v in node]
        if isinstance(node, str) and node.endswith(".json"):
            return inlined(node)
        return node
    return inline(doc)


def nodes(tree, path=()):
    """The path of every node below the root of ``tree``, a list or a dict."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for k, v in items:
        yield path + (k,)
        if isinstance(v, (dict, list)):
            yield from nodes(v, path + (k,))


def mutate(rng, docs):
    """Replace or delete one to three seeded nodes of the list ``docs``, in place."""
    for _ in range(rng.randint(1, 3)):
        # a whole document stays an object
        path = rng.choice([p for p in nodes(docs) if len(p) > 1])
        parent = docs
        for k in path[:-1]:
            parent = parent[k]
        choice = rng.randrange(len(CATALOGUE) + 1)
        if choice == len(CATALOGUE):
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(CATALOGUE[choice]))


def fuzz(name, cases, tmp_dir):
    """Run ``cases`` seeded mutations of the command ``name``, writing the
    inputs under ``tmp_dir``; return how often each exit code came."""
    argv = dict(COMMANDS)[name]
    files = [a[1:-1] for a in argv if a.startswith("{")]
    rng = random.Random(name)
    codes = {}
    for case in range(cases):
        docs = [inlined(f) for f in files]
        mutate(rng, docs)
        paths = [os.path.join(tmp_dir, "in%d.json" % i) for i in range(len(docs))]
        for path, doc in zip(paths, docs):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        given = iter(paths)
        args = [next(given) if a.startswith("{") else a for a in argv] + ["--json"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(args)
        seconds = time.perf_counter() - start
        out, err = out.getvalue(), err.getvalue()
        where = "%s case %d: %s" % (name, case, json.dumps(docs)[:300])
        assert seconds < CASE_SECONDS, where
        if err:
            assert code in (1, 2) and out == "", where
            assert err.startswith("error: ") and err.count("\n") == 1 \
                and err.endswith("\n"), where
        else:
            assert code in (0, 1), where
            json.loads(out)
        codes[code] = codes.get(code, 0) + 1
    return codes


@pytest.mark.parametrize("name", [name for name, _ in COMMANDS])
def test_mutated_inputs_get_a_report_or_one_error_line(name, tmp_path):
    assert 2 in fuzz(name, 150, str(tmp_path))
