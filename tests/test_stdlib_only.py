"""The library imports nothing outside the standard library and itself."""

import ast
import os
import re
import shutil
import subprocess
import sys

from families import load_spans

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "lyalg")


def foreign_imports(path):
    tree = ast.parse(open(path, encoding="utf-8").read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "lyalg" and top not in sys.stdlib_module_names:
                yield node.lineno, name


def test_library_is_stdlib_only():
    modules = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "linalg.py" in modules
    bad = [(f, line, name) for f in modules
           for line, name in foreign_imports(os.path.join(SRC, f))]
    assert bad == []


def unused_imports(path):
    """Names a module imports and never reads."""
    tree = ast.parse(open(path, encoding="utf-8").read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_no_unused_imports():
    # the library's __init__.py imports in order to re-export
    paths = [os.path.join(SRC, f) for f in sorted(os.listdir(SRC))
             if f.endswith(".py") and f != "__init__.py"]
    paths += sorted(sources("tests", "perfbench"))
    assert len(paths) > 30
    bad = [(path, line, name) for path in paths for line, name in unused_imports(path)]
    assert bad == []


def sources(*dirs):
    """{path: source} of every Python file under the given repository dirs."""
    out = {}
    for d in dirs:
        for dirpath, _, files in os.walk(os.path.join(ROOT, d)):
            for f in sorted(files):
                if f.endswith(".py"):
                    path = os.path.join(dirpath, f)
                    with open(path, encoding="utf-8") as fh:
                        out[path] = fh.read()
    return out


LIBRARY = "src/lyalg/"


def unread_names(files, targets=()):
    """(file, line, name) of each class and function defined at the top of a
    library module, and each method and property of such a class, that no
    reader reads.

    ``files`` maps "/"-separated repository paths to their text, and the
    library is what lies under src/lyalg/.  The readers are the library,
    perfbench/ and README.md's ```python block; tests are not readers.  A
    top-level name is read by a name or attribute load, or by an import in
    the library's ``__init__.py``, a re-export; a method or property only by
    an attribute load, since a bare name of the same spelling is another
    name.  The interpreter reads dunder methods.  ``targets`` are the
    (module, attribute) pairs of perfbench's tracer, and "Class.method"
    reads both names.
    """
    defined = []
    for path, text in files.items():
        if not path.startswith(LIBRARY):
            continue
        for node in ast.parse(text, path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defined.append((os.path.basename(path), node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(os.path.basename(path), m.lineno, node.name + "." + m.name)
                            for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (m.name.startswith("__") and m.name.endswith("__"))]
    readers = [(path, text) for path, text in files.items()
               if path.startswith((LIBRARY, "perfbench/"))]
    readers += [("README.md", block)
                for block in re.findall(r"```python\n(.*?)```", files.get("README.md", ""), re.S)]
    names, attributes = set(), set()
    for path, text in readers:
        for node in ast.walk(ast.parse(text, path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path == LIBRARY + "__init__.py":
                names.update(a.name for a in node.names)
    for _, attr in targets:
        attributes.update(attr.split("."))
    return sorted((f, line, name) for f, line, name in defined
                  if name.split(".")[-1] not in (attributes if "." in name else attributes | names))


def test_every_library_function_is_read():
    files = {os.path.relpath(path, ROOT).replace(os.sep, "/"): text for path, text
             in sources(os.path.join("src", "lyalg"), "tests", "perfbench").items()}
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        files["README.md"] = fh.read()
    assert sum(p.startswith("tests/") for p in files) > 10
    assert unread_names(files, [t[:2] for t in load_spans().TARGETS]) == []


def test_an_unread_function_is_caught():
    files = {"src/lyalg/m.py": "def used():\n    pass\n\n\ndef unused():\n    pass\n",
             "src/lyalg/n.py": "from .m import unused\nused()\nx.unused_attr\n"}
    assert unread_names(files) == [("m.py", 5, "unused")]


def test_an_unread_method_is_caught():
    library = ("class C:\n"
               "    def by_test(self):\n"
               "        pass\n"
               "\n"
               "    @property\n"
               "    def by_name(self):\n"
               "        pass\n"
               "\n"
               "    def benched(self):\n"
               "        pass\n"
               "\n"
               "    def traced(self):\n"
               "        pass\n"
               "\n"
               "    def shown(self):\n"
               "        pass\n"
               "\n"
               "    def __repr__(self):\n"
               "        return by_name\n"
               "\n"
               "\n"
               "def exported():\n"
               "    return C\n")
    files = {"src/lyalg/m.py": library,
             "src/lyalg/__init__.py": "from .m import exported\n",
             "tests/test_m.py": "from lyalg.m import C\nC().by_test()\nC().by_name\n",
             "perfbench/run.py": "def f(c):\n    return c.benched()\n",
             "README.md": "```python\nc.shown()\n```\n```sh\nc.by_test()\n```\n"}
    assert unread_names(files, [("m", "C.traced")]) == [("m.py", 2, "C.by_test"),
                                                        ("m.py", 6, "C.by_name")]


# Structure tensors are their support: the library reads that, and reads a
# value with ``linalg.contract``.  A Tensor has no nested view to index; tests
# and oracles build one with ``oracles.nested``.  The guard keeps library code
# from subscripting a tensor attribute all the same.
TENSOR_ATTRIBUTES = {"binary", "ternary", "rho", "mu", "derived_D", "dot", "star", "angle",
                     "brace", "brace_D", "sub_binary", "sub_ternary"}


def tensor_subscripts(sources_by_path):
    """(file, line, attribute) of each subscript of a structure-tensor
    attribute, such as ``A.binary[i]``."""
    out = []
    for path, text in sources_by_path.items():
        for node in ast.walk(ast.parse(text, path)):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr in TENSOR_ATTRIBUTES:
                out.append((os.path.basename(path), node.lineno, node.value.attr))
    return sorted(out)


def test_no_library_module_indexes_a_structure_tensor():
    assert tensor_subscripts(sources(os.path.join("src", "lyalg"))) == []


def test_an_indexed_structure_tensor_is_caught():
    snippet = ("def f(A, r, t):\n"
               "    v = A.binary[0][1]\n"
               "    w = r.derived_D[0]\n"
               "    return A.binary.support[0, 1], t[0], A.name[0]\n")
    assert tensor_subscripts({"m.py": snippet}) == [("m.py", 2, "binary"),
                                                    ("m.py", 3, "derived_D")]


# The tables hold ints wherever a value is integral, and int / int is a
# float: the library multiplies, adds and eliminates fraction-free, and never
# divides with a slash.
def true_divisions(sources_by_path):
    """(file, line) of each true division, ``a / b`` or ``a /= b``."""
    out = []
    for path, text in sources_by_path.items():
        for node in ast.walk(ast.parse(text, path)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                out.append((os.path.basename(path), node.lineno))
    return sorted(out)


def test_no_library_module_divides_with_a_slash():
    assert true_divisions(sources(os.path.join("src", "lyalg"))) == []


def test_a_true_division_is_caught():
    snippet = ("def f(a, b):\n"
               "    c = a // b + a % b\n"
               "    a /= b\n"
               "    return a / b, c, '/'\n")
    assert true_divisions({"m.py": snippet}) == [("m.py", 3), ("m.py", 4)]


def library_imports(text):
    """(line, module) of each import of the library in the source ``text``."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        out += [(node.lineno, n) for n in names if n.split(".")[0] == "lyalg"]
    return out


def test_oracles_import_nothing_from_the_library():
    with open(os.path.join(ROOT, "tests", "oracles.py"), encoding="utf-8") as fh:
        assert library_imports(fh.read()) == []


def test_a_library_import_is_caught():
    snippet = "import os\nimport lyalg.linalg\nfrom lyalg import io\nfrom fractions import F\n"
    assert library_imports(snippet) == [(2, "lyalg.linalg"), (3, "lyalg")]


def syntax_errors(sources_by_path, version):
    """(file, line, message) of each source that does not parse as Python
    ``version``, a (major, minor) pair."""
    out = []
    for path, text in sources_by_path.items():
        try:
            ast.parse(text, path, feature_version=version)
        except SyntaxError as e:
            out.append((os.path.basename(path), e.lineno, e.msg))
    return sorted(out)


def test_sources_parse_as_the_oldest_supported_python():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        floor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', fh.read())
    version = (int(floor.group(1)), int(floor.group(2)))
    assert version == (3, 10)
    found = sources(os.path.join("src", "lyalg"), "tests", "perfbench")
    assert sum(os.sep + "lyalg" + os.sep in p for p in found) >= 10 and len(found) > 20
    assert syntax_errors(found, version) == []


def test_newer_syntax_is_caught():
    groups = "try:\n    pass\nexcept* ValueError:\n    pass\n"       # 3.11
    assert [f for f, _, _ in syntax_errors({"m.py": groups, "ok.py": "x = 1\n"}, (3, 10))] \
        == ["m.py"]


# Every table check builds and scans its tables through ``Checker.tabulate``,
# and takes a sub-check's witnesses through ``Checker.include``; only the
# driver itself records a witness or tests whether the report is settled.
DRIVER_MODULES = {"reports.py"}


def driver_bypasses(sources_by_path):
    """(file, line, attribute) of each call of ``.record(`` or ``._record(``
    and each read of ``.done`` or ``._saturated``."""
    out = []
    for path, text in sources_by_path.items():
        for node in ast.walk(ast.parse(text, path)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("record", "_record"):
                out.append((os.path.basename(path), node.lineno, node.func.attr))
            elif isinstance(node, ast.Attribute) and node.attr in ("done", "_saturated") \
                    and isinstance(node.ctx, ast.Load):
                out.append((os.path.basename(path), node.lineno, node.attr))
    return sorted(out)


def test_only_the_driver_records_witnesses():
    library = sources(os.path.join("src", "lyalg"))
    assert [b for b in driver_bypasses(library) if b[0] not in DRIVER_MODULES] == []


def test_a_driver_bypass_is_caught():
    snippet = ("def f(ck, rep):\n"
               "    if not ck.done:\n"
               "        ck.record('E', (), ())\n"
               "    ck.done = True\n"
               "    ck._record('E', (), ())\n"
               "    ck._saturated = not ck._saturated\n"
               "    return ck.recorded, rep.record, rep._record\n")
    assert driver_bypasses({"m.py": snippet}) == [
        ("m.py", 2, "done"), ("m.py", 3, "record"), ("m.py", 5, "_record"),
        ("m.py", 6, "_saturated")]


# Generated inputs and shared helpers live in ``families.py``: no test module
# imports another, so none runs another's module-level code or depends on
# where another keeps a helper.
def cross_imports(sources_by_path):
    """(file, line, module) of each import of a module named ``test_*``, at
    top level or inside a function."""
    out = []
    for path, text in sources_by_path.items():
        for node in ast.walk(ast.parse(text, path)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + ["%s.%s" % (node.module, a.name)
                                               for a in node.names]
            else:
                continue
            out += [(os.path.basename(path), node.lineno, n) for n in names
                    if n.split(".")[-1].startswith("test_")]
    return sorted(out)


def test_no_test_module_imports_another():
    assert cross_imports(sources("tests")) == []


def test_a_cross_import_is_caught():
    snippet = ("import oracles, test_reports\n"
               "from families import dense\n"
               "from test_cohomology import two_step_operator\n"
               "def f():\n"
               "    from tests import test_rrb\n"
               "    import test_io_cli as io_cli\n")
    assert cross_imports({"m.py": snippet}) == [
        ("m.py", 1, "test_reports"), ("m.py", 3, "test_cohomology"),
        ("m.py", 5, "tests.test_rrb"), ("m.py", 6, "test_io_cli")]


# Each command runs as one short process, so what ``import lyalg.cli`` loads
# is paid on every run: none of these heavy standard modules is needed.
HEAVY_MODULES = ("dataclasses", "inspect", "typing")


def heavy_imports(path):
    """The HEAVY_MODULES a fresh interpreter (no site) loads on ``import
    lyalg.cli`` with only ``path`` on its module path."""
    probe = "import sys, lyalg.cli; print(*sorted(set(%r) & set(sys.modules)))" % (HEAVY_MODULES,)
    out = subprocess.run([sys.executable, "-S", "-c", probe], cwd=path, check=True,
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    return out.stdout.split()


def test_importing_the_cli_loads_no_heavy_module():
    assert heavy_imports(os.path.join(ROOT, "src")) == []


def test_a_heavy_import_is_caught(tmp_path):
    shutil.copytree(SRC, tmp_path / "lyalg")
    with open(tmp_path / "lyalg" / "reports.py", "a", encoding="utf-8") as fh:
        fh.write("import dataclasses\n")
    assert heavy_imports(str(tmp_path)) == ["dataclasses", "inspect"]


# Every module imports what it needs at its top, so the import graph is read
# from the module heads alone and no call pays for an import.
def function_imports(sources_by_path):
    """(file, line) of each import statement inside a function."""
    out = set()
    for path, text in sources_by_path.items():
        for fn in ast.walk(ast.parse(text, path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.update((os.path.basename(path), node.lineno) for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(out)


def test_no_library_function_imports():
    assert function_imports(sources(os.path.join("src", "lyalg"))) == []


def test_a_function_local_import_is_caught():
    snippet = ("import os\n"
               "def f():\n"
               "    from .rrb import check_rrb\n"
               "    def g():\n"
               "        import json\n"
               "    return os\n"
               "class C:\n"
               "    async def h(self):\n"
               "        import sys\n")
    assert function_imports({"m.py": snippet}) == [("m.py", 3), ("m.py", 5), ("m.py", 9)]


# One elimination mode: the echelon of a matrix's columns, built by
# ``SparseMat`` (and copied to seed H^p); a reduced basis, a subspace and an
# inverse are read off its kernel and solves, and build none of their own.
def echelon_builders(sources_by_path):
    """(file, scope) of each call of ``Echelon(`` or ``x.Echelon(``, the scope
    the dotted names of the classes and functions around it, "" at the top."""
    out = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and "Echelon" in (getattr(child.func, "id", None),
                                                             getattr(child.func, "attr", None)):
                out.add((os.path.basename(path), ".".join(scope)))
            visit(child, path, scope)
    for path, text in sources_by_path.items():
        visit(ast.parse(text, path), path, ())
    return sorted(out)


def test_only_sparse_mat_builds_an_echelon():
    assert echelon_builders(sources(os.path.join("src", "lyalg"))) == [
        ("linalg.py", "Echelon.copy"), ("linalg.py", "SparseMat.column_echelon")]


def test_an_echelon_builder_is_caught():
    snippet = ("E = Echelon()\n"
               "def f(rows):\n"
               "    return linalg.Echelon(rows).rank, Echelon\n"
               "class C:\n"
               "    def g(self):\n"
               "        def h():\n"
               "            return [Echelon(r) for r in self.rows]\n"
               "        return h\n")
    assert echelon_builders({"m.py": snippet}) == [("m.py", ""), ("m.py", "C.g.h"), ("m.py", "f")]
