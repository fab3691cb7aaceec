"""Record the expected outputs that are not implied by the generator.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected.json``: the SHA-256 digest of the canonical JSON
output of every fixture job, and the cohomology dimensions of the fixed dim-5
operator whose seeded transports the cohomology workload runs.  Run it only
at a commit whose outputs are trusted; the committed file was recorded at the
commit that introduced the benchmark.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import workloads  # noqa: E402
from lyalg import cli  # noqa: E402


def output(argv, rc):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        got = cli.run(argv + ["--json"])
    if got != rc:
        raise SystemExit("%s: exit code %d, want %d" % (" ".join(argv), got, rc))
    return buf.getvalue()


def main():
    digests = {}
    for workload in ("cohomology", "deform", "warmup"):
        for name, (argv, rc) in workloads.fixture_jobs(workload).items():
            digests[name] = workloads.digest(output(argv, rc))
    A, T = workloads.cohomology_base()
    dims = {}
    with tempfile.TemporaryDirectory(dir=HERE) as wd:
        op = gen.write_operator(wd, "c5", A, T)
        for p in (1, 2):
            data = json.loads(output(["cohomology", "--op", op, "--degree", str(p)], 0))["data"]
            dims[str(p)] = [data["cocycles"], data["coboundaries"], data["cohomology"]]
    doc = {"digests": dict(sorted(digests.items())), "c5": dims}
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
