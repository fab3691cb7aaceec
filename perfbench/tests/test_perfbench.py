"""The benchmark's own tests (not part of the library suite).

    python3 -m pytest -q perfbench/tests

They run every workload once at a small seed, check that it reports no wrong
output and every metric named in BENCHMARK.json, that traced counts repeat
exactly, that inputs depend only on the seed, and confirm the committed
degree-3 cohomology of the p3 fixture against tests/oracles.py (untimed).
"""

import filecmp
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload, seed, trace):
    out = subprocess.run([sys.executable] + SPEC["command"][1:] +
                         ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                          "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_is_correct_and_complete(workload):
    e2e = bench(workload, 7, 0)
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] > 0
    assert set(e2e["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in e2e["metrics"].values())
    traced = bench(workload, 7, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for result in (e2e, traced):
        assert all(m["unit"] == units[k] for k, m in result["metrics"].items())


def test_traced_counts_repeat_exactly():
    counts = [{k: v["value"] for k, v in bench("deform", 3, 1)["metrics"].items()
               if v["unit"] == "count"} for _ in range(2)]
    assert counts[0] == counts[1] and counts[0]["reports.violations"] > 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    expected = workloads.load_expected()
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        for make in workloads.WORKLOADS.values():
            make(seed, str(d), expected)
    same = filecmp.dircmp(dirs[0], dirs[1])
    assert not same.diff_files and not same.left_only and not same.right_only
    assert filecmp.dircmp(dirs[0], dirs[2]).diff_files


def test_p3_degree3_against_oracle():
    """B^3 from the oracle's dense degree-2 coboundary, Z^3 from the oracle's
    elimination of the library's degree-3 matrix."""
    import oracles
    import lyalg as L
    from lyalg import io as lyio
    op = lyio.load_operator(workloads.fx("p3_on_nilpotent4.json"))
    op.ensure_verified()
    b3 = oracles.o_rank([r for r in oracles.delta2_matrix(oracles.OpOracle(op)) if any(r)])
    m3 = L.TComplex(op).matrix(3)
    z3 = m3.cols - oracles.o_rank(m3.nonzero_rows())
    assert (z3, b3, z3 - b3) == workloads.P3_DIMS[3]
