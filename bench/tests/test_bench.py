"""Self-test of the benchmark: `python -m pytest bench/tests -q`.

Runs the --smoke scale (two samples per run, gauss at iterations=6),
which finishes in under 20 s.
"""

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFINITIONS = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@functools.lru_cache(maxsize=None)
def smoke(workload, trace):
    done = run_benchmark("--smoke", "--workload", workload,
                         "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_benchmark_json_repeats_the_definitions():
    assert DEFINITIONS == metrics.benchmark_json(
        DEFINITIONS["command"], ["bench"], workloads.RUN_SECONDS,
        workloads.WORKLOADS)
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in DEFINITIONS[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(row["unit"]) for key in
               ("end_to_end", "per_layer") for row in DEFINITIONS[key])
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"]
               for row in DEFINITIONS["workloads"])
    assert "setup_s" in {row["name"] for row in DEFINITIONS["end_to_end"]}


@pytest.mark.parametrize("workload", ["cold_small", "sim_gauss32"])
def test_smoke_prints_every_declared_metric_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = json.loads(smoke(workload, trace).splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {row["name"]: row["unit"] for row in DEFINITIONS[section]}
        printed = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
        assert printed == declared
        assert all(isinstance(metric["value"], (int, float))
                   for metric in result["metrics"].values())
    # The table above the last line has all seven end-to-end names.
    kind = workloads.BY_NAME[workload].kind
    for metric in metrics.END_TO_END:
        if kind in metric.kinds:
            assert re.search(rf"^  {metric.name} +\S+ {re.escape(metric.unit)}",
                             smoke(workload, 0), re.M), metric.name


@pytest.mark.parametrize("workload", ["cold_small", "sim_gauss32"])
def test_span_self_times_sum_to_the_root_span(workload):
    smoke(workload, 1)
    trace = json.loads((BENCH / "out" / f"trace-{workload}.json").read_text())
    (root,) = (s for s in trace["spans"] if s["parent"] is None)
    assert root["name"] == f"run.{workload}"
    assert all(s["workload"] == workload for s in trace["spans"])
    total = sum(s["self_s"] for s in trace["spans"])
    assert total == pytest.approx(root["end"] - root["start"], rel=0.02)


def test_self_time_is_duration_minus_what_children_cover():
    tracer = spans.Tracer("w")
    root = tracer.add("root", 0.0, 10.0)
    child = tracer.add("child", 1.0, 5.0, parent=root)
    tracer.add("grandchild", 2.0, 3.0, parent=child)
    tracer.add("overlapping", 4.0, 7.0, parent=root)
    assert spans.self_times(tracer.spans) == {0: 4.0, 1: 3.0, 2: 1.0, 3: 3.0}


def test_refuses_a_directory_without_the_repo(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("--workload", "cold_small", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
