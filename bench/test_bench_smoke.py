"""Smoke test of the benchmark itself: every workload runs end to end at
toy size, says what ``BENCHMARK.json`` says it will, checks its outputs,
and leaves nothing behind.  No timing is asserted anywhere.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
IN_PROCESS = ["policy_replay", "tiered_replay", "warm_restart"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def smoke(out, *args):
    """Run ``bench/run.py --smoke``; (result lines, result documents)."""
    before = set(out.glob("*.json"))
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out),
         *args], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    documents = [json.loads(path.read_text(encoding="utf-8"))
                 for path in sorted(set(out.glob("*-seed*.json")) - before)]
    return lines, documents


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-out")


@pytest.fixture(scope="module")
def end_to_end(out):
    return smoke(out, "--trace", "0")


@pytest.fixture(scope="module")
def per_layer(out):
    return smoke(out, "--trace", "1")


def test_benchmark_json_has_the_contract_keys():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert SPEC["paths"] == ["bench"]
    names = (WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("mode,key", [("end_to_end", "end_to_end"),
                                      ("per_layer", "per_layer")])
def test_every_workload_prints_the_declared_metrics(request, mode, key):
    lines, documents = request.getfixturevalue(mode)
    assert [doc["workload"] for doc in documents] == sorted(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    for line in lines:
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert {name: value["unit"]
                for name, value in line["metrics"].items()} == declared
        assert line["correct"] is True
        assert line["failed"] == 0 and line["attempted"] >= 1


def test_same_seed_same_decisions_other_seed_other_tape(out, end_to_end):
    _, first = end_to_end
    _, again = smoke(out, "--trace", "0", "--workload", ",".join(IN_PROCESS))
    _, other = smoke(out, "--trace", "0", "--workload", "policy_replay",
                     "--seed", "2")
    first = {doc["workload"]: doc for doc in first}
    for doc in again:
        same = first[doc["workload"]]
        assert doc["tape_digest"] == same["tape_digest"]
        assert (doc["result"]["metrics"]["cost_miss_ratio"]
                == same["result"]["metrics"]["cost_miss_ratio"])
    assert other[0]["tape_digest"] != first["policy_replay"]["tape_digest"]


def test_compare_holds_decisions_exact_for_one_seed(out, end_to_end, tmp_path):
    """The same results compare as the same; the smallest rise of an
    in-process ``cost_miss_ratio`` at the same seed is a regression."""
    def compare(other):
        return subprocess.run(
            [sys.executable, str(BENCH / "compare.py"), str(out), str(other)],
            capture_output=True, text=True, timeout=60)
    done = compare(out)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "worse" not in done.stdout
    for path in out.glob("*-trace0-*.json"):
        document = json.loads(path.read_text(encoding="utf-8"))
        if document["workload"] == "policy_replay":
            ratio = document["result"]["metrics"]["cost_miss_ratio"]
            ratio["value"] *= 1.0001
        (tmp_path / path.name).write_text(json.dumps(document),
                                          encoding="utf-8")
    done = compare(tmp_path)
    assert done.returncode == 1
    rows = [row for row in done.stdout.splitlines() if "worse" in row]
    assert len(rows) == 1 and "policy_replay" in rows[0]
    assert "cost_miss_ratio" in rows[0]


def test_nothing_outlives_a_run(out, end_to_end, per_layer):
    assert not list(out.glob("work-*"))
    spawned = [pid for _, documents in (end_to_end, per_layer)
               for doc in documents for pid in doc["child_pids"]]
    assert spawned, "the served workloads start node processes"
    assert not [pid for pid in spawned if _is_node(pid)]


def _is_node(pid):
    """Whether ``pid`` is (still) one of the benchmark's node processes;
    a recycled pid belonging to something else does not count."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"repro.cluster.node" in handle.read()
    except OSError:
        return False
