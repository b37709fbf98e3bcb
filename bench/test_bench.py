"""Tests of the benchmark itself, on tiny sizes.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COUNTS = [name for name, unit in run.PER_LAYER if unit == "count"]


def tiny(cls, cycle, trace_cycles=1):
    w = cls()
    w.cycle = cycle
    w.trace_cycles = trace_cycles
    return w


TINY = [
    tiny(workloads.LearnLasso, ("F", "U", "F(a&b)"), 2),
    tiny(workloads.LearnKripke, ("EX", "A(aUb)", "EF(a&b)"), 2),
    tiny(workloads.LearnSat, ((3, 5, True), (3, 8, False))),
    tiny(workloads.Verify, workloads.Verify.cycle, 2),
]


def traced_run(workload, tmp_path, seconds=0.0):
    r = run.Run(workload, 7, str(tmp_path))
    metrics, info = r.traced(seconds, tmp_path / "trace.json")
    return r, metrics, info


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_counts_and_verdicts_repeat_exactly(workload, tmp_path):
    runs = [traced_run(workload, tmp_path, seconds=0.3) for _ in range(2)]
    (r1, m1, i1), (r2, m2, i2) = runs
    assert r1.failed == r2.failed == 0, r1.failures
    assert i1["counts_repeat"] and i2["counts_repeat"]
    assert i1["digest"] == i2["digest"]
    assert {k: m1[k] for k in COUNTS} == {k: m2[k] for k in COUNTS}
    assert i1["ops"] == len(workload.cycle) * workload.trace_cycles
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert sum(s["name"] == "op" for s in spans) == i1["ops"]


def test_learn_counts_come_from_learn_stats(tmp_path):
    _, m, _ = traced_run(TINY[0], tmp_path)
    generated = m["learner.candidates_generated"]
    assert generated > m["learner.distinct_signatures"] > 0
    assert m["semantics.ltl_op_calls"] > 0 and m["semantics.ctl_op_calls"] == 0
    assert 0 < m["learner.self_s"] < m["learner.learn_s"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    tl = run.import_fresh()
    w = workloads.WORKLOADS["learn-sat"]

    def texts(seed, cycle):
        inputs = w.inputs(tl, seed, cycle, str(tmp_path))
        return [inp["text"] for inp in inputs]

    assert texts(3, 1) == texts(3, 1)
    assert texts(3, 1) != texts(4, 1)
    assert texts(3, 0) != texts(3, 1)


class _Faulty:
    """A workload whose second op raises and whose third op is wrong."""

    name = "faulty"
    cycle = ("ok", "raises", "wrong")
    trace_cycles = 1

    def inputs(self, tl, seed, cycle, workdir):
        return [{"kind": k} for k in self.cycle]

    def op(self, tl, inp):
        if inp["kind"] == "raises":
            raise ValueError("boom")
        return inp["kind"]

    def check(self, tl, inp, out):
        return out == "ok", out


def test_failures_are_counted_not_raised(tmp_path):
    r = run.Run(_Faulty(), 1, str(tmp_path))
    metrics, info = r.end_to_end(0)
    assert info["ops"] >= run.MIN_OPS and info["ops"] % 3 == 0
    assert r.attempted == info["ops"]
    assert r.failed == 2 * info["ops"] // 3
    assert metrics["op_p90_s"] >= metrics["op_p50_s"] > 0


def test_typical_throughput_uses_kind_medians():
    cycle = [{"kind": "a"}, {"kind": "a"}, {"kind": "b"}]
    by_kind = {"a": [1.0, 1.0, 9.0], "b": [2.0, 2.0, 2.0]}
    assert run._typical_throughput(cycle, by_kind) == 3 / (1.0 + 1.0 + 2.0)


def test_reference_ctl_matches_known_values():
    # s0 {p} -> s1 {} -> s1; s0 -> s0
    m = reference.Structure([{"p"}, set()], [{0, 1}, {1}], {0})
    tl = run.import_fresh()
    p = tl.Prop("p")
    holds = {
        "E X p": True, "A X p": False, "E G p": True, "A G p": False,
        "A F !p": False, "E F !p": True, "A (p U !p)": False,
        "E (p U !p)": True, "A (p W !p)": True, "E (!p R p)": True,
        "A (!p M p)": False,
    }
    for text, expected in holds.items():
        assert reference.ctl_holds(tl.parse_ctl(text), m) is expected, text
    assert reference.ctl_states(p, m) == {0}


def test_reference_ctl_agrees_with_the_package_on_random_inputs():
    tl = run.import_fresh()
    rng = random.Random(5)
    for _ in range(200):
        f = workloads._random_formula(tl, rng, "ctl", ("p", "q"), 4, 3, 9)
        labels, succ = workloads._kripke(rng, ("p", "q"), 1, 6, 2)
        k = tl.KripkeStructure(
            [f"s{i}" for i in range(len(labels))], ["s0"],
            [(f"s{i}", f"s{j}") for i, js in enumerate(succ) for j in js],
            labels)
        assert (reference.ctl_holds(f, reference.Structure(labels, succ, {0}))
                == tl.check_ctl(f, k)), reference.formula_text(f)


def test_reference_text_and_size():
    tl = run.import_fresh()
    f = tl.parse_ltl("G (p -> X q) & F (p -> X q)")
    assert reference.dag_size(f) == tl.size(f) == 7
    assert tl.parse_ltl(reference.formula_text(f)) == f
    g = tl.parse_ctl("A (p U E X !q) | E G p")
    assert tl.parse_ctl(reference.formula_text(g)) == g


def test_reference_sat():
    assert reference.satisfiable(2, [(1, 2), (-1,), (-2, 1)]) is False
    assert reference.satisfiable(2, [(1, 2), (-1,)]) is True
    assert reference.satisfies([(1, -2)], {1: False, 2: False})


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
