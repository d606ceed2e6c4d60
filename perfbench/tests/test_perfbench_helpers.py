"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from layers import LayerTracer
from loadgen import MIN_TAIL, Request, ResponseBook, percentile, same_bits

REPO = Path(__file__).resolve().parents[2]


def tick_clock():
    """A clock that advances by exactly 1.0 per reading."""
    ticks = itertools.count()
    return lambda: float(next(ticks))


class Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return 0 if n == 0 else self.inner(n - 1)


# -- self time -----------------------------------------------------------

def test_self_time_of_nested_and_reentered_calls():
    tracer = LayerTracer(clock=tick_clock())
    tracer.patch(Toy, "outer", "outer")
    tracer.patch(Toy, "inner", "inner")
    try:
        assert Toy().outer(2) == 1
    finally:
        tracer.restore()
    # Clock readings: the starts of outer and of inner(2), (1), (0) read
    # 0, 1, 2, 3; the ends read 4 (inner(0)), 5, 6, 7 (outer). Elapsed:
    # inner(0) 1, inner(1) 3, inner(2) 5, outer 7.
    assert tracer.calls == {"outer": 1, "inner": 3}
    assert tracer.self_s["inner"] == 5.0  # 1 + (3 - 1) + (5 - 3)
    assert tracer.self_s["outer"] == 2.0  # 7 - 5
    assert tracer.attributed_s() == 7.0  # the outermost call's wall time


def test_restore_puts_back_own_and_inherited_attributes():
    class Child(Toy):
        pass

    own, inherited = Toy.__dict__["inner"], Child.inner
    tracer = LayerTracer()
    tracer.patch(Toy, "inner", "inner")
    tracer.patch(Child, "outer", "outer")
    assert Toy.__dict__["inner"] is not own and "outer" in vars(Child)
    tracer.restore()
    assert Toy.__dict__["inner"] is own
    assert "outer" not in vars(Child) and Child.inner is inherited


def test_forest_fit_inside_reduced_model_check_is_not_counted_twice():
    import repro.core.model as model
    from repro.core.importance import ImportanceRanking
    from repro.ml.forest import RandomForestRegressor

    rng = np.random.default_rng(0)
    X = rng.random((40, 3))
    y = X[:, 0] + 0.1 * X[:, 1]
    forest = RandomForestRegressor(n_trees=4, rng=0).fit(
        X[:30], y[:30], feature_names=["a", "b", "c"]
    )
    ranking = ImportanceRanking(names=["a", "b", "c"],
                                scores=np.ones(3), dependence={})
    with LayerTracer(clock=tick_clock()) as tracer:
        model.reduced_model_check(
            forest, ranking, X[:30], y[:30], X[30:], y[30:], k=2, rng=1
        )
    assert model.reduced_model_check.__name__ == "reduced_model_check"
    assert not hasattr(model.reduced_model_check, "__wrapped__")
    assert tracer.calls["core.reduced_check"] == 1
    assert tracer.calls["ml.forest_fit"] == 1
    assert tracer.counts["ml.trees_fitted"] == 4
    # two scores: one predict on each forest
    assert tracer.calls["ml.predict"] == 2
    assert tracer.counts["ml.predict_rows"] == 20
    nested = sum(v for k, v in tracer.self_s.items()
                 if k != "core.reduced_check")
    # The check's wall time is its self time plus every nested call's.
    total_readings = 2 * sum(tracer.calls.values())
    assert tracer.attributed_s() == total_readings - 1
    assert tracer.self_s["core.reduced_check"] == (
        tracer.attributed_s() - nested
    )


# -- the percentile rule -------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert MIN_TAIL == 10
    assert percentile(range(1, 101), 90) == 90
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(range(1, 100), 90)
    assert percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    with pytest.raises(ValueError):
        percentile(range(10), 100)


# -- open-loop accounting ------------------------------------------------

def test_latency_counts_from_due_and_lateness_from_schedule():
    late = Request(due=10.0, sent=10.25, received=10.5)
    assert late.late_s == 0.25
    assert late.latency_s == 0.5  # the stall is charged to the request
    early = Request(due=10.0, sent=9.999, received=10.1)
    assert early.late_s == 0.0
    assert early.latency_s == pytest.approx(0.1)


# -- id matching and bit identity ----------------------------------------

def answer(req_id, preds):
    # The server encodes predictions with json.dumps, like this.
    return json.dumps({"id": req_id,
                       "result": {"predictions": [float(v) for v in preds]}})


def test_responses_match_by_id_and_must_be_bit_identical():
    book = ResponseBook()
    expected = [np.array([0.1 * (i + 1), 1 / 3]) for i in range(4)]
    for i, ref in enumerate(expected):
        book.add(i, Request(due=float(i), sent=float(i), expected=ref))
    # out of order; id 0 is off by one ulp, id 1 never answers
    book.answer(answer(3, expected[3]), 13.0)
    book.answer(answer(2, expected[2]), 12.0)
    book.answer(answer(0, [np.nextafter(expected[0][0], 1), 1 / 3]), 11.0)
    book.answer(json.dumps({"id": 7, "result": {"predictions": [1.0]}}), 14.0)
    book.answer(json.dumps({"id": "telemetry", "result": {}}), 15.0)
    assert book.requests[2].received == 12.0 and book.requests[2].ok
    assert book.requests[3].ok
    assert book.requests[0].received == 11.0 and not book.requests[0].ok
    assert book.requests[1].received is None
    assert book.strays == 1 and "telemetry" in book.replies
    assert book.tally() == (4, 2, 3)  # 2 not ok, plus the stray


def test_error_responses_and_duplicates_fail():
    book = ResponseBook()
    book.add(0, Request(due=0.0, sent=0.0, expected=np.array([1.0])))
    book.add(1, Request(due=0.0, sent=0.0, expected=np.array([1.0])))
    book.answer(json.dumps({"id": 0, "error": {"code": -32006}}), 1.0)
    book.answer(answer(1, [1.0]), 1.0)
    book.answer(answer(1, [1.0]), 2.0)
    assert not book.requests[0].ok and "-32006" in book.requests[0].error
    assert book.requests[1].ok
    assert book.tally() == (2, 1, 2)


def test_same_bits_is_exact():
    assert same_bits([0.1, 0.2], np.array([0.1, 0.2]))
    assert not same_bits([0.1], np.array([0.1, 0.2]))
    assert not same_bits([0.0], np.array([-0.0]))


# -- the benchmark's contract --------------------------------------------

def test_metric_tables_match_benchmark_json():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transfer_nw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
