"""Smoke tests for the micro-benchmark harness (``repro bench``)."""

import json

import numpy as np
import pytest

from repro.bench import (
    BENCHMARKS,
    SCHEMA,
    BenchResult,
    _best_of,
    bench_forest_predict,
    bench_partial_dependence,
    bench_trace_transactions,
    check_regressions,
    format_results,
    run_benchmarks,
    write_report,
)


class TestBenchHarness:
    def test_single_op_result_shape(self):
        result = bench_trace_transactions(quick=True)
        assert result.op == "trace_transactions"
        assert result.n > 0 and result.wall_s > 0
        assert result.throughput == pytest.approx(result.n / result.wall_s)
        assert result.baseline_wall_s > 0
        assert result.speedup == pytest.approx(
            result.baseline_wall_s / result.wall_s
        )

    def test_run_benchmarks_selects_ops(self):
        results = run_benchmarks(ops=["trace_transactions"], quick=True)
        assert [r.op for r in results] == ["trace_transactions"]

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_benchmarks(ops=["no_such_op"], quick=True)

    def test_catalogue_covers_the_three_paths(self):
        assert {"trace_transactions", "cache_trace_replay",
                "forest_fit", "campaign_sweep"} <= set(BENCHMARKS)

    def test_write_report_json(self, tmp_path):
        results = run_benchmarks(ops=["trace_transactions"], quick=True)
        out = tmp_path / "BENCH_core.json"
        payload = write_report(results, str(out), quick=True)
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        assert on_disk["schema"] == SCHEMA
        assert on_disk["quick"] is True
        (entry,) = on_disk["results"]
        assert entry["op"] == "trace_transactions"
        assert set(entry) >= {
            "op", "n", "unit", "wall_s", "throughput",
            "baseline_wall_s", "speedup",
        }

    def test_format_results_renders_table(self):
        results = run_benchmarks(ops=["trace_transactions"], quick=True)
        text = format_results(results)
        assert "trace_transactions" in text
        assert "speedup" in text

    def test_cli_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main([
            "bench", "--quick", "--ops", "trace_transactions",
            "--out", str(out), "--no-history",
        ])
        assert code == 0
        assert out.exists()
        assert "trace_transactions" in capsys.readouterr().out


class TestBestOf:
    def test_alternates_fast_and_baseline(self):
        calls = []
        _best_of(lambda: calls.append("fast"), lambda: calls.append("base"), 3)
        assert calls == ["fast", "base"] * 3

    def test_keeps_each_sides_minimum(self, monkeypatch):
        import repro.bench as bench

        # Round durations: fast 5, 2, 4 and base 9, 7, 8 clock ticks.
        ticks = iter([0, 5, 14, 14, 16, 23, 23, 27, 35])
        monkeypatch.setattr(bench.time, "perf_counter", lambda: next(ticks))
        assert _best_of(lambda: None, lambda: None, 3) == (2, 7)


class TestForestPredictOp:
    def test_result_shape(self):
        result = bench_forest_predict(quick=True)
        assert result.op == "forest_predict"
        assert (result.n, result.unit) == (1 + 64 + 1280, "rows")
        assert result.detail["trees"] == 40
        shapes = result.detail["shapes"]
        assert list(shapes) == ["1", "64", "1280"]
        ratios = [v["speedup"] for v in shapes.values()]
        assert result.speedup == pytest.approx(
            float(np.exp(np.mean(np.log(ratios))))
        )
        assert result.wall_s == pytest.approx(
            sum(v["fast_ms"] for v in shapes.values()) / 1e3
        )

    def test_divergence_fails_before_timing(self, monkeypatch):
        import repro.ml._reference as reference

        real = reference.reference_forest_predict
        monkeypatch.setattr(
            reference, "reference_forest_predict",
            lambda forest, X: real(forest, X) + 1e-12,
        )
        with pytest.raises(AssertionError, match="diverges"):
            bench_forest_predict(quick=True)

    def test_every_op_in_committed_baseline(self):
        # --check skips ops the baseline lacks, so an op missing from
        # BENCH_core.json would never be guarded.
        committed = json.loads(open("BENCH_core.json").read())
        assert {r["op"] for r in committed["results"]} == set(BENCHMARKS)


class TestPartialDependenceOp:
    def test_result_shape(self):
        result = bench_partial_dependence(quick=True)
        assert result.op == "partial_dependence"
        assert (result.n, result.unit) == (8, "features")
        assert result.detail["trees"] == 40
        assert (result.detail["n_samples"], result.detail["n_features"]) == (64, 34)
        assert result.detail["grid_points"] >= 2 * result.n
        assert result.wall_s > 0 and result.baseline_wall_s > 0

    def test_divergence_fails_before_timing(self, monkeypatch):
        import repro.ml._reference as reference

        real = reference.reference_partial_dependence

        def skewed(*args, **kwargs):
            pd = real(*args, **kwargs)
            pd.values = pd.values + 1e-9
            return pd

        monkeypatch.setattr(reference, "reference_partial_dependence", skewed)
        with pytest.raises(AssertionError, match="diverges"):
            bench_partial_dependence(quick=True)

    def test_in_committed_baseline(self):
        committed = json.loads(open("BENCH_core.json").read())
        (entry,) = [
            r for r in committed["results"] if r["op"] == "partial_dependence"
        ]
        assert entry["speedup"] > 1.0


def _doctored(op: str, speedup: float) -> BenchResult:
    """A BenchResult with a pinned speedup (no actual timing)."""
    return BenchResult(
        op=op, n=100, unit="items", wall_s=1.0, throughput=100.0,
        baseline_wall_s=speedup, baseline_throughput=100.0 / speedup,
        speedup=speedup,
    )


def _baseline_file(tmp_path, **speedups) -> str:
    path = tmp_path / "baseline.json"
    payload = {
        "schema": SCHEMA,
        "results": [
            {"op": op, "speedup": s} for op, s in sorted(speedups.items())
        ],
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestCheckRegressions:
    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(OSError):
            check_regressions(
                {"schema": SCHEMA, "results": []},
                baseline_path=str(tmp_path / "absent.json"),
            )

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="unknown bench schema"):
            check_regressions(
                {"schema": SCHEMA, "results": []}, baseline_path=str(path)
            )

    def test_flags_past_threshold_drop(self, tmp_path):
        baseline = _baseline_file(tmp_path, trace_transactions=10.0)
        payload = {
            "schema": SCHEMA,
            "results": [{"op": "trace_transactions", "speedup": 4.0}],
        }
        (reg,) = check_regressions(payload, baseline_path=baseline)
        assert reg.op == "trace_transactions"
        assert reg.drop_pct == pytest.approx(60.0)

    def test_passes_within_threshold(self, tmp_path):
        baseline = _baseline_file(tmp_path, trace_transactions=10.0)
        payload = {
            "schema": SCHEMA,
            "results": [{"op": "trace_transactions", "speedup": 9.0}],
        }
        assert check_regressions(payload, baseline_path=baseline) == []


class TestCliCheck:
    def _run(self, argv):
        from repro.cli import main

        return main(argv)

    def test_synthetic_regression_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        # Monkeypatch the op to report a collapsed speedup: the watchdog
        # must trip and the CLI must exit non-zero.
        monkeypatch.setitem(
            BENCHMARKS, "trace_transactions",
            lambda quick=False: _doctored("trace_transactions", 1.5),
        )
        baseline = _baseline_file(tmp_path, trace_transactions=15.0)
        code = self._run([
            "bench", "--quick", "--ops", "trace_transactions",
            "--check", "--baseline", baseline, "--no-history",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "REGRESSIONS" in err
        assert "trace_transactions" in err

    def test_real_run_passes_generous_baseline(self, tmp_path, capsys):
        baseline = _baseline_file(tmp_path, trace_transactions=0.5)
        code = self._run([
            "bench", "--quick", "--ops", "trace_transactions",
            "--check", "--baseline", baseline, "--no-history",
        ])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_committed_baseline_passes(self, monkeypatch, capsys):
        # The acceptance gate: a healthy tree passes --check against the
        # committed BENCH_core.json. The doctored result reuses the
        # committed speedup so the test pins the wiring, not the timing
        # noise of the CI host.
        committed = json.loads(open("BENCH_core.json").read())
        speedups = {
            r["op"]: r["speedup"] for r in committed["results"]
        }
        for op, speedup in speedups.items():
            monkeypatch.setitem(
                BENCHMARKS, op,
                lambda quick=False, op=op, s=speedup: _doctored(op, s),
            )
        code = self._run(["bench", "--quick", "--check", "--no-history"])
        assert code == 0

    def test_check_without_out_leaves_baseline_untouched(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(
            BENCHMARKS, "trace_transactions",
            lambda quick=False: _doctored("trace_transactions", 9.0),
        )
        baseline = _baseline_file(tmp_path, trace_transactions=10.0)
        before = open(baseline).read()
        code = self._run([
            "bench", "--quick", "--ops", "trace_transactions",
            "--check", "--baseline", baseline, "--no-history",
        ])
        assert code == 0
        assert open(baseline).read() == before

    def test_history_appended(self, tmp_path, monkeypatch):
        from repro.obs import read_history

        monkeypatch.setitem(
            BENCHMARKS, "trace_transactions",
            lambda quick=False: _doctored("trace_transactions", 9.0),
        )
        history = tmp_path / "history.jsonl"
        out = tmp_path / "bench.json"
        for _ in range(2):
            self._run([
                "bench", "--quick", "--ops", "trace_transactions",
                "--out", str(out), "--history", str(history),
            ])
        entries = read_history(history)
        assert len(entries) == 2
        assert entries[0]["bench"]["results"][0]["op"] == "trace_transactions"

    def test_json_format_lists_regressions(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(
            BENCHMARKS, "trace_transactions",
            lambda quick=False: _doctored("trace_transactions", 2.0),
        )
        baseline = _baseline_file(tmp_path, trace_transactions=20.0)
        code = self._run([
            "bench", "--quick", "--ops", "trace_transactions",
            "--check", "--baseline", baseline, "--no-history",
            "--format", "json",
        ])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        (reg,) = doc["regressions"]
        assert reg["op"] == "trace_transactions"
        assert reg["drop_pct"] == pytest.approx(90.0)
