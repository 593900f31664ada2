"""Bench harness tests: record structure, trajectory persistence, and
the baseline regression gate (including a synthetic perturbation that
must trip it — the acceptance criterion for the perf gate).

The full harness runs the engine; tests here use a tiny ``scale`` and
the cheap benches so the suite stays fast.  Gate logic is exercised on
real run records, perturbed in-memory.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro import bench, obs
from repro.engine import faults

#: The cheapest real selection: micro-benches only, no engine run.
FAST = ["substrate.encode_hello", "substrate.fingerprint"]


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_METRICS_PATH", raising=False)
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    obs.TRACE.reset()
    faults.clear()
    yield
    obs.TRACE.reset()
    faults.clear()


@pytest.fixture(scope="module")
def fast_run():
    return bench.run_benches(FAST, scale=0.01)


class TestSelection:
    def test_quick_subset_is_a_subset(self):
        quick = bench.select_benches(quick=True)
        assert set(quick) < set(bench.BENCHES)
        assert "engine.parallel" not in quick
        assert "obs.overhead" not in quick

    def test_explicit_names_pass_through(self):
        assert bench.select_benches(FAST) == FAST

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="nope"):
            bench.select_benches(["nope"])


class TestRunRecord:
    def test_record_structure(self, fast_run):
        assert fast_run["schema"] == bench.TRAJECTORY_SCHEMA
        assert fast_run["python"]
        assert len(fast_run["records"]) == len(FAST)
        for record in fast_run["records"]:
            assert record["bench"] in FAST
            assert record["wall_seconds"] > 0
            assert record["records_per_second"] > 0
            assert "counters" in record and "anchors" in record
        json.dumps(fast_run)  # the whole document is JSON-safe

    def test_profile_disabled_by_default(self, fast_run):
        assert fast_run["profile"] is None

    def test_profiled_run_captures_phases(self):
        run = bench.run_benches(
            ["substrate.fingerprint"], scale=0.01, profile_mode="cprofile"
        )
        assert run["profile"]["mode"] == "cprofile"
        names = [p["name"] for p in run["profile"]["phases"]]
        assert "bench:substrate.fingerprint" in names


class TestTrajectory:
    def test_write_creates_dated_file(self, fast_run, tmp_path):
        path = bench.write_trajectory(fast_run, tmp_path)
        assert path.name == f"BENCH_{fast_run['timestamp'][:10].replace('-', '')}.json"
        document = json.loads(path.read_text())
        assert document["schema"] == bench.TRAJECTORY_SCHEMA
        assert len(document["runs"]) == 1

    def test_same_day_runs_append(self, fast_run, tmp_path):
        bench.write_trajectory(fast_run, tmp_path)
        path = bench.write_trajectory(fast_run, tmp_path)
        document = json.loads(path.read_text())
        assert len(document["runs"]) == 2


class TestBaselineGate:
    def test_self_baseline_passes(self, fast_run):
        baseline = bench.make_baseline(fast_run)
        assert bench.diff_baseline(fast_run, baseline) == []

    def test_synthetic_wall_regression_fails(self, fast_run):
        """The acceptance perturbation: shrink the baseline wall so the
        current run reads as a >2.5x slowdown."""
        baseline = bench.make_baseline(fast_run)
        baseline["records"][0]["wall_seconds"] /= 100.0
        failures = bench.diff_baseline(fast_run, baseline)
        assert len(failures) == 1
        assert "wall_seconds" in failures[0]

    def test_synthetic_throughput_regression_fails(self, fast_run):
        baseline = bench.make_baseline(fast_run)
        baseline["records"][0]["records_per_second"] *= 100.0
        failures = bench.diff_baseline(fast_run, baseline)
        assert any("records_per_second" in f for f in failures)

    def test_anchor_drift_fails_at_1e6(self, fast_run):
        """Anchors are deterministic scientific outputs: drift beyond
        relative 1e-6 is a regression even when perf is fine."""
        run = copy.deepcopy(fast_run)
        run["records"][0]["anchors"] = {"share": 90.0}
        baseline = bench.make_baseline(run)
        assert bench.diff_baseline(run, baseline) == []
        run["records"][0]["anchors"]["share"] = 90.0 + 1e-3
        failures = bench.diff_baseline(run, baseline)
        assert any("drifted" in f for f in failures)
        # Sub-tolerance float noise does not trip the gate.
        run["records"][0]["anchors"]["share"] = 90.0 + 1e-8
        assert bench.diff_baseline(run, baseline) == []

    def test_missing_anchor_fails(self, fast_run):
        run = copy.deepcopy(fast_run)
        run["records"][0]["anchors"] = {"share": 1.0}
        baseline = bench.make_baseline(run)
        run["records"][0]["anchors"] = {}
        failures = bench.diff_baseline(run, baseline)
        assert any("missing" in f for f in failures)

    def test_wall_jitter_within_tolerance_passes(self, fast_run):
        baseline = bench.make_baseline(fast_run)
        for record in baseline["records"]:
            record["wall_seconds"] *= 0.7  # current is ~1.4x: inside 2.5x
        assert bench.diff_baseline(fast_run, baseline) == []

    def test_skipped_benches_never_gate(self, fast_run):
        run = copy.deepcopy(fast_run)
        baseline = bench.make_baseline(run)
        run["records"][0] = {"bench": run["records"][0]["bench"],
                             "skipped": "platform"}
        assert bench.diff_baseline(run, baseline) == []

    def test_baseline_tolerance_override_wins(self, fast_run):
        baseline = bench.make_baseline(fast_run)
        baseline["records"][0]["wall_seconds"] /= 2.0  # 2x: inside default
        baseline["tolerances"]["wall_seconds"] = 0.5   # now only 1.5x allowed
        failures = bench.diff_baseline(fast_run, baseline)
        assert any("wall_seconds" in f for f in failures)

    def test_zero_rate_fails(self, fast_run):
        """A bench whose work never ran reports rps 0.0; that used to read
        as falsy and skip the comparison."""
        run = copy.deepcopy(fast_run)
        baseline = bench.make_baseline(run)
        baseline["records"][0]["records_per_second"] = 100.0
        run["records"][0]["records_per_second"] = 0.0
        failures = bench.diff_baseline(run, baseline)
        assert any("records_per_second is 0.0" in f for f in failures)

    @pytest.mark.parametrize("value", [None, 0.0, "missing"])
    def test_unmeasured_metric_or_wall_fails(self, fast_run, value):
        run = copy.deepcopy(fast_run)
        run["records"][0]["metrics"] = {"ratio": 0.33}
        baseline = bench.make_baseline(run)
        if value == "missing":
            run["records"][0]["metrics"] = {}
            del run["records"][0]["wall_seconds"]
        else:
            run["records"][0]["metrics"]["ratio"] = value
            run["records"][0]["wall_seconds"] = value
        failures = bench.diff_baseline(run, baseline)
        assert any("metric 'ratio' is" in f for f in failures)
        assert any("wall_seconds is" in f for f in failures)

    def test_zero_anchor_matching_baseline_passes(self, fast_run):
        run = copy.deepcopy(fast_run)
        run["records"][0]["anchors"] = {"mean": 0.0}
        assert bench.diff_baseline(run, bench.make_baseline(run)) == []

    def test_render_run_prints_dash_for_none(self, fast_run):
        run = copy.deepcopy(fast_run)
        run["records"][0]["metrics"] = {"ratio": None}
        run["records"][0]["anchors"] = {"share": None}
        text = bench.render_run(run, bench.diff_baseline(run, bench.make_baseline(run)))
        assert "ratio=-" in text and "share=-" in text

    def test_load_missing_baseline_is_none(self, tmp_path):
        assert bench.load_baseline(tmp_path / "absent.json") is None


class TestBenchCli:
    def test_cli_writes_trajectory_and_gates(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        assert main([
            "bench", *FAST, "--scale", "0.01",
            "--baseline", str(baseline_path), "--update-baseline",
        ]) == 0
        assert baseline_path.exists()
        assert list(tmp_path.glob("BENCH_*.json"))
        capsys.readouterr()

        # Second run gates against the pinned baseline and passes.
        assert main([
            "bench", *FAST, "--scale", "0.01",
            "--baseline", str(baseline_path),
        ]) == 0
        assert "gate: OK" in capsys.readouterr().out

    def test_cli_exits_1_on_regression(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        assert main([
            "bench", *FAST, "--scale", "0.01",
            "--baseline", str(baseline_path), "--update-baseline",
        ]) == 0
        # Perturb the committed baseline: pretend the past was 1000x
        # faster, so the present reads as a huge regression.
        document = json.loads(baseline_path.read_text())
        for record in document["records"]:
            record["wall_seconds"] /= 1000.0
        baseline_path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main([
            "bench", *FAST, "--scale", "0.01",
            "--baseline", str(baseline_path),
        ]) == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_cli_unknown_bench_exits_2(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["bench", "not.a.bench"]) == 2
        assert "unknown bench" in capsys.readouterr().err

    def test_missing_baseline_skips_gate(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main([
            "bench", *FAST, "--scale", "0.01",
            "--baseline", str(tmp_path / "absent.json"),
        ]) == 0
        assert "gate skipped" in capsys.readouterr().err
