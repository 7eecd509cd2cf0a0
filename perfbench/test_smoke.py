"""Self-test of the benchmark: every workload at a toy shape, untraced and traced.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
from run import WORKLOADS  # noqa: E402  (includes paper-slice, which is run by hand)

SEED = 3
# Layer spans each workload must record. A traced function that moved would
# otherwise leave its per-layer metrics at 0.
EXPECTED_SPANS = {
    "accept-analytics": {
        "dataio.load_dataset", "dataio.save_network", "dataio.load_network",
        "dataio.consumption_summary", "leontief.build_temporal_network",
        "leontief.leontief_apply", "multinet.from_entries", "centrality.md_hits",
        "centrality.md_hits_single_period", "centrality.hits", "centrality.eig",
    },
    "accept-criticality": {
        "dataio.generate_synthetic", "dataio.save_dataset", "dataio.load_network",
        "multinet.from_entries", "flowcrit.criticality", "flowcrit.arc_criticality",
    },
    "paper-slice": {
        "dataio.load_dataset", "dataio.load_network", "leontief.leontief_apply",
        "multinet.aggregate_to_layers", "centrality.md_hits", "flowcrit.max_flow",
    },
}


def run_bench(cwd: Path, *args: str, seconds: str = "0") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", seconds, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_reports_every_metric_and_passes_checks(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        assert "metric ops_failed_frac = " in proc.stdout
    else:
        trace_file = ROOT / ".perfbench" / f"trace-{workload}-seed{SEED}.json"
        spans = json.loads(trace_file.read_text(encoding="utf-8"))["spans"]
        assert EXPECTED_SPANS[workload] <= {span[1] for span in spans}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_repetitions_count_one_pass_of_operations(workload):
    proc = run_bench(ROOT, "--workload", workload, "--trace", "0", "--smoke", seconds="2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    reps = next(line for line in proc.stdout.splitlines() if line.startswith("pipeline s "))
    assert len(reps.split()) > 3  # more than one repetition
    wl = WORKLOADS[workload]
    assert result["attempted"] == len(wl.steps) + wl.probe_pairs


def test_missing_trace_target_is_an_error(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, ("enflow.dataio", "no_such_function"), "dataio.gone")
    sys.path.insert(0, str(ROOT / "src"))
    rec = tracing.Recorder()
    with pytest.raises(tracing.TargetMissing), rec.installed():
        pass
    import enflow.dataio

    assert not hasattr(enflow.dataio.load_network, "__wrapped__")


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
