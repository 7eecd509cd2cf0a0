import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from enflow import MrioPeriod, NetworkShape, SourceClass, load_network
from enflow.cli import main
from enflow.dataio import CodeBook, MrioDataset, save_dataset
from enflow.flowcrit import _BlockingFlowEngine


def run(*argv) -> int:
    return main([str(a) for a in argv])


def synth_args(out, shape="3,2,2", seed=5, density="0.6"):
    return ["synth", "--shape", shape, "--seed", seed, "--density", density, "--out", out]


def all_csv_bytes(directory):
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(Path(directory).rglob("*.csv"))
    }


@pytest.fixture()
def workspace(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert run(*synth_args(data)) == 0
    assert run("build", "--manifest", data / "manifest.json", "--out", out) == 0
    return data, out


def test_full_pipeline(workspace, capsys):
    data, out = workspace
    for source in ("all", "renewable", "nonrenewable"):
        assert (out / f"network_{source}.csv").exists()
    assert run("mdhits", "--out", out, "--per-year") == 0
    assert run("hits", "--out", out) == 0
    assert run("eig", "--out", out, "--largest-scc") == 0
    assert run("criticality", "--out", out, "--top", 5) == 0
    assert run("consumption", "--manifest", data / "manifest.json", "--out", out) == 0
    for name in (
        "mdhits_all.csv",
        "mdhits_all_by_year.csv",
        "hits_all.csv",
        "eig_all.csv",
        "criticality_all_1990.csv",
        "criticality_all_top.csv",
        "consumption_country.csv",
        "consumption_world.csv",
        "incidence_country.csv",
    ):
        assert (out / name).exists(), name


def test_pipeline_deterministic(tmp_path):
    outputs = []
    for run_dir in ("one", "two"):
        data = tmp_path / run_dir / "data"
        out = tmp_path / run_dir / "out"
        assert run(*synth_args(data)) == 0
        assert run("build", "--manifest", data / "manifest.json", "--out", out) == 0
        assert run("mdhits", "--out", out, "--per-year") == 0
        assert run("criticality", "--out", out, "--mode", "sampled", "--pairs", 3, "--seed", 7) == 0
        assert run("consumption", "--manifest", data / "manifest.json", "--out", out) == 0
        outputs.append({**all_csv_bytes(data), **all_csv_bytes(out)})
    assert outputs[0] == outputs[1]


def test_build_arc_counts_match_recount_oracle(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert run(*synth_args(data, shape="2,2,2", seed=3, density="0.7")) == 0
    assert run("build", "--manifest", data / "manifest.json", "--out", out, "--source", "all") == 0

    # independent recount: positive entries of the dense termwise evaluation
    from enflow import DatasetManifest, load_dataset
    from oracles import class_consumption, dense_embodied_flows, NONRENEWABLE, RENEWABLE

    dataset = load_dataset(DatasetManifest.from_json(data / "manifest.json"))
    expected = {}
    for period in dataset.periods:
        c = class_consumption(period.energy_consumption, 4, RENEWABLE + NONRENEWABLE)
        dense = dense_embodied_flows(
            2, 2, period.intermediate_use.toarray(), period.total_output, c,
            period.final_demand,
        )
        expected[str(period.label)] = int((dense > 0).sum())
    with open(out / "network_all.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    counts = {}
    for row in rows:
        counts[row["year"]] = counts.get(row["year"], 0) + 1
    assert counts == expected


def test_source_split_adds_up(workspace):
    _, out = workspace
    total, _ = load_network(out, SourceClass.ALL)
    ren, _ = load_network(out, SourceClass.RENEWABLE)
    non, _ = load_network(out, SourceClass.NONRENEWABLE)
    for m_all, m_ren, m_non in zip(total.matrices, ren.matrices, non.matrices):
        assert np.allclose(
            m_all.matrix.toarray(),
            m_ren.matrix.toarray() + m_non.matrix.toarray(),
            rtol=1e-9,
            atol=1e-12,
        )


def test_single_period_mdhits_matches_per_year(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert run(*synth_args(data, shape="3,2,1")) == 0
    assert run("build", "--manifest", data / "manifest.json", "--out", out) == 0
    assert run("mdhits", "--out", out, "--per-year", "--source", "all") == 0

    whole = {}
    with open(out / "mdhits_all.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            whole[(row["component"], row["label"])] = float(row["score"])
    for key, score in whole.items():
        if key[0] == "time":
            assert score == 1.0
    with open(out / "mdhits_all_by_year.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "per-year table is empty"
    for row in rows:
        assert row["year"] == "1990"
        expected = whole[(row["component"], row["label"])]
        assert float(row["score"]) == pytest.approx(expected, abs=1e-9)


def test_years_filter(workspace):
    _, out = workspace
    assert run("hits", "--out", out, "--years", "1991:1991", "--source", "all") == 0
    with open(out / "hits_all.csv", newline="") as fh:
        years = {row["year"] for row in csv.DictReader(fh)}
    assert years == {"1991"}


def test_validation_exit_codes(tmp_path):
    # no input mode
    assert run("build", "--out", tmp_path) == 2
    # both input modes
    assert run("build", "--manifest", "m.json", "--synthetic-spec", "s.json") == 2
    # malformed years
    assert run("build", "--manifest", "m.json", "--years", "bogus") == 2
    # analysis before build
    assert run("mdhits", "--out", tmp_path / "nothing") == 2
    # bad gamma
    assert run("mdhits", "--out", tmp_path, "--gamma", "1,2") == 2


def test_argparse_usage_error_is_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run("criticality", "--mode", "bogus")
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["criticality", "consumption"])
@pytest.mark.parametrize("flag", ["--tol", "--max-iter"])
def test_solver_flags_rejected_where_nothing_iterates(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command, flag, "1e-3" if flag == "--tol" else "10")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_flow_certificate_failure_exits_3(workspace, monkeypatch, capsys):
    _, out = workspace
    augment = _BlockingFlowEngine._augment

    def corrupted(self, cap, source, target, limit=math.inf):
        pushed = augment(self, cap, source, target, limit)
        cap[1] += 1.0  # phantom flow on arc 0, unbalanced at both ends
        return pushed

    monkeypatch.setattr(_BlockingFlowEngine, "_augment", corrupted)
    assert run("criticality", "--out", out, "--source", "all") == 3
    assert "numerical error: flow" in capsys.readouterr().err


def reducible_dataset(tmp_path):
    # identity requirements and a single demanded sector: the embodied
    # network is one self-loop, so the supra matrix is reducible
    period = MrioPeriod(
        2000,
        NetworkShape(2, 1),
        np.zeros((2, 2)),
        np.ones(2),
        {"coal": np.array([3.0, 0.0])},
        {(0, 0, 0): 2.0},
    )
    book = CodeBook(sectors=(("S1", "s"), ("S2", "s")), countries=(("C1", "c"),))
    dataset = MrioDataset(periods=(period,), codebook=book)
    return save_dataset(dataset, tmp_path / "reducible")


def test_numerical_exit_code_for_reducible_eig(tmp_path, capsys):
    manifest = reducible_dataset(tmp_path)
    out = tmp_path / "out"
    assert run("build", "--manifest", manifest, "--out", out, "--source", "all") == 0
    assert run("eig", "--out", out, "--source", "all") == 3
    assert "strongly connected" in capsys.readouterr().err


def test_numerical_exit_code_for_zero_baseline(tmp_path):
    # single intra-country arc aggregates onto the diagonal: no flow possible
    period = MrioPeriod(
        2000,
        NetworkShape(1, 2),
        np.zeros((2, 2)),
        np.ones(2),
        {"coal": np.array([3.0, 0.0])},
        {(0, 0, 0): 2.0},
    )
    book = CodeBook(sectors=(("S1", "s"),), countries=(("C1", "c"), ("C2", "c")))
    manifest = save_dataset(MrioDataset(periods=(period,), codebook=book), tmp_path / "d")
    out = tmp_path / "out"
    assert run("build", "--manifest", manifest, "--out", out, "--source", "all") == 0
    assert run("criticality", "--out", out, "--source", "all") == 3


def test_io_exit_code(tmp_path):
    data = tmp_path / "data"
    assert run(*synth_args(data)) == 0
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = run("build", "--manifest", data / "manifest.json", "--out", blocker / "sub")
    assert code == 4


def test_empty_energy_warns_and_builds_empty(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(*synth_args(data)) == 0
    (data / "energy.csv").write_text("year,country,sector,source,value\n")
    out = tmp_path / "out"
    assert run("build", "--manifest", data / "manifest.json", "--out", out, "--source", "all") == 0
    assert "empty" in capsys.readouterr().err
    net, _ = load_network(out, SourceClass.ALL)
    assert net.total_weight == 0.0


def test_build_min_weight_and_self_loops(tmp_path):
    data = tmp_path / "data"
    out_all = tmp_path / "keep"
    out_cut = tmp_path / "cut"
    assert run(*synth_args(data, shape="2,2,1", density="1.0")) == 0
    assert run("build", "--manifest", data / "manifest.json", "--out", out_all, "--source", "all") == 0
    assert (
        run(
            "build", "--manifest", data / "manifest.json", "--out", out_cut,
            "--source", "all", "--drop-self-loops", "--min-weight", "1e9",
        )
        == 0
    )
    full, _ = load_network(out_all, SourceClass.ALL)
    cut, _ = load_network(out_cut, SourceClass.ALL)
    assert full.total_weight > 0
    assert cut.total_weight == 0.0


def test_synth_spec_json_input(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "n_sectors": 2, "n_countries": 2, "n_periods": 2,
        "density": 0.8, "seed": 3, "rho_cap": 0.85, "start_year": 2001,
    }))
    out = tmp_path / "out"
    assert run("build", "--synthetic-spec", spec_path, "--out", out, "--source", "all") == 0
    net, _ = load_network(out, SourceClass.ALL)
    assert net.labels == (2001, 2002)
