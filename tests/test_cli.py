import csv
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import enflow
from enflow import MrioPeriod, NetworkShape, SourceClass, cli, dataio, flowcrit, load_network
from enflow.cli import main
from enflow.dataio import CodeBook, MrioDataset, save_dataset

from accounts import energy_array


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


def test_analysis_commands_do_not_read_the_csv_export(workspace, tmp_path, capsys):
    _, out = workspace
    bare = tmp_path / "bare"
    shutil.copytree(out, bare)
    exports = sorted(bare.glob("network_*.csv"))
    assert len(exports) == 3
    for path in exports:
        path.unlink()
    printed = {}
    for directory in (out, bare):
        capsys.readouterr()
        assert run("mdhits", "--out", directory, "--per-year") == 0
        assert run("hits", "--out", directory) == 0
        assert run("eig", "--out", directory, "--largest-scc") == 0
        assert run("criticality", "--out", directory, "--top", 5) == 0
        printed[directory] = capsys.readouterr().out.replace(str(directory), "OUT")
    assert printed[out] == printed[bare]
    results = {name: data for name, data in all_csv_bytes(out).items()
               if not name.startswith("network_")}
    assert len(results) > 10 and results == all_csv_bytes(bare)


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


def test_criticality_prints_how_each_carrying_arc_was_settled(workspace, capsys):
    _, out = workspace
    assert run("criticality", "--out", out, "--source", "all") == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("all ")]
    net, _ = load_network(out, SourceClass.ALL)
    assert len(lines) == len(net.periods)
    for line, (label, matrix) in zip(lines, net.periods):
        report = flowcrit.country_level_criticality(matrix)
        assert line.startswith(f"all {label}: ")
        assert line.endswith(f" settled_by_cut={report.settled_by_cut} settled_by_two_hop="
                             f"{report.settled_by_two_hop} resolved={report.resolved}")


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
    from accounts import demand_dict, energy_dict
    from oracles import class_consumption, dense_embodied_flows, NONRENEWABLE, RENEWABLE

    dataset = load_dataset(DatasetManifest.from_json(data / "manifest.json"))
    expected = {}
    for period in dataset.periods:
        c = class_consumption(energy_dict(period), 4, RENEWABLE + NONRENEWABLE)
        dense = dense_embodied_flows(
            2, 2, period.intermediate_use.toarray(), period.total_output, c,
            demand_dict(period),
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
    # no manifest
    assert run("build", "--out", tmp_path) == 2
    # malformed years
    assert run("build", "--manifest", "m.json", "--years", "bogus") == 2
    # analysis before build
    assert run("mdhits", "--out", tmp_path / "nothing") == 2
    # bad gamma
    assert run("mdhits", "--out", tmp_path, "--gamma", "1,2") == 2


@pytest.mark.parametrize("argv, message", [
    (["hits", "--years", "1992:1990"], "--years range is empty: '1992:1990'"),
    (["mdhits", "--gamma", "a,b"], "--gamma must be five comma-separated numbers, got 'a,b'"),
    (["synth", "--shape", "4,3"], "--shape must look like N,L,T, got '4,3'"),
])
def test_malformed_flag_values_exit_2_naming_the_flag(tmp_path, capsys, argv, message):
    assert run(*argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("argv", [
    ["build", "--min-weight", "1"],
    ["build", "--drop-self-loops"],
    ["build", "--synthetic-spec", "s.json"],
    ["consumption", "--synthetic-spec", "s.json"],
    ["consumption", "--source", "renewable"],
    ["synth", "--rho-cap", "0.5"],
])
def test_removed_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--manifest", "m.json")
    assert exc.value.code == 2
    # The removed flag itself, not only synth's --manifest, is unrecognized.
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_flow_certificate_failure_exits_3(workspace, monkeypatch, capsys):
    _, out = workspace
    init = flowcrit.FlowNetwork.__init__

    def corrupted(self, node_count, arcs):
        init(self, node_count, arcs)
        self.base_cap[1] = 1.0  # phantom flow on arc 0, unbalanced at both ends

    monkeypatch.setattr(flowcrit.FlowNetwork, "__init__", corrupted)
    assert run("criticality", "--out", out, "--source", "all") == 3
    assert "numerical error: all 1990: flow" in capsys.readouterr().err


def test_out_of_memory_exits_4(tmp_path, capsys):
    # numpy refuses the 728 TiB transaction matrix at once: nothing is allocated.
    assert run("synth", "--shape", "100000,100,1", "--out", tmp_path / "data") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


def no_memory_kernel(monkeypatch, together: int = 1) -> list:
    """Stub the kernel: each call records its node and pair counts and fails
    once ``together`` calls have reached it, so that none of them can be
    dropped as queued behind an earlier failure."""
    calls, met = [], threading.Barrier(together)

    class NoMemory:
        def solve_pairs(self, n, *args):
            calls.append((n, args[6]))  # node and pair counts
            met.wait(timeout=30)
            return 3  # the kernel's code when its malloc fails

    monkeypatch.setattr(flowcrit, "_kernel", NoMemory)
    return calls


def test_kernel_out_of_memory_exits_4(workspace, monkeypatch, capsys):
    _, out = workspace
    message = "error: out of memory: max-flow kernel is out of memory\n"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a worker per period
    calls = no_memory_kernel(monkeypatch, together=2)
    assert run("criticality", "--out", out, "--source", "all") == 4
    assert calls == [(2, 2)] * 2  # each period's call, for both pairs of its 2 countries
    assert capsys.readouterr().err == message
    # A class that runs out of memory does not stop the later classes.
    calls.clear()
    assert run("criticality", "--out", out) == 4
    assert calls == [(2, 2)] * 2 * 3
    assert capsys.readouterr().err == message * 3


@pytest.mark.parametrize("flags", [[], ["--seed", -1]])
def test_criticality_is_exact_without_mode_at_any_size(tmp_path, monkeypatch, capsys, flags):
    # 251 countries; the kernel is stubbed, as the exact run takes minutes.
    data, out = tmp_path / "data", tmp_path / "out"
    assert run(*synth_args(data, shape="1,251,1", seed=1, density="0.05")) == 0
    assert run("build", "--manifest", data / "manifest.json", "--source", "all",
               "--out", out) == 0
    calls = no_memory_kernel(monkeypatch)
    assert run("criticality", "--out", out, "--source", "all", *flags) == 4
    assert calls == [(251, 251 * 250)]  # every ordered pair, not a sample; the seed is unused
    assert capsys.readouterr().err == "error: out of memory: max-flow kernel is out of memory\n"


def test_missing_compiler_exits_4(workspace, monkeypatch, capsys):
    _, out = workspace
    monkeypatch.setitem(sysconfig.get_config_vars(), "CC", "/nonexistent/enflow-cc")
    flowcrit._kernel.cache_clear()  # a failed build is not cached either
    assert run("criticality", "--out", out, "--source", "all") == 4
    err = capsys.readouterr().err
    assert "i/o error: cannot compile _maxflow.c with /nonexistent/enflow-cc" in err
    assert "Traceback" not in err


def test_a_compiler_that_fails_exits_4_naming_it(workspace, tmp_path, monkeypatch, capsys):
    _, out = workspace
    cc = tmp_path / "failing-cc"
    cc.write_text("#!/bin/sh\necho 'failing-cc: no output written' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setitem(sysconfig.get_config_vars(), "CC", str(cc))
    flowcrit._kernel.cache_clear()
    assert run("criticality", "--out", out, "--source", "all") == 4
    assert capsys.readouterr().err == (f"i/o error: cannot compile _maxflow.c with {cc}: "
                                       "failing-cc: no output written\n")
    assert not list(out.glob("criticality_*"))


def test_a_bad_record_outranks_a_missing_compiler(workspace, monkeypatch, capsys):
    # The first period is handed over, and its kernel build fails, before the
    # read reaches the bad record; the record's error is still the one reported.
    _, out = workspace
    monkeypatch.setitem(sysconfig.get_config_vars(), "CC", "/nonexistent/enflow-cc")
    flowcrit._kernel.cache_clear()
    monkeypatch.setattr(dataio, "_ARC_CHUNK", 1)
    builds, build = [], flowcrit._build_kernel

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(flowcrit, "_build_kernel", counted)
    path = out / "network_all.npy"
    arcs = np.load(path)
    arcs["weight"][-1] = -1.0
    np.save(path, arcs)
    assert run("criticality", "--out", out, "--source", "all") == 2
    assert capsys.readouterr().err == (f"error: {path}: record {arcs.size - 1}: "
                                       "negative weight -1.0\n")
    assert builds == [1]


def counted_kernel(monkeypatch, hold=None) -> list:
    """Count the kernel's calls, one entry per call in call order; ``hold(k)``,
    when given, runs on the worker before call k reaches the kernel."""
    kernel, calls = flowcrit._kernel(), []

    class Counted:
        def solve_pairs(self, *args):
            calls.append(len(calls))
            if hold is not None:
                hold(calls[-1])
            return kernel.solve_pairs(*args)

    monkeypatch.setattr(flowcrit, "_kernel", Counted)
    return calls


def test_a_bad_record_after_the_window_stops_criticality_before_any_file(tmp_path, monkeypatch,
                                                                          capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    assert run(*synth_args(data, shape="3,2,22")) == 0  # 1990 to 2011
    assert run("build", "--manifest", data / "manifest.json", "--source", "all", "--out", out) == 0
    path = out / "network_all.npy"
    arcs = np.load(path)
    k = int(np.flatnonzero(arcs["year"] == 2010)[0])
    arcs["weight"][k] = -2.0
    np.save(path, arcs)
    monkeypatch.setattr(dataio, "_ARC_CHUNK", 8)  # the window is read long before record k
    start = cli.start_country_criticality

    def finished(*args, **kwargs):  # the read goes on once the period's kernel has run
        net, future = start(*args, **kwargs)
        future.exception(timeout=30)
        return net, future

    monkeypatch.setattr(cli, "start_country_criticality", finished)
    calls = counted_kernel(monkeypatch)
    capsys.readouterr()
    assert run("criticality", "--years", "1990:1992", "--source", "all", "--out", out) == 2
    assert capsys.readouterr() == ("", f"error: {path}: record {k}: negative weight -2.0\n")
    assert calls == [0, 1, 2]  # the window's kernels ran before the read failed
    assert not list(out.glob("criticality_*"))


def empty_1991(tmp_path) -> Path:
    """A 1990 to 1993 workspace whose "all" arc list has no 1991 records,
    although network_meta.json lists the year."""
    data, out = tmp_path / "data", tmp_path / "out"
    assert run(*synth_args(data, shape="3,2,4")) == 0
    assert run("build", "--manifest", data / "manifest.json", "--out", out) == 0
    arcs = np.load(out / "network_all.npy")
    np.save(out / "network_all.npy", arcs[arcs["year"] != 1991])
    return out


def test_a_failing_middle_period_keeps_the_earlier_files_and_scores_the_later_classes(
        tmp_path, capsys):
    out = empty_1991(tmp_path)
    assert run("criticality", "--out", out) == 3
    assert capsys.readouterr().err == ("numerical error: all 1991: baseline total max flow is "
                                       "zero; the criticality index is undefined\n")
    assert sorted(p.name for p in out.glob("criticality_all_*")) == ["criticality_all_1990.csv"]
    for source in ("renewable", "nonrenewable"):
        assert len(list(out.glob(f"criticality_{source}_*"))) == 5


def test_the_first_failure_drops_the_kernel_calls_still_queued(tmp_path, monkeypatch, capsys):
    # One worker. 1992's call holds it until 1993's queued call is cancelled,
    # which the failure of 1991, collected meanwhile, must do.
    out = empty_1991(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    futures, start = [], cli.start_country_criticality

    def recorded(*args, **kwargs):
        net, future = start(*args, **kwargs)
        futures.append(future)
        return net, future

    def hold(k):
        deadline = time.monotonic() + 30
        while k == 2 and not (len(futures) == 4 and futures[3].cancelled()):
            assert time.monotonic() < deadline, "1993's call was not cancelled"
            time.sleep(0.001)

    monkeypatch.setattr(cli, "start_country_criticality", recorded)
    calls = counted_kernel(monkeypatch, hold)
    assert run("criticality", "--out", out, "--source", "all") == 3
    assert "numerical error: all 1991: baseline total max flow is zero" in capsys.readouterr().err
    assert calls == [0, 1, 2] and futures[3].cancelled()
    assert sorted(p.name for p in out.glob("criticality_*")) == ["criticality_all_1990.csv"]


def test_kernel_source_compiles_without_warnings(tmp_path):
    # the kernel's own flags: -O2 turns on the flow analysis behind some warnings
    source = Path(flowcrit.__file__).with_name("_maxflow.c")
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {cc[0]}")
    cmd = [*cc, *flowcrit._CFLAGS, "-Wall", "-Wextra", "-Wpedantic", "-Werror",
           "-o", tmp_path / "k.so", source]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def reducible_dataset(tmp_path):
    # identity requirements and a single demanded sector: the embodied
    # network is one self-loop, so the supra matrix is reducible
    period = MrioPeriod(
        2000,
        NetworkShape(2, 1),
        np.zeros((2, 2)),
        np.ones(2),
        energy_array(2, coal=[3.0, 0.0]),
        np.array([[2.0], [0.0]]),
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
        energy_array(2, coal=[3.0, 0.0]),
        np.array([[2.0, 0.0], [0.0, 0.0]]),
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


def run_with_stdout_closed(*argv, unbuffered):
    """Run the CLI in a child process whose standard output is a pipe that
    nobody reads, as in ``enflow ... | head -1`` once ``head`` has exited."""
    src = str(Path(enflow.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "enflow.cli", *map(str, argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
        )
    finally:
        os.close(write_end)


def all_file_bytes(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv", [
    ["build", "--manifest", "{data}/manifest.json"],
    ["mdhits", "--per-year"],
    ["hits"],
    ["eig", "--largest-scc"],
    ["criticality", "--mode", "exact"],
], ids=lambda argv: argv[0])
def test_a_closed_stdout_drops_progress_but_writes_every_file(workspace, tmp_path, argv):
    data, out = workspace
    argv = [arg.format(data=data) for arg in argv]
    expected = tmp_path / "expected"
    if argv[0] != "build":
        shutil.copytree(out, expected)
    assert run(*argv, "--out", expected) == 0
    for unbuffered in (False, True):
        piped = tmp_path / f"piped-{unbuffered}"
        if argv[0] != "build":
            shutil.copytree(out, piped)
        done = run_with_stdout_closed(*argv, "--out", piped, unbuffered=unbuffered)
        assert (done.returncode, done.stderr) == (0, "")
        assert all_file_bytes(piped) == all_file_bytes(expected)


def test_eig_names_a_largest_component_of_one_node(tmp_path, capsys):
    # Each class holds one arc, 0 -> 1: the largest component is a node without an arc.
    data, out = tmp_path / "data", tmp_path / "out"
    assert run(*synth_args(data, shape="1,2,1", seed=3, density="0.5")) == 0
    assert run("build", "--manifest", data / "manifest.json", "--out", out) == 0
    capsys.readouterr()
    assert run("eig", "--largest-scc", "--out", out) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"numerical error: {source} 1990: eigenvector centrality is undefined on the largest "
        "strongly connected component: it is node 1 alone, without a self-loop"
        for source in ("all", "renewable", "nonrenewable")
    ]


def test_hits_converges_on_the_small_gap_renewable_periods(tmp_path):
    # Seed 3, renewable, 1996: (sigma2/sigma1)^2 of the period is 0.9987.
    data, out = tmp_path / "data", tmp_path / "out"
    assert run(*synth_args(data, shape="26,12,27", seed=3, density="0.05")) == 0
    assert run("build", "--manifest", data / "manifest.json", "--out", out,
               "--source", "renewable") == 0
    assert run("hits", "--out", out, "--source", "renewable") == 0


def test_build_frees_each_class_network_before_the_next(tmp_path, monkeypatch, capsys):
    # Small read and write chunks, so that the networks set the peak.
    monkeypatch.setattr(dataio, "_TABLE_CHUNK", 64)
    monkeypatch.setattr(dataio, "_CHUNK", 64)
    data, out = tmp_path / "data", tmp_path / "out"
    assert run(*synth_args(data, shape="6,6,20", density="1.0")) == 0
    peaks = {}
    for sources in (["--source", "all"], []):
        argv = ["build", "--manifest", data / "manifest.json", *sources, "--out", out]
        assert run(*argv) == 0
        tracemalloc.start()
        try:
            assert run(*argv) == 0
            peaks[len(sources)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    net, _ = load_network(out, SourceClass.ALL)
    nbytes = sum(m.matrix.data.nbytes + m.matrix.indices.nbytes + m.matrix.indptr.nbytes
                 for m in net.matrices)
    # Holding one class's network while the next is built adds most of it.
    assert peaks[0] - peaks[2] < nbytes / 2, (peaks, nbytes)


def test_empty_energy_warns_and_builds_empty(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(*synth_args(data)) == 0
    (data / "energy.csv").write_text("year,country,sector,source,value\n")
    out = tmp_path / "out"
    assert run("build", "--manifest", data / "manifest.json", "--out", out, "--source", "all") == 0
    assert "empty" in capsys.readouterr().err
    net, _ = load_network(out, SourceClass.ALL)
    assert net.total_weight == 0.0


def _renewable_1991_empty(tmp_path):
    """Data whose renewable 1991 period has no energy use; returns the data dir."""
    from oracles import RENEWABLE

    data = tmp_path / "data"
    assert run(*synth_args(data, shape="4,3,2", seed=2)) == 0
    energy = data / "energy.csv"
    lines = energy.read_text().splitlines()
    energy.write_text("".join(f"{line}\n" for line in lines
                              if not (line.startswith("1991,") and line.split(",")[3] in RENEWABLE)))
    return data


def test_an_empty_period_is_named_by_build_and_every_scoring_command(tmp_path, capsys):
    data, out = _renewable_1991_empty(tmp_path), tmp_path / "out"
    capsys.readouterr()
    assert run("build", "--manifest", data / "manifest.json", "--out", out) == 0
    assert capsys.readouterr().err == "warning: renewable 1991: network is empty\n"
    for argv in (["hits"], ["eig", "--largest-scc"], ["criticality"], ["mdhits", "--per-year"]):
        assert run(*argv, "--out", out) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("numerical error: renewable 1991: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, written", [
    (["hits"], "hits_nonrenewable.csv"),
    (["eig", "--largest-scc"], "eig_nonrenewable.csv"),
    (["criticality"], "criticality_nonrenewable_top.csv"),
    (["mdhits", "--per-year"], "mdhits_nonrenewable_by_year.csv"),
])
def test_a_failing_class_does_not_stop_the_later_classes(tmp_path, capsys, argv, written):
    data, out = _renewable_1991_empty(tmp_path), tmp_path / "out"
    assert run("build", "--manifest", data / "manifest.json", "--out", out) == 0
    assert run(*argv, "--out", out) == 3
    assert (out / written).exists() and (out / written.replace("nonrenewable", "all")).exists()
    # Alone, the later class scores to the same bytes.
    scored = (out / written).read_bytes()
    assert run(*argv, "--source", "nonrenewable", "--out", out) == 0
    assert (out / written).read_bytes() == scored


def test_every_failing_class_is_reported_and_the_first_sets_the_exit_code(tmp_path, capsys):
    data, out = _renewable_1991_empty(tmp_path), tmp_path / "out"
    assert run("build", "--manifest", data / "manifest.json", "--out", out,
               "--source", "renewable") == 0
    capsys.readouterr()
    # "all" has no artifact (exit 2); renewable 1991 is empty (exit 3).
    assert run("hits", "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and "network artifact for source 'all' not found" in err[0]
    assert err[1].startswith("numerical error: renewable 1991: ")
    assert "'nonrenewable' not found" in err[2]


def test_synth_spec_json_input(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "n_sectors": 2, "n_countries": 2, "n_periods": 2,
        "density": 0.8, "seed": 3, "rho_cap": 0.85, "start_year": 2001,
    }))
    data, out = tmp_path / "data", tmp_path / "out"
    assert run("synth", "--synthetic-spec", spec_path, "--out", data) == 0
    assert run("build", "--manifest", data / "manifest.json", "--out", out, "--source", "all") == 0
    net, _ = load_network(out, SourceClass.ALL)
    assert net.labels == (2001, 2002)


def test_eig_converges_on_the_renewable_2008_period(tmp_path, capsys):
    # From a uniform start, the shifted power iteration needs more than the
    # default 10,000 iterations on this period.
    data, out = tmp_path / "data", tmp_path / "out"
    assert run(*synth_args(data, shape="26,12,27", seed=1, density="0.05")) == 0
    assert run("build", "--manifest", data / "manifest.json", "--out", out,
               "--source", "renewable", "--years", "2008:2008") == 0
    assert run("eig", "--out", out, "--source", "renewable", "--largest-scc") == 0
    assert "renewable 2008: spectral radius" in capsys.readouterr().out
    with (out / "eig_renewable.csv").open() as handle:
        scores = [float(row["score"]) for row in csv.DictReader(handle)]
    assert len(scores) == 26 * 12 and min(scores) >= 0
    assert sum(scores) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("source", ["flag", "spec"])
def test_negative_synthetic_seed_exits_2(tmp_path, capsys, source):
    if source == "flag":
        argv = ["synth", "--seed", -1, "--out", tmp_path / "data"]
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": -1}))
        argv = ["synth", "--synthetic-spec", spec, "--out", tmp_path / "data"]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0, got -1" in err and "Traceback" not in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("argv, message", [
    (["eig", "--max-iter", "-5"], "argument --max-iter: expected a finite int >= 1, got -5"),
    (["eig", "--tol", "0"], "argument --tol: expected a finite float > 0, got 0"),
    (["mdhits", "--tol", "-1"], "argument --tol: expected a finite float > 0, got -1"),
    (["mdhits", "--max-iter", "0"], "argument --max-iter: expected a finite int >= 1, got 0"),
    (["hits", "--tol", "nan"], "argument --tol: expected a finite float > 0, got nan"),
    (["hits", "--tol", "inf"], "argument --tol: expected a finite float > 0, got inf"),
    (["build", "--max-iter", "0", "--manifest", "{data}/manifest.json"],
     "argument --max-iter: expected a finite int >= 1, got 0"),
    (["build", "--tol", "-0.5", "--manifest", "{data}/manifest.json"],
     "argument --tol: expected a finite float > 0, got -0.5"),
    (["eig", "--max-iter", "1.5"], "argument --max-iter: invalid int value: '1.5'"),
    (["consumption", "--top", "-2", "--manifest", "{data}/manifest.json"],
     "argument --top: expected a finite int >= 1, got -2"),
    (["criticality", "--top", "0"], "argument --top: expected a finite int >= 1, got 0"),
    (["criticality", "--source", "all", "--mode", "sampled", "--pairs", "5", "--seed", "-1"],
     "sampling seed must be >= 0, got -1"),
    (["mdhits", "--gamma", "nan,0.2,0.2,0.2,0.2"],
     "every gamma entry must lie in (0, 1], got [nan, 0.2, 0.2, 0.2, 0.2]"),
    (["criticality", "--pairs", "0", "--source", "all"],
     "argument --pairs: expected a finite int >= 1, got 0"),
    (["criticality", "--pairs", "-3", "--mode", "sampled"],
     "argument --pairs: expected a finite int >= 1, got -3"),
    (["criticality", "--pairs", "-3", "--mode", "exact"],
     "argument --pairs: expected a finite int >= 1, got -3"),
    (["criticality", "--mode", "sampled", "--seed", "-1"], "sampling seed must be >= 0, got -1"),
    (["mdhits", "--gamma", "2,0.2,0.2,0.2,0.2"],
     "every gamma entry must lie in (0, 1], got [2.0, 0.2, 0.2, 0.2, 0.2]"),
    (["mdhits", "--gamma", "1,2"], "gamma must have exactly 5 entries, got shape (2,)"),
])
def test_out_of_range_flags_exit_2(workspace, capsys, argv, message):
    data, out = workspace
    capsys.readouterr()
    try:
        code = run(*(a.format(data=data) for a in argv), "--out", out)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    # Checked once before any network loads, not once per source class.
    assert err.count(message) == 1 and "Traceback" not in err


def test_importing_the_cli_leaves_scipy_linalg_and_csgraph_unloaded():
    # Only eig and hits need them; synth, build and the rest skip their import cost.
    src = str(Path(enflow.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, enflow.cli; "
            "print([m for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    assert done.stdout == "[]\n"


SCIPY_CHECK = """
import json, sys
argv = json.loads(sys.argv[1])
if argv:
    from enflow.cli import main
    code = main(argv)
else:
    import enflow
    code = 0
print(code, any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


def test_synth_criticality_and_consumption_never_import_scipy(tmp_path):
    # None builds a SciPy matrix, so a cold process skips SciPy's import cost.
    data, out = tmp_path / "data", tmp_path / "out"
    src = str(Path(enflow.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cold(*argv):
        done = subprocess.run([sys.executable, "-c", SCIPY_CHECK, json.dumps(argv)],
                              capture_output=True, text=True, env=env, timeout=300, check=True)
        return done.stdout.splitlines()[-1]

    assert cold() == "0 False"
    assert cold(*map(str, synth_args(data, shape="5,4,3"))) == "0 False"
    assert run("build", "--manifest", data / "manifest.json", "--source", "all", "--out", out) == 0
    assert cold("criticality", "--source", "all", "--out", str(out)) == "0 False"
    manifest = str(data / "manifest.json")
    assert cold("consumption", "--manifest", manifest, "--out", str(out)) == "0 False"


# ---------------------------------------------------------------------------
# consumption reads the code lists and energy.csv only
# ---------------------------------------------------------------------------

CONSUMPTION_TABLES = [f"{kind}_{axis}.csv" for kind in ("consumption", "incidence")
                      for axis in ("country", "sector")]
CONSUMPTION_TABLES += ["consumption_world.csv", "consumption_top_countries.csv"]


def consumption_tables(data, out, *flags):
    """The six consumption tables as text, or the exit code when it is not 0."""
    code = run("consumption", "--manifest", data / "manifest.json", "--out", out, *flags)
    if code:
        return code
    return {name: (out / name).read_text(encoding="utf-8") for name in CONSUMPTION_TABLES}


def drop_year(path, year):
    """Delete the records of ``year`` from a canonical dataset table."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith(f"{year},")),
                    encoding="utf-8")


@pytest.fixture()
def dataset_dir(tmp_path):
    data = tmp_path / "data"
    assert run(*synth_args(data, shape="3,2,3")) == 0
    return data


def test_consumption_ignores_faults_in_the_tables_it_does_not_read(dataset_dir, tmp_path, capsys):
    clean = consumption_tables(dataset_dir, tmp_path / "clean")
    for name in ("transactions.csv", "final_demand.csv", "outputs.csv"):
        with open(dataset_dir / name, "a", encoding="utf-8") as fh:
            fh.write("not,a,record\n")
    assert consumption_tables(dataset_dir, tmp_path / "corrupt") == clean
    capsys.readouterr()
    assert run("build", "--manifest", dataset_dir / "manifest.json", "--out", tmp_path / "net") == 2
    assert "outputs.csv:" in capsys.readouterr().err


def test_consumption_builds_no_period_and_never_loads_the_dataset(dataset_dir, tmp_path,
                                                                  monkeypatch):
    import enflow.cli
    import enflow.dataio

    clean = consumption_tables(dataset_dir, tmp_path / "clean")

    def refuse(*args, **kwargs):
        raise AssertionError("consumption must read energy.csv only")

    monkeypatch.setattr(enflow.cli, "load_dataset", refuse)
    monkeypatch.setattr(enflow.dataio, "load_dataset", refuse)
    monkeypatch.setattr(MrioPeriod, "__init__", refuse)
    assert consumption_tables(dataset_dir, tmp_path / "again") == clean


def test_consumption_names_an_energy_fault_by_file_and_line(dataset_dir, tmp_path, capsys):
    path = dataset_dir / "energy.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = lines[3].rsplit(",", 1)[0] + ",-1.5\n"
    path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert consumption_tables(dataset_dir, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{path}:4: negative value -1.5 in column 'value'" in err and "Traceback" not in err


def test_consumption_tables_the_years_of_the_energy_table(dataset_dir, tmp_path, capsys):
    clean = consumption_tables(dataset_dir, tmp_path / "clean")
    # A year with energy records but no outputs is tabled; build rejects it.
    drop_year(dataset_dir / "outputs.csv", 1991)
    assert consumption_tables(dataset_dir, tmp_path / "no_outputs") == clean
    capsys.readouterr()
    assert run("build", "--manifest", dataset_dir / "manifest.json", "--out", tmp_path / "net") == 2
    assert "year 1991 has transactions but no outputs" in capsys.readouterr().err
    # A year with outputs but no energy records drops out of every table.
    drop_year(dataset_dir / "energy.csv", 1991)
    without = {name: "".join(line for line in text.splitlines(keepends=True)
                             if not line.startswith("1991,"))
               for name, text in clean.items()}
    assert without != clean
    assert consumption_tables(dataset_dir, tmp_path / "no_energy") == without


def test_consumption_without_energy_records_in_the_window_exits_2(dataset_dir, tmp_path, capsys):
    capsys.readouterr()
    assert consumption_tables(dataset_dir, tmp_path / "out", "--years", "2050:2060") == 2
    path = dataset_dir / "energy.csv"
    assert capsys.readouterr().err == f"error: no periods found in {path} within years 2050..2060\n"
