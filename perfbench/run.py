"""Pipeline benchmark for enflow.

Run from the repository root:

    python3 perfbench/run.py --workload accept-analytics --seed 1 --seconds 30 --trace 0

Each run is one process and one dataset, drawn from ``--seed``. Set-up
(synth, plus build where the workload needs a built network) runs
``SETUP_REPS`` times on that dataset, each in a fresh child process;
``setup_s`` is the median. The timed part calls ``enflow.cli.main(argv)`` in
this process on the repository's own ``src`` and repeats until ``--seconds``
of timed work have passed (at least once); set-up and timed repetitions are
interleaved, and ``pipeline_s`` is the median over the repetitions. Every
repetition runs the same operations on the same input, so ``attempted``
counts one pass, and an operation counts as failed if it failed in any
repetition. Outputs are checked after the timed part. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 1`` runs set-up once in process with the span recorder installed,
then one traced repetition, and reports per-layer metrics instead of
end-to-end ones; the spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``. ``--smoke`` runs a workload
at a toy shape, for the benchmark's own test. See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SOURCES = ("all", "renewable", "nonrenewable")
DENSITY = "0.05"
SMOKE_DENSITY = "0.5"
SETUP_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

MANIFEST = "{data}/manifest.json"
BUILD = ("build_s", ("build", "--manifest", MANIFEST, "--out", "{out}"))
CONSUMPTION = ("consumption_s", ("consumption", "--manifest", MANIFEST, "--out", "{out}"))
# Acceptance 7's invocation, narrowed to the three years where 300 arcs x 132
# pairs give 39,600 removal solves at seed 1. --pairs keeps its default
# (2000 >= 12*11), so every ordered pair is used and the checks can rebuild
# the baseline over all pairs.
CRITICALITY = ("criticality_s", ("criticality", "--source", "all", "--mode", "sampled",
                                 "--seed", "0", "--years", "1990:1992", "--out", "{out}"))


def analysis(source: str):
    return (
        ("mdhits_s", ("mdhits", "--per-year", "--source", source, "--out", "{out}")),
        ("hits_s", ("hits", "--source", source, "--out", "{out}")),
        ("eig_s", ("eig", "--largest-scc", "--source", source, "--out", "{out}")),
    )


@dataclass(frozen=True)
class Workload:
    shape: str
    smoke_shape: str
    steps: tuple
    setup_build: bool = False
    probe_pairs: int = 0
    # Per-arc additivity and the dense explicit-inverse oracle are affordable
    # at the acceptance shape only.
    per_arc_check: bool = False


WORKLOADS = {
    # Released acceptance shape: many small periods, so per-call overhead in
    # centrality and leontief shows and CSV I/O is large but not everything.
    # Bypasses flowcrit. build is one invocation so cross-class sharing shows.
    "accept-analytics": Workload(
        shape="26,12,27", smoke_shape="5,4,3", per_arc_check=True,
        steps=(BUILD, *(s for src in SOURCES for s in analysis(src)), CONSUMPTION),
    ),
    # Max-flow removal loop is ~90% of the run; exercises criticality pruning
    # and warm starts and nothing else.
    "accept-criticality": Workload(
        shape="26,12,27", smoke_shape="5,4,3", setup_build=True,
        steps=(CRITICALITY,),
    ),
    # Paper shape, one period: dataio dominates; the probe runs few max-flow
    # solves on a 189-node graph, the opposite regime of accept-criticality.
    "paper-slice": Workload(
        shape="26,189,1", smoke_shape="5,8,1", probe_pairs=48,
        steps=(BUILD, *analysis("all")),
    ),
}

CLI_METRICS = ("build_s", "mdhits_s", "hits_s", "eig_s", "consumption_s", "criticality_s")
COMMAND_METRICS = (*CLI_METRICS, "maxflow_probe_s")
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "dataio.load_dataset_s": "s", "dataio.load_dataset_calls": "count",
    "dataio.dataset_rows": "count", "dataio.dataset_bytes": "bytes",
    "dataio.save_network_s": "s", "dataio.load_network_s": "s",
    "dataio.load_network_calls": "count", "dataio.network_rows": "count",
    "dataio.network_bytes": "bytes", "dataio.results_write_s": "s",
    "dataio.generate_synthetic_s": "s", "dataio.save_dataset_s": "s",
    "dataio.consumption_summary_s": "s",
    "leontief.build_temporal_network_s": "s", "leontief.embodied_intensity_s": "s",
    "leontief.leontief_apply_s": "s", "leontief.leontief_apply_calls": "count",
    "leontief.assembly_s": "s", "leontief.demand_entries": "count",
    "multinet.from_entries_s": "s", "multinet.tensor_entries_s": "s",
    "multinet.aggregate_to_layers_s": "s", "multinet.arcs": "count",
    "centrality.md_hits_s": "s", "centrality.md_hits_sweeps": "count",
    "centrality.md_hits_single_period_s": "s",
    "centrality.md_hits_single_period_calls": "count",
    "centrality.hits_s": "s", "centrality.hits_calls": "count",
    "centrality.eig_s": "s", "centrality.eig_calls": "count",
    "centrality.eig_failed": "count", "centrality.rank_s": "s",
    "flowcrit.criticality_s": "s", "flowcrit.arcs_scored": "count",
    "flowcrit.pairs": "count", "flowcrit.active_pairs": "count",
    "flowcrit.removal_queries": "count", "flowcrit.s_per_query": "s",
    "flowcrit.query_drop_frac": "fraction", "flowcrit.max_flow_s": "s",
    "flowcrit.max_flow_calls": "count", "flowcrit.probe_graph_arcs": "count",
    "cli.self_s": "s", "cli.setup_s": "s",
    **{f"cli.{name}": "s" for name in COMMAND_METRICS},
    "trace.overhead_s": "s", "trace.spans": "count",
}


@dataclass
class Op:
    """One attempted operation: a CLI invocation or a probe solve."""

    words: tuple  # argv template ("{out}" placeholders) or probe label
    ok: bool
    detail: str = ""

    @property
    def label(self) -> str:
        return " ".join(self.words)

    def option(self, name: str) -> str | None:
        return self.words[self.words.index(name) + 1] if name in self.words else None


@dataclass
class Rep:
    """Times and operations of one repetition of the timed part."""

    times: dict = field(default_factory=lambda: defaultdict(float))
    ops: list = field(default_factory=list)
    probe: tuple | None = None  # (FlowNetwork, pairs, values)

    @property
    def pipeline_s(self) -> float:
        return sum(self.times.values())


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Terminated(BaseException):
    """SIGTERM arrived; unlike SystemExit, no command handler swallows it."""


def _terminate(signum, frame):
    raise Terminated


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    return {
        "nproc": nproc, "cpu": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

SETUP_CHILD = """
import json, sys
sys.path.insert(0, "src")
from enflow.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def setup_argvs(wl: Workload, ctx: dict, shape: str, density: str):
    argvs = [["synth", "--shape", shape, "--density", density, "--seed", str(ctx["seed"]),
              "--out", ctx["data"]]]
    if wl.setup_build:
        argvs.append(["build", "--manifest", MANIFEST.format(**ctx), "--source", "all",
                      "--out", ctx["out"]])
    return argvs


def run_setup_child(argvs) -> float:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(argvs)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up failed with exit {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def invoke(cli_main, argv, rec=None) -> tuple[int | None, float, str]:
    """Call the CLI in process; returns (exit code or None, seconds, stderr)."""
    err = io.StringIO()
    span = rec.span(f"cli.{argv[0]}") if rec is not None else contextlib.nullcontext()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), span:
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, time.perf_counter() - start, err.getvalue().strip()


def probe_pairs(m: int, k: int, seed: int) -> list[tuple[int, int]]:
    """``k`` distinct ordered pairs of ``m`` nodes, drawn from ``seed``."""
    import numpy as np

    picks = np.random.default_rng(seed).choice(m * (m - 1), size=min(k, m * (m - 1)),
                                               replace=False)
    pairs = []
    for idx in picks.tolist():
        s, r = divmod(idx, m - 1)
        pairs.append((s, r if r < s else r + 1))
    return pairs


def run_probe(wl: Workload, rep: Rep, out: str, seed: int, rec=None) -> None:
    """Max-flow probe on the country graph of the first period of ``all``."""
    from enflow import SourceClass, dataio, flowcrit, multinet

    with contextlib.ExitStack() as stack:
        if rec is not None:  # loading the network is the probe's input, not its work
            rec.uninstall()
            stack.callback(rec.install)
        try:
            net, codes = dataio.load_network(out, SourceClass.ALL)
        except Exception as exc:
            rep.ops.append(Op(("max_flow", "probe", "input"), False, repr(exc)))
            return
    pairs = probe_pairs(codes.n_layers, wl.probe_pairs, seed)
    span = rec.span("bench.maxflow_probe") if rec is not None else contextlib.nullcontext()
    values = []
    start = time.perf_counter()
    with span:
        graph = flowcrit.FlowNetwork.from_matrix(multinet.aggregate_to_layers(net.matrices[0]))
        for s, t in pairs:
            try:
                values.append(flowcrit.max_flow(graph, s, t))
            except Exception as exc:
                values.append(None)
                rep.ops.append(Op(("max_flow", str(s), str(t)), False, repr(exc)))
            else:
                rep.ops.append(Op(("max_flow", str(s), str(t)), True))
    rep.times["maxflow_probe_s"] += time.perf_counter() - start
    rep.probe = (graph, pairs, values)


def run_pipeline(wl: Workload, cli_main, ctx: dict, rec=None) -> Rep:
    rep = Rep()
    for metric, template in wl.steps:
        code, elapsed, err = invoke(cli_main, [a.format(**ctx) for a in template], rec)
        rep.times[metric] += elapsed
        detail = "" if code == 0 else f"exit {code}: {err.splitlines()[-1] if err else ''}"
        rep.ops.append(Op(template, code == 0, detail))
    if wl.probe_pairs:
        run_probe(wl, rep, ctx["out"], ctx["seed"], rec)
    return rep


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_op(wl: Workload, op: Op, data: Path, out: Path, seed: int, recompute: bool,
             stats: dict) -> list[str]:
    """Errors in the outputs of one successful CLI invocation."""
    import checks
    import oracles
    from enflow import flowcrit

    command, source = op.words[0], op.option("--source")
    if command == "build":
        return checks.check_build(data, out, seed, oracles, wl.per_arc_check)
    if command == "mdhits":
        return checks.check_mdhits(out, source)
    if command == "hits":
        return checks.check_hits(out, source)
    if command == "eig":
        return checks.check_eig(out, source)
    if command == "consumption":
        return checks.check_consumption(out)
    if command == "criticality":
        lo, hi = (int(y) for y in op.option("--years").split(":"))
        found, counts = checks.check_criticality(out, source, range(lo, hi + 1), oracles,
                                                 flowcrit, recompute)
        stats.update(counts)
        return found
    return [f"no output check for {command}"]


def check_outputs(wl: Workload, rep: Rep, ctx: dict, recompute: bool) -> tuple[list[str], dict]:
    """Check the outputs of every successful operation of ``rep``; a failed
    check marks its operation failed. Returns errors and criticality counts."""
    import checks
    import oracles

    data, out = Path(ctx["data"]), Path(ctx["out"])
    errors, stats = [], {}
    for op in rep.ops:
        if not op.ok or op.words[0] == "max_flow":
            continue
        try:
            found = check_op(wl, op, data, out, ctx["seed"], recompute, stats)
        except Exception as exc:  # a missing or malformed output fails its check
            found = [f"{op.words[0]}: output check raised {exc!r}"]
        if found:
            op.ok, op.detail = False, "; ".join(found)
            errors.extend(found)
    if rep.probe is not None:
        solves = [op for op in rep.ops if op.words[0] == "max_flow"]
        for i, message in checks.check_probe(*rep.probe, oracles).items():
            solves[i].ok, solves[i].detail = False, message
            errors.append(message)
    return errors, stats


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def install_hooks(rec) -> None:
    """Counters recorded at span boundaries from arguments and results. Each
    hook is a few dictionary updates; reading files waits until the run ends."""
    counts = rec.counts

    def from_entries(rec, record, args, result):
        counts["multinet.arcs"] += result.nnz

    def md_hits(rec, record, args, result):
        if rec.parent_name(record) != "centrality.md_hits_single_period":
            counts["centrality.md_hits_sweeps"] += result.iterations

    def flow_matrix(rec, record, args, result):
        counts[("leontief.flow_matrix_year", args[0].label)] += 1

    def criticality(rec, record, args, result):
        m = args[0].shape.n_layers
        counts["flowcrit.arcs_scored"] += len(result.rows)
        counts["flowcrit.pairs"] += result.pair_count or m * (m - 1)

    rec.hooks.update({
        "multinet.from_entries": from_entries,
        "centrality.md_hits": md_hits,
        "leontief.embodied_flow_matrix": flow_matrix,
        "flowcrit.criticality": criticality,
    })


def per_layer_metrics(rec, ctx, stats, probe) -> dict:
    import checks

    data, out = Path(ctx["data"]), Path(ctx["out"])
    demand_by_year: dict[int, int] = defaultdict(int)
    for row in checks.read_rows(data / "final_demand.csv")[1]:
        demand_by_year[int(row[0])] += 1
    demand_entries = sum(demand_by_year[key[1]] * n for key, n in rec.counts.items()
                         if isinstance(key, tuple) and key[0] == "leontief.flow_matrix_year")
    dataset_rows, dataset_bytes = checks.csv_size(sorted(data.glob("*.csv")))
    network_rows, network_bytes = checks.csv_size(sorted(out.glob("network_*.csv")))
    total, calls = rec.total, rec.calls
    results_write = sum(
        r[3] - r[2] for r in rec.spans
        if r[1] in ("dataio.write_csv", "dataio.export_results")
        and not (rec.parent_name(r) or "").startswith("dataio.")
    )
    queries = stats.get("removal_queries", 0)
    values = {
        "dataio.load_dataset_s": total("dataio.load_dataset"),
        "dataio.load_dataset_calls": calls("dataio.load_dataset"),
        "dataio.dataset_rows": dataset_rows,
        "dataio.dataset_bytes": dataset_bytes,
        "dataio.save_network_s": total("dataio.save_network"),
        "dataio.load_network_s": total("dataio.load_network"),
        "dataio.load_network_calls": calls("dataio.load_network"),
        "dataio.network_rows": network_rows,
        "dataio.network_bytes": network_bytes,
        "dataio.results_write_s": results_write,
        "dataio.generate_synthetic_s": total("dataio.generate_synthetic"),
        "dataio.save_dataset_s": total("dataio.save_dataset"),
        "dataio.consumption_summary_s": total("dataio.consumption_summary"),
        "leontief.build_temporal_network_s": total("leontief.build_temporal_network"),
        "leontief.embodied_intensity_s": total("leontief.embodied_intensity"),
        "leontief.leontief_apply_s": total("leontief.leontief_apply"),
        "leontief.leontief_apply_calls": calls("leontief.leontief_apply"),
        "leontief.assembly_s": total("leontief.embodied_flow_matrix")
        - rec.child_total("leontief.embodied_flow_matrix", "leontief.embodied_intensity"),
        "leontief.demand_entries": demand_entries,
        "multinet.from_entries_s": total("multinet.from_entries"),
        "multinet.tensor_entries_s": total("multinet.tensor_entries"),
        "multinet.aggregate_to_layers_s": total("multinet.aggregate_to_layers"),
        "multinet.arcs": rec.counts["multinet.arcs"],
        "centrality.md_hits_s": total("centrality.md_hits",
                                      not_under="centrality.md_hits_single_period"),
        "centrality.md_hits_sweeps": rec.counts["centrality.md_hits_sweeps"],
        "centrality.md_hits_single_period_s": total("centrality.md_hits_single_period"),
        "centrality.md_hits_single_period_calls": calls("centrality.md_hits_single_period"),
        "centrality.hits_s": total("centrality.hits"),
        "centrality.hits_calls": calls("centrality.hits"),
        "centrality.eig_s": total("centrality.eig", not_under="centrality.eig"),
        "centrality.eig_calls": calls("centrality.eig", not_under="centrality.eig"),
        "centrality.eig_failed": calls("centrality.eig", not_under="centrality.eig", failed=True),
        "centrality.rank_s": total("centrality.rank"),
        "flowcrit.criticality_s": total("flowcrit.criticality"),
        "flowcrit.arcs_scored": rec.counts["flowcrit.arcs_scored"],
        "flowcrit.pairs": rec.counts["flowcrit.pairs"],
        "flowcrit.active_pairs": stats.get("active_pairs", 0),
        "flowcrit.removal_queries": queries,
        "flowcrit.s_per_query": total("flowcrit.arc_criticality") / queries if queries else 0.0,
        "flowcrit.query_drop_frac": stats["dropped"] / queries if queries else 0.0,
        "flowcrit.max_flow_s": total("flowcrit.max_flow"),
        "flowcrit.max_flow_calls": calls("flowcrit.max_flow"),
        "flowcrit.probe_graph_arcs": len(probe[0].arcs) if probe else 0,
        "cli.self_s": rec.self_time("cli."),
        "cli.setup_s": total("bench.setup"),
        **{f"cli.{name}": total(f"cli.{name[:-2]}", not_under="bench.setup")
           for name in CLI_METRICS},
        "cli.maxflow_probe_s": total("bench.maxflow_probe"),
        # The recorder's own cost: spans times the measured cost of one
        # traced call. A traced-minus-untraced repetition cannot resolve
        # it, as repetitions of the same work differ by seconds.
        "trace.overhead_s": len(rec.spans) * tracing.span_cost(),
        "trace.spans": len(rec.spans),
    }
    return values


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run(args, wl: Workload, cli_main, env: dict, tmp: Path):
    """Returns metrics {name: (value, unit)}, ops, check errors and report lines."""
    shape = wl.smoke_shape if args.smoke else wl.shape
    density = SMOKE_DENSITY if args.smoke else DENSITY
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"workload {args.workload} shape {shape} density {density} seed {args.seed}"]

    ctx = {"data": str(tmp / "data"), "out": str(tmp / "out"), "seed": args.seed}

    if args.trace:
        rec = tracing.Recorder()
        install_hooks(rec)
        with rec.installed(), rec.span("bench.setup"):
            for argv in setup_argvs(wl, ctx, shape, density):
                code, _, err = invoke(cli_main, argv, rec)
                if code != 0:
                    raise BenchError(f"set-up {argv[0]} failed with exit {code}: {err}")
        with rec.installed():
            rep = run_pipeline(wl, cli_main, ctx, rec)
        errors, stats = check_outputs(wl, rep, ctx, recompute=True)
        values = per_layer_metrics(rec, ctx, stats, rep.probe)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": env,
            "span_fields": ["id", "name", "start", "end", "parent", "error"],
            "spans": rec.spans, "metrics": values,
        }) + "\n")
        lines.append(f"traced pipeline s {rep.pipeline_s:.4f}")
        lines.append(f"trace written to {trace_path.relative_to(ROOT)}")
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
        return metrics, rep.ops, errors, lines

    # The first set-up makes the run's inputs. The others redo the same work
    # in a scratch directory, interleaved with the timed repetitions, so both
    # medians sample the machine over the whole run, not one burst.
    again = {"data": str(tmp / "again" / "data"), "out": str(tmp / "again" / "out"),
             "seed": args.seed}
    setup_times, reps, timed = [], [], 0.0
    while len(setup_times) < SETUP_REPS or timed < args.seconds:
        if len(setup_times) < SETUP_REPS:
            shutil.rmtree(tmp / "again", ignore_errors=True)
            target = again if setup_times else ctx
            setup_times.append(run_setup_child(setup_argvs(wl, target, shape, density)))
        if reps and timed >= args.seconds:
            continue
        if reps and not wl.setup_build:  # a workload built in set-up analyses it in place
            shutil.rmtree(ctx["out"])
        reps.append(run_pipeline(wl, cli_main, ctx))
        timed += reps[-1].pipeline_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors, _ = check_outputs(wl, reps[-1], ctx, recompute=False)

    # One pass of operations; an operation failed if any repetition failed it.
    runs: dict[str, list[Op]] = {}
    for rep in reps:
        for op in rep.ops:
            runs.setdefault(op.label, []).append(op)
    ops = [Op(group[0].words, all(op.ok for op in group),
              "; ".join(dict.fromkeys(op.detail for op in group if not op.ok)))
           for group in runs.values()]
    failed = sum(not op.ok for op in ops)
    lines.append("set-up s " + " ".join(f"{t:.4f}" for t in setup_times))
    lines.append("pipeline s " + " ".join(f"{rep.pipeline_s:.4f}" for rep in reps))
    for name in COMMAND_METRICS:
        if name in reps[0].times:
            lines.append(f"{name} s " + " ".join(f"{rep.times[name]:.4f}" for rep in reps))
            value = statistics.median(rep.times[name] for rep in reps)
            lines.append(f"metric {name} = {value:.6g} s")
    lines.append(f"metric ops_failed_frac = {failed / len(ops):.6g} fraction "
                 f"({failed} of {len(ops)} operations, over {len(reps)} repetitions)")
    values = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(rep.pipeline_s for rep in reps),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, ops, errors, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy shapes, for the self-test")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/enflow/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an enflow checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    nproc = cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]
    import enflow.cli

    if not Path(enflow.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported enflow from {enflow.cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = environment(nproc)

    # On SIGTERM, unwind: a running set-up child is killed and waited for,
    # and the workspace is removed.
    signal.signal(signal.SIGTERM, _terminate)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        metrics, ops, errors, lines = run(args, WORKLOADS[args.workload], enflow.cli.main,
                                          env, tmp)
    except (BenchError, subprocess.TimeoutExpired, tracing.TargetMissing) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for line in lines:
        print(line)
    for op in ops:
        if not op.ok:
            print(f"failed: {op.label}: {op.detail}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
