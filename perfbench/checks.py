"""Output checks, run outside the timed region.

The checks read the CSV artifacts the CLI wrote with their own parsers and
compare them with the read-only reference implementations in
``tests/oracles.py``. Each check returns a list of error strings; an empty
list means the output passed. Only enflow's public ``FlowNetwork`` and
``max_flow`` are used, to evaluate criticality totals from scratch.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

UNIT_SUM_TOL = 1e-9
REL_TOL = 1e-9
# Stationary Leontief iteration at the CLI's default tol=1e-10 leaves about
# 5e-10 relative error per arc against the explicit inverse.
ORACLE_RTOL = 1e-7
ORACLE_ATOL = 1e-9
LP_RTOL = 1e-6


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def csv_size(paths) -> tuple[int, int]:
    """Data rows (header excluded) and bytes over the given CSV files."""
    rows = size = 0
    for path in paths:
        size += path.stat().st_size
        with open(path, "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return rows, size


class Universe:
    """Code order of a built workspace: h = country * n + sector."""

    def __init__(self, out: Path):
        meta = json.loads((out / "network_meta.json").read_text(encoding="utf-8"))
        self.sectors = {c: i for i, c in enumerate(meta["sectors"])}
        self.countries = {c: i for i, c in enumerate(meta["countries"])}
        self.n = len(self.sectors)
        self.n_layers = len(self.countries)
        self.dim = self.n * self.n_layers
        self.years = [int(y) for y in meta["periods"]]

    def flat(self, country: str, sector: str) -> int:
        return self.countries[country] * self.n + self.sectors[sector]


def read_network(out: Path, source: str, uni: Universe):
    """Arc weights keyed by (year, h, k)."""
    _, rows = read_rows(out / f"network_{source}.csv")
    return {(int(y), uni.flat(sc, ss), uni.flat(dc, ds)): float(w)
            for y, sc, ss, dc, ds, w in rows}


def read_period_accounts(data: Path, uni: Universe, year: int):
    """Dense use matrix, output, per-carrier consumption and demand dict of one year."""
    use = np.zeros((uni.dim, uni.dim))
    output = np.zeros(uni.dim)
    consumption: dict[str, np.ndarray] = {}
    demand = {}
    for y, sc, ss, dc, ds, v in read_rows(data / "transactions.csv")[1]:
        if int(y) == year:
            use[uni.flat(sc, ss), uni.flat(dc, ds)] = float(v)
    for y, c, s, v in read_rows(data / "outputs.csv")[1]:
        if int(y) == year:
            output[uni.flat(c, s)] = float(v)
    for y, c, s, carrier, v in read_rows(data / "energy.csv")[1]:
        if int(y) == year:
            consumption.setdefault(carrier, np.zeros(uni.dim))[uni.flat(c, s)] = float(v)
    for y, sc, s, dc, v in read_rows(data / "final_demand.csv")[1]:
        if int(y) == year:
            demand[(uni.sectors[s], uni.countries[sc], uni.countries[dc])] = float(v)
    return use, output, consumption, demand


def network_totals(out: Path, source: str) -> dict[int, float]:
    """Total arc weight per year, streamed without parsing the code columns."""
    totals = defaultdict(float)
    with open(out / f"network_{source}.csv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            year, rest = line.split(",", 1)
            totals[int(year)] += float(rest.rsplit(",", 1)[1])
    return totals


def check_build(data: Path, out: Path, seed: int, oracles, per_arc: bool):
    """Per-year totals of all = renewable + nonrenewable; with ``per_arc``
    also additivity arc by arc and the dense oracle on one period per class."""
    errors = []
    carriers = {
        "all": oracles.RENEWABLE + oracles.NONRENEWABLE,
        "renewable": oracles.RENEWABLE,
        "nonrenewable": oracles.NONRENEWABLE,
    }
    totals = {s: network_totals(out, s) for s in carriers}
    for year, total in totals["all"].items():
        split = totals["renewable"].get(year, 0.0) + totals["nonrenewable"].get(year, 0.0)
        if abs(total - split) > REL_TOL * abs(total):
            errors.append(f"build {year}: total weight of all != renewable + nonrenewable")
    if not per_arc:
        return errors
    uni = Universe(out)
    nets = {s: read_network(out, s, uni) for s in carriers}
    for key in set().union(*nets.values()):
        total = nets["all"].get(key, 0.0)
        split = nets["renewable"].get(key, 0.0) + nets["nonrenewable"].get(key, 0.0)
        if abs(total - split) > REL_TOL * max(abs(total), abs(split)):
            errors.append(f"build: all != renewable + nonrenewable at arc {key}")
            break
    for i, source in enumerate(carriers):
        year = uni.years[(seed + i) % len(uni.years)]
        use, output, consumption, demand = read_period_accounts(data, uni, year)
        c = oracles.class_consumption(consumption, uni.dim, carriers[source])
        want = oracles.dense_embodied_flows(uni.n, uni.n_layers, use, output, c, demand)
        got = np.zeros_like(want)
        for (y, h, k), w in nets[source].items():
            if y == year:
                got[h, k] = w
        bad = np.abs(got - want) > ORACLE_RTOL * np.abs(want) + ORACLE_ATOL * want.max(initial=0)
        if bad.any():
            errors.append(f"build {source} {year}: {int(bad.sum())} arcs differ from the dense oracle")
    return errors


def check_unit_vectors(path: Path, group_cols, value_cols):
    """Every group of ``value_cols`` is nonnegative with unit 1-norm."""
    header, rows = read_rows(path)
    group_idx = [header.index(c) for c in group_cols]
    sums = defaultdict(float)
    for row in rows:
        group = tuple(row[i] for i in group_idx)
        for col in value_cols:
            value = float(row[header.index(col)])
            if not value >= 0:
                return [f"{path.name}: negative or NaN {col} in group {group}"]
            sums[(col, group)] += value
    if not sums:
        return [f"{path.name}: no rows"]
    bad = [key for key, total in sums.items() if abs(total - 1.0) > UNIT_SUM_TOL]
    return [f"{path.name}: 1-norm != 1 for {bad[0]}"] if bad else []


def check_mdhits(out: Path, source: str):
    return (check_unit_vectors(out / f"mdhits_{source}.csv", ["component"], ["score"])
            + check_unit_vectors(out / f"mdhits_{source}_by_year.csv",
                                 ["component", "year"], ["score"]))


def check_hits(out: Path, source: str):
    return check_unit_vectors(out / f"hits_{source}.csv", ["year"], ["hub", "authority"])


def check_eig(out: Path, source: str):
    return check_unit_vectors(out / f"eig_{source}.csv", ["year"], ["score"])


def check_consumption(out: Path):
    country = defaultdict(float)
    for year, _, cls, value in read_rows(out / "consumption_country.csv")[1]:
        country[(year, cls)] += float(value)
    _, world = read_rows(out / "consumption_world.csv")
    if len(world) != len(country):
        return ["consumption: world and country tables cover different (year, class) keys"]
    for year, cls, value in world:
        total = country.get((year, cls))
        if total is None or abs(float(value) - total) > REL_TOL * abs(total):
            return [f"consumption: world != sum over countries for {year} {cls}"]
    return []


def layer_graphs(out: Path, source: str, years):
    """Country-aggregated capacity matrices per year (FlowNetwork drops the diagonal)."""
    uni = Universe(out)
    graphs = {year: np.zeros((uni.n_layers, uni.n_layers)) for year in years}
    for (year, h, k), w in read_network(out, source, uni).items():
        if year in graphs:
            graphs[year][h // uni.n, k // uni.n] += w
    return uni, graphs


def check_criticality(out: Path, source: str, years, oracles, flowcrit, recompute: bool):
    """Bounds and defining identity of every row against a from-scratch
    baseline over all ordered pairs; with ``recompute`` also every removal
    total, counting the (arc, pair) queries whose value dropped."""
    errors = []
    stats = {"active_pairs": 0, "removal_queries": 0, "dropped": 0}
    uni, graphs = layer_graphs(out, source, years)
    for year, graph in graphs.items():
        net = flowcrit.FlowNetwork.from_matrix(graph)
        m = net.node_count
        pairs = [(s, t) for s in range(m) for t in range(m) if s != t]
        base = {p: flowcrit.max_flow(net, *p) for p in pairs}
        baseline = sum(base.values())
        for p in pairs[:2]:
            want = oracles.lp_max_flow(m, net.arcs, *p)
            if abs(base[p] - want) > LP_RTOL * max(1.0, want):
                errors.append(f"criticality {year}: max_flow{p}={base[p]} but LP gives {want}")
        _, rows = read_rows(out / f"criticality_{source}_{year}.csv")
        reported = {}
        for tail, head, removed, index, _ in rows:
            reported[(uni.countries[tail], uni.countries[head])] = (float(removed), float(index))
        arcs = {(t, h) for t, h, _ in net.arcs}
        if set(reported) != arcs or len(rows) != len(arcs):
            errors.append(f"criticality {year}: {len(rows)} rows for {len(arcs)} aggregated arcs")
            continue
        for arc, (removed, index) in reported.items():
            if not (0.0 <= index <= 1.0 and removed <= baseline * (1 + REL_TOL)
                    and abs(index - (1.0 - removed / baseline)) <= REL_TOL):
                errors.append(f"criticality {year}: row {arc} breaks the index bounds or identity")
                break
        if not recompute:
            continue
        active = [p for p in pairs if base[p] > 0.0]
        stats["active_pairs"] += len(active)
        stats["removal_queries"] += len(active) * len(net.arcs)
        for i, (tail, head, _) in enumerate(net.arcs):
            without = flowcrit.FlowNetwork(m, net.arcs[:i] + net.arcs[i + 1:])
            values = [flowcrit.max_flow(without, *p) for p in active]
            stats["dropped"] += sum(v < base[p] * (1 - REL_TOL) for v, p in zip(values, active))
            removed = reported[(tail, head)][0]
            if abs(sum(values) - removed) > REL_TOL * baseline:
                errors.append(f"criticality {year}: removed total of arc {(tail, head)} "
                              f"is {removed}, from scratch {sum(values)}")
    return errors, stats


def check_probe(net, pairs, values, oracles, n_checked: int = 2) -> dict[int, str]:
    """LP oracle on the first ``n_checked`` probe pairs; errors keyed by pair position."""
    errors = {}
    for i, ((s, t), value) in enumerate(list(zip(pairs, values))[:n_checked]):
        want = oracles.lp_max_flow(net.node_count, net.arcs, s, t)
        if value is None or abs(value - want) > LP_RTOL * max(1.0, want):
            errors[i] = f"probe max_flow({s}, {t}) = {value}, LP gives {want}"
    return errors
