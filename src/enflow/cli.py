"""Command-line front end.

Subcommands:

* synth        write a synthetic dataset (CSV files plus manifest)
* build        build embodied-flow networks per source class from a dataset
* mdhits       five-vector scores of a built network (whole horizon and/or per year)
* hits         classical hub/authority scores per period
* eig          eigenvector centrality per period
* criticality  country-level arc criticality per period
* consumption  consumption aggregates, rankings and incidence tables

``--out DIR`` is the shared workspace: ``build`` writes network artifacts
there and the analysis commands read them back from the same directory.

Exit codes: 0 success, 2 validation error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .centrality import (
    DEFAULT_GAMMA,
    eigenvector_centrality,
    hits,
    md_hits,
    md_hits_single_period,
    rank,
)
from .dataio import (
    DatasetManifest,
    MrioDataset,
    SyntheticSpec,
    consumption_summary,
    export_results,
    generate_synthetic,
    load_dataset,
    load_network,
    save_dataset,
    save_network,
    write_csv,
)
from .errors import EnflowError, NumericalError, ValidationError
from .flowcrit import EXACT_MODE_NODE_LIMIT, country_level_criticality
from .leontief import SourceClass, build_temporal_network
from .multinet import NetworkShape, TemporalMultilayerNetwork

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_FMT = repr  # shortest round-trip float formatting, matching dataio


def _parse_years(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValidationError(f"--years must look like 1990:2016, got {text!r}")
    if lo > hi:
        raise ValidationError(f"--years range is empty: {text!r}")
    return lo, hi


def _parse_gamma(text: str | None) -> tuple[float, ...]:
    if text is None:
        return DEFAULT_GAMMA
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"--gamma must be five comma-separated numbers, got {text!r}")
    if len(parts) != 5:
        raise ValidationError(f"--gamma needs exactly five values, got {len(parts)}")
    return parts


def _parse_shape(text: str) -> NetworkShape:
    try:
        n, l, t = (int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"--shape must look like N,L,T, got {text!r}")
    return NetworkShape(n, l, t)


def _sources(arg: str | None) -> list[SourceClass]:
    if arg is None:
        return [SourceClass.ALL, SourceClass.RENEWABLE, SourceClass.NONRENEWABLE]
    return [SourceClass(arg)]


def _load_input(args) -> MrioDataset:
    if (args.manifest is None) == (args.synthetic_spec is None):
        raise ValidationError("provide exactly one of --manifest or --synthetic-spec")
    years = _parse_years(args.years)
    if args.manifest is not None:
        manifest = DatasetManifest.from_json(args.manifest)
        if years is not None:
            manifest = dataclasses.replace(manifest, years=years)
        return load_dataset(manifest)
    dataset = generate_synthetic(SyntheticSpec.from_json(args.synthetic_spec))
    if years is not None:
        kept = tuple(p for p in dataset.periods if years[0] <= p.label <= years[1])
        if not kept:
            raise ValidationError(f"year filter {args.years} removed every period")
        dataset = dataclasses.replace(dataset, periods=kept)
    return dataset


def _restricted(net: TemporalMultilayerNetwork, years: tuple[int, int] | None):
    if years is None:
        return net
    return net.restrict_periods(
        label for label in net.labels if years[0] <= label <= years[1]
    )


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.synthetic_spec is not None:
        spec = SyntheticSpec.from_json(args.synthetic_spec)
    else:
        spec = SyntheticSpec(
            shape=_parse_shape(args.shape),
            density=args.density,
            seed=args.seed,
            rho_cap=args.rho_cap,
            start_year=args.start_year,
        )
    dataset = generate_synthetic(spec)
    manifest_path = save_dataset(dataset, args.out)
    print(f"wrote synthetic dataset ({dataset.shape.n_periods} periods) to {manifest_path}")
    return EXIT_OK


def cmd_build(args) -> int:
    dataset = _load_input(args)
    out = Path(args.out)
    for source in _sources(args.source):
        net = build_temporal_network(dataset.periods, source, tol=args.tol, max_iter=args.max_iter)
        if args.min_weight > 0 or args.drop_self_loops:
            transformed = []
            for label, matrix in net.periods:
                if args.drop_self_loops:
                    matrix = matrix.without_self_loops()
                matrix = matrix.pruned(args.min_weight)
                transformed.append((label, matrix))
            net = TemporalMultilayerNetwork(transformed)
        path = save_network(net, dataset.codes, source, out, units=dataset.units)
        if net.total_weight == 0:
            print(f"warning: {source.value} network is empty", file=sys.stderr)
        for label, matrix in net.periods:
            print(
                f"{source.value} {label}: arcs={matrix.nnz} "
                f"total_weight={matrix.total_weight:.6g}"
            )
        print(f"wrote {path}")
    return EXIT_OK


def cmd_mdhits(args) -> int:
    gamma = _parse_gamma(args.gamma)
    years = _parse_years(args.years)
    out = Path(args.out)
    for source in _sources(args.source):
        net, codes = load_network(out, source)
        net = _restricted(net, years)
        scores = md_hits(net, gamma=gamma, tol=args.tol, max_iter=args.max_iter)
        path = out / f"mdhits_{source.value}.csv"
        export_results(scores, path, "csv", codes=codes, period_labels=net.labels)
        print(f"wrote {path} (converged in {scores.iterations} sweeps)")
        if args.per_year:
            rows = []
            for label, matrix in net.periods:
                per = md_hits_single_period(matrix, gamma=gamma, tol=args.tol, max_iter=args.max_iter)
                for component, labels, vector in (
                    ("node_hub", codes.sector_codes, per.node_hub),
                    ("node_authority", codes.sector_codes, per.node_authority),
                    ("layer_broadcast", codes.country_codes, per.layer_broadcast),
                    ("layer_receive", codes.country_codes, per.layer_receive),
                ):
                    table = rank(vector, labels)
                    rows.extend(
                        (component, row.label, label, _FMT(row.score), row.rank)
                        for row in table
                    )
            per_path = out / f"mdhits_{source.value}_by_year.csv"
            write_csv(per_path, ["component", "label", "year", "score", "rank"], rows)
            print(f"wrote {per_path}")
    return EXIT_OK


def _entity_rows(codes, vector):
    n = codes.n_nodes
    for h, value in enumerate(vector.tolist()):
        yield codes.country_codes[h // n], codes.sector_codes[h % n], value


def cmd_hits(args) -> int:
    years = _parse_years(args.years)
    out = Path(args.out)
    for source in _sources(args.source):
        net, codes = load_network(out, source)
        net = _restricted(net, years)
        rows = []
        for label, matrix in net.periods:
            scores = hits(matrix.matrix, tol=args.tol, max_iter=args.max_iter)
            for (country, sector, hub), (_, _, authority) in zip(
                _entity_rows(codes, scores.hub), _entity_rows(codes, scores.authority)
            ):
                rows.append((label, country, sector, _FMT(hub), _FMT(authority)))
        path = out / f"hits_{source.value}.csv"
        write_csv(path, ["year", "country", "sector", "hub", "authority"], rows)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_eig(args) -> int:
    years = _parse_years(args.years)
    out = Path(args.out)
    for source in _sources(args.source):
        net, codes = load_network(out, source)
        net = _restricted(net, years)
        rows = []
        for label, matrix in net.periods:
            scores = eigenvector_centrality(
                matrix.matrix, tol=args.tol, max_iter=args.max_iter, largest_scc=args.largest_scc
            )
            print(f"{source.value} {label}: spectral radius {scores.spectral_radius:.6g}")
            rows.extend(
                (label, country, sector, _FMT(value))
                for country, sector, value in _entity_rows(codes, scores.centrality)
            )
        path = out / f"eig_{source.value}.csv"
        write_csv(path, ["year", "country", "sector", "score"], rows)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_criticality(args) -> int:
    years = _parse_years(args.years)
    out = Path(args.out)
    for source in _sources(args.source):
        net, codes = load_network(out, source)
        net = _restricted(net, years)
        mode = args.mode
        if mode is None:
            mode = "exact" if codes.n_layers <= EXACT_MODE_NODE_LIMIT else "sampled"
        top_rows = []
        top_arcs: set[tuple[str, str]] = set()
        per_year = {}
        for label, matrix in net.periods:
            report = country_level_criticality(matrix, mode, pairs=args.pairs, seed=args.seed)
            path = out / f"criticality_{source.value}_{label}.csv"
            export_results(report, path, "csv", node_labels=codes.country_codes)
            print(
                f"{source.value} {label}: baseline={report.baseline_total:.6g} "
                f"arcs={len(report.rows)} mode={report.mode}"
            )
            per_year[label] = report
            for row in report.top(args.top):
                top_arcs.add((codes.country_codes[row.tail], codes.country_codes[row.head]))
        for label, report in per_year.items():
            for position, row in enumerate(report.rows, start=1):
                key = (codes.country_codes[row.tail], codes.country_codes[row.head])
                if key in top_arcs:
                    top_rows.append((label, key[0], key[1], _FMT(row.index), position))
        path = out / f"criticality_{source.value}_top.csv"
        write_csv(path, ["year", "tail_code", "head_code", "index", "rank"], top_rows)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_consumption(args) -> int:
    dataset = _load_input(args)
    summary = consumption_summary(dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    codes = summary.codes
    labels = summary.period_labels
    classes = [SourceClass.ALL, SourceClass.RENEWABLE, SourceClass.NONRENEWABLE]

    country_rows, sector_rows, world_rows, top_rows = [], [], [], []
    for cls in classes:
        country = summary.country_totals(cls)
        sector = summary.sector_totals(cls)
        world = summary.world_series(cls)
        for t, year in enumerate(labels):
            world_rows.append((year, cls.value, _FMT(float(world[t]))))
            for a, code in enumerate(codes.country_codes):
                country_rows.append((year, code, cls.value, _FMT(float(country[t, a]))))
            for i, code in enumerate(codes.sector_codes):
                sector_rows.append((year, code, cls.value, _FMT(float(sector[t, i]))))
            table = rank(country[t], codes.country_codes)
            top_rows.extend(
                (year, cls.value, row.rank, row.label, _FMT(row.score))
                for row in table.rows[: args.top]
            )
    write_csv(out / "consumption_country.csv", ["year", "country", "source_class", "value"], country_rows)
    write_csv(out / "consumption_sector.csv", ["year", "sector", "source_class", "value"], sector_rows)
    write_csv(out / "consumption_world.csv", ["year", "source_class", "value"], world_rows)
    write_csv(out / "consumption_top_countries.csv", ["year", "source_class", "rank", "country", "value"], top_rows)

    incidence_rows = []
    incidence = summary.renewable_incidence(summary.country_totals)
    for t, year in enumerate(labels):
        for a, code in enumerate(codes.country_codes):
            if np.isfinite(incidence[t, a]):
                incidence_rows.append((year, code, _FMT(float(incidence[t, a]))))
    write_csv(out / "incidence_country.csv", ["year", "country", "incidence"], incidence_rows)

    incidence_rows = []
    incidence = summary.renewable_incidence(summary.sector_totals)
    for t, year in enumerate(labels):
        for i, code in enumerate(codes.sector_codes):
            if np.isfinite(incidence[t, i]):
                incidence_rows.append((year, code, _FMT(float(incidence[t, i]))))
    write_csv(out / "incidence_sector.csv", ["year", "sector", "incidence"], incidence_rows)

    print(f"wrote consumption tables to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", help="dataset manifest (JSON) to load")
    p.add_argument("--synthetic-spec", help="synthetic dataset spec (JSON) to generate")


def _add_common(
    p: argparse.ArgumentParser, *, tol: float | None = None, max_iter: int | None = None
) -> None:
    """Shared options; ``--tol``/``--max-iter`` only for commands that iterate."""
    p.add_argument("--source", choices=[s.value for s in SourceClass], default=None,
                   help="energy source class (default: all three)")
    p.add_argument("--years", default=None, help="inclusive year range as FIRST:LAST")
    if tol is not None:
        p.add_argument("--tol", type=float, default=tol)
    if max_iter is not None:
        p.add_argument("--max-iter", type=int, default=max_iter)
    p.add_argument("--out", default="enflow_out", help="workspace directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enflow",
        description="Embodied energy flow networks: build, centrality, criticality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--synthetic-spec", help="spec JSON (overrides the inline flags)")
    p.add_argument("--shape", default="4,3,2", help="N,L,T (sectors, countries, periods)")
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho-cap", type=float, default=0.9)
    p.add_argument("--start-year", type=int, default=1990)
    p.add_argument("--out", default="enflow_out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build", help="build embodied-flow networks")
    _add_input_options(p)
    _add_common(p, tol=1e-10, max_iter=10_000)
    p.add_argument("--min-weight", type=float, default=0.0,
                   help="prune arcs below this weight (default: keep all positive)")
    p.add_argument("--drop-self-loops", action="store_true",
                   help="drop same-sector same-economy arcs")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("mdhits", help="five-vector scores of a built network")
    _add_common(p, tol=1e-10, max_iter=1000)
    p.add_argument("--gamma", default=None, help="five comma-separated exponents in (0,1]")
    p.add_argument("--per-year", action="store_true", help="also score each year separately")
    p.set_defaults(func=cmd_mdhits)

    p = sub.add_parser("hits", help="classical hub/authority scores per period")
    _add_common(p, tol=1e-12, max_iter=10_000)
    p.set_defaults(func=cmd_hits)

    p = sub.add_parser("eig", help="eigenvector centrality per period")
    _add_common(p, tol=1e-12, max_iter=10_000)
    p.add_argument("--largest-scc", action="store_true",
                   help="score the largest strongly connected component of a reducible matrix")
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("criticality", help="country-level arc criticality per period")
    _add_common(p)
    p.add_argument("--mode", choices=["exact", "sampled"], default=None,
                   help=f"default: exact up to {EXACT_MODE_NODE_LIMIT} nodes, sampled beyond")
    p.add_argument("--pairs", type=int, default=2000, help="ordered pairs per sampled total")
    p.add_argument("--seed", type=int, default=0, help="pair-sampling seed")
    p.add_argument("--top", type=int, default=10, help="top arcs per year in the summary table")
    p.set_defaults(func=cmd_criticality)

    p = sub.add_parser("consumption", help="consumption aggregates and rankings")
    _add_input_options(p)
    _add_common(p)
    p.add_argument("--top", type=int, default=10, help="rows per year in the top table")
    p.set_defaults(func=cmd_consumption)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except EnflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
