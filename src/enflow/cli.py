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

Exit codes: 0 success, 2 validation error, 3 numerical error, 4 I/O or
environment: files, compiler, memory. A scoring command that fails on one
source class still scores the later ones and exits with the first failure's
code.
Stdout carries only progress lines. If its reader closes early, a command
drops the rest, still writes every result file and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .centrality import (
    _check_gamma,
    eigenvector_centrality,
    hits,
    md_hits,
    md_hits_single_period,
    rank,
)
from .dataio import (
    DatasetManifest,
    SyntheticSpec,
    consumption_summary,
    export_results,
    generate_synthetic,
    load_dataset,
    load_energy,
    load_network,
    save_dataset,
    save_network,
    write_csv,
    Labels,
    _score_sections,
)
from .errors import EnflowError, NumericalError, ValidationError
from .flowcrit import DEFAULT_SAMPLE_PAIRS, _check_sampling, country_level_criticality
from .leontief import SourceClass, build_temporal_network
from .multinet import NetworkShape

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _progress(line: str) -> None:
    """Print a progress line; once stdout's reader has gone, drop the rest."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)  # for later lines and the exit flush
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


@contextlib.contextmanager
def _naming(where: str):
    """Prefix ``where`` (a source class, and a year) to a numerical error raised inside."""
    try:
        yield
    except NumericalError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _at_least(kind: type, low: float, *, strict: bool = False):
    """argparse type: a finite ``kind`` that is >= ``low`` (> ``low`` when ``strict``)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            bound = f"{kind.__name__} {'>' if strict else '>='} {low}"
            raise argparse.ArgumentTypeError(f"expected a finite {bound}, got {text}")
        return value

    return parse


_TOL = _at_least(float, 0, strict=True)
_COUNT = _at_least(int, 1)


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


def _parse_gamma(text: str | None) -> list[float] | None:
    try:
        return None if text is None else [float(p) for p in text.split(",")]
    except ValueError:
        raise ValidationError(f"--gamma must be five comma-separated numbers, got {text!r}")


def _parse_shape(text: str) -> NetworkShape:
    try:
        n, l, t = (int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"--shape must look like N,L,T, got {text!r}")
    return NetworkShape(n, l, t)


def _sources(arg: str | None) -> list[SourceClass]:
    return list(SourceClass) if arg is None else [SourceClass(arg)]


def _each_source(args, run) -> int:
    """``run(source, net, codes)`` for each source class's network in the
    workspace, within ``--years``. A class that fails to load or to score does
    not stop the later ones: each failure is reported as it happens, and the
    exit code is the first failure's."""
    years = _parse_years(args.years)
    code = EXIT_OK
    for source in _sources(args.source):
        try:
            run(source, *load_network(Path(args.out), source, years))
        except (EnflowError, OSError, MemoryError) as exc:
            failed = _report(exc)
            code = code or failed
    return code


def _manifest(args) -> DatasetManifest:
    """The ``--manifest`` dataset, with ``--years`` as its year range when given."""
    years = _parse_years(args.years)
    if args.manifest is None:
        raise ValidationError("--manifest is required")
    manifest = DatasetManifest.from_json(args.manifest)
    if years is not None:
        manifest = dataclasses.replace(manifest, years=years)
    return manifest


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
            start_year=args.start_year,
        )
    dataset = generate_synthetic(spec)
    manifest_path = save_dataset(dataset, args.out)
    _progress(f"wrote synthetic dataset ({dataset.shape.n_periods} periods) to {manifest_path}")
    return EXIT_OK


def cmd_build(args) -> int:
    dataset = load_dataset(_manifest(args))
    out = Path(args.out)
    for source in _sources(args.source):
        net = build_temporal_network(dataset.periods, source, tol=args.tol, max_iter=args.max_iter)
        path = save_network(net, dataset.codes, source, out, units=dataset.units)
        for label, matrix in net.periods:
            if matrix.nnz == 0:
                print(f"warning: {source.value} {label}: network is empty", file=sys.stderr)
            _progress(f"{source.value} {label}: arcs={matrix.nnz} "
                      f"total_weight={matrix.total_weight:.6g}")
        _progress(f"wrote {path}")
        del net, matrix  # the next class's network is built without this one
    return EXIT_OK


def cmd_mdhits(args) -> int:
    gamma = _check_gamma(_parse_gamma(args.gamma))  # once, not once per source class
    out = Path(args.out)

    def run(source, net, codes):
        with _naming(source.value):
            scores = md_hits(net, gamma=gamma, tol=args.tol, max_iter=args.max_iter)
        path = out / f"mdhits_{source.value}.csv"
        export_results(scores, path, codes=codes, period_labels=net.labels)
        _progress(f"wrote {path} (converged in {scores.iterations} sweeps)")
        if args.per_year:
            columns = []  # per period and component: its rows in rank order
            for t, (label, matrix) in enumerate(net.periods):
                with _naming(f"{source.value} {label}"):
                    per = md_hits_single_period(matrix, gamma=gamma, tol=args.tol,
                                                max_iter=args.max_iter)
                # One period has no time axis to rank: skip the last section.
                for component, labels, vector in _score_sections(per, codes, None)[:-1]:
                    order, ranks = rank(vector, labels)
                    columns.append((np.full(order.size, component, dtype=object),
                                    np.array(labels, dtype=object)[order],
                                    np.full(order.size, t), vector[order], ranks))
            component, code, year, score, position = map(np.concatenate, zip(*columns))
            per_path = out / f"mdhits_{source.value}_by_year.csv"
            write_csv(per_path, ["component", "label", "year", "score", "rank"], [
                Labels.of(component), Labels.of(code), Labels(Labels.quoted(net.labels), year),
                score, position,
            ])
            _progress(f"wrote {per_path}")

    return _each_source(args, run)


def _entity_scores(args, name: str, header: list[str], score) -> int:
    """Write ``<name>_<source>.csv``: one row per period and (country, sector)
    entity, holding the vectors that ``score(source, label, matrix)`` returns."""
    out = Path(args.out)

    def run(source, net, codes):
        vectors = []
        for label, matrix in net.periods:
            with _naming(f"{source.value} {label}"):
                vectors.append(score(source, label, matrix))
        dim, periods = net.shape.supra_dim, len(vectors)
        path = out / f"{name}_{source.value}.csv"
        write_csv(path, ["year", "country", "sector", *header], [
            Labels(Labels.quoted(net.labels), np.repeat(np.arange(periods), dim)),
            Labels.entities(codes, np.tile(np.arange(dim), periods)),
            *map(np.concatenate, zip(*vectors)),
        ])
        _progress(f"wrote {path}")

    return _each_source(args, run)


def cmd_hits(args) -> int:
    def score(source, label, matrix):
        scores = hits(matrix, tol=args.tol, max_iter=args.max_iter)
        return scores.hub, scores.authority

    return _entity_scores(args, "hits", ["hub", "authority"], score)


def cmd_eig(args) -> int:
    def score(source, label, matrix):
        scores = eigenvector_centrality(
            matrix, tol=args.tol, max_iter=args.max_iter, largest_scc=args.largest_scc
        )
        _progress(f"{source.value} {label}: spectral radius {scores.spectral_radius:.6g}")
        return (scores.centrality,)

    return _entity_scores(args, "eig", ["score"], score)


def cmd_criticality(args) -> int:
    _check_sampling(args.mode, args.pairs, args.seed)  # once, not once per source class
    out = Path(args.out)

    def run(source, net, codes):
        ranked = []  # each period's report rows
        for label, matrix in net.periods:
            with _naming(f"{source.value} {label}"):
                report = country_level_criticality(matrix, args.mode, pairs=args.pairs,
                                                   seed=args.seed)
            path = out / f"criticality_{source.value}_{label}.csv"
            export_results(report, path, node_labels=codes.country_codes)
            _progress(f"{source.value} {label}: baseline={report.baseline_total:.6g} "
                      f"arcs={len(report.rows)} mode={report.mode} "
                      f"settled_by_cut={report.settled_by_cut} "
                      f"settled_by_two_hop={report.settled_by_two_hop} resolved={report.resolved}")
            ranked.append(report.rows)
        # Every year's rows for the arcs that make any year's top list.
        keys = [rows["tail"] * codes.n_layers + rows["head"] for rows in ranked]
        top_keys = np.concatenate([k[: args.top] for k in keys])
        picked = [np.flatnonzero(np.isin(k, top_keys)) for k in keys]
        rows = np.concatenate([rows[p] for rows, p in zip(ranked, picked)])
        year = np.repeat(np.arange(len(picked)), [p.size for p in picked])
        country = Labels.quoted(codes.country_codes)
        path = out / f"criticality_{source.value}_top.csv"
        write_csv(path, ["year", "tail_code", "head_code", "index", "rank"], [
            Labels(Labels.quoted(net.labels), year), Labels(country, rows["tail"]),
            Labels(country, rows["head"]), rows["index"], np.concatenate(picked) + 1,
        ])
        _progress(f"wrote {path}")

    return _each_source(args, run)


def cmd_consumption(args) -> int:
    labels, codes, energy = load_energy(_manifest(args))
    sums = consumption_summary(energy)  # (class, year, entity), classes in SourceClass order
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    c, t = sums.shape[:2]
    by_entity = sums.reshape(c, t, codes.n_layers, codes.n_nodes)
    year = Labels.quoted(labels)
    source_class = Labels.quoted(cls.value for cls in SourceClass)

    for axis, axis_codes, totals in (("country", codes.country_codes, by_entity.sum(axis=3)),
                                     ("sector", codes.sector_codes, by_entity.sum(axis=2))):
        code, a = Labels.quoted(axis_codes), len(axis_codes)
        # Rows by class, then year, then code.
        write_csv(out / f"consumption_{axis}.csv", ["year", axis, "source_class", "value"], [
            Labels(year, np.tile(np.repeat(np.arange(t), a), c)),
            Labels(code, np.tile(np.arange(a), t * c)),
            Labels(source_class, np.repeat(np.arange(c), t * a)),
            totals.ravel(),
        ])
        # The renewable share of the "all" total, where that total is positive.
        whole, renewable = totals[0].ravel(), totals[1].ravel()
        keep = np.flatnonzero(whole > 0)
        write_csv(out / f"incidence_{axis}.csv", ["year", axis, "incidence"], [
            Labels(year, keep // a), Labels(code, keep % a), renewable[keep] / whole[keep],
        ])
    write_csv(out / "consumption_world.csv", ["year", "source_class", "value"], [
        Labels(year, np.tile(np.arange(t), c)), Labels(source_class, np.repeat(np.arange(c), t)),
        sums.sum(axis=2).ravel(),
    ])
    # Rows by class, then year, then rank.
    by_country = by_entity.sum(axis=3).reshape(c * t, -1)
    order, position = map(np.array, zip(*(rank(v, codes.country_codes) for v in by_country)))
    order, position = order[:, : args.top], position[:, : args.top]
    k = order.shape[1]
    write_csv(out / "consumption_top_countries.csv",
              ["year", "source_class", "rank", "country", "value"], [
                  Labels(year, np.tile(np.repeat(np.arange(t), k), c)),
                  Labels(source_class, np.repeat(np.arange(c), t * k)), position.ravel(),
                  Labels(Labels.quoted(codes.country_codes), order.ravel()),
                  np.take_along_axis(by_country, order, axis=1).ravel(),
              ])

    _progress(f"wrote consumption tables to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(
    p: argparse.ArgumentParser, *, tol: float | None = None, max_iter: int | None = None
) -> None:
    """Shared options; ``--tol``/``--max-iter`` only for commands that iterate."""
    p.add_argument("--source", choices=[s.value for s in SourceClass], default=None,
                   help="energy source class (default: all three)")
    p.add_argument("--years", default=None, help="inclusive year range as FIRST:LAST")
    if tol is not None:
        p.add_argument("--tol", type=_TOL, default=tol)
    if max_iter is not None:
        p.add_argument("--max-iter", type=_COUNT, default=max_iter)
    p.add_argument("--out", default="enflow_out", help="workspace directory")


@functools.cache  # one parser per process: each one is a reference cycle
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
    p.add_argument("--start-year", type=int, default=1990)
    p.add_argument("--out", default="enflow_out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build", help="build embodied-flow networks")
    p.add_argument("--manifest", help="dataset manifest (JSON) to load")
    _add_common(p, tol=1e-10, max_iter=10_000)
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
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact",
                   help="all ordered country pairs, or a seeded sample of --pairs of them")
    p.add_argument("--pairs", type=_COUNT, default=DEFAULT_SAMPLE_PAIRS,
                   help="ordered pairs per sampled total")
    p.add_argument("--seed", type=int, default=0, help="pair-sampling seed")
    p.add_argument("--top", type=_COUNT, default=10, help="top arcs per year in the summary table")
    p.set_defaults(func=cmd_criticality)

    p = sub.add_parser("consumption", help="consumption aggregates and rankings")
    p.add_argument("--manifest", help="dataset manifest (JSON) to load")
    p.add_argument("--years", default=None, help="inclusive year range as FIRST:LAST")
    p.add_argument("--out", default="enflow_out", help="workspace directory")
    p.add_argument("--top", type=_COUNT, default=10, help="rows per year in the top table")
    p.set_defaults(func=cmd_consumption)

    return parser


def _report(exc: Exception) -> int:
    """Print the one-line message of a failure and return its exit code."""
    if isinstance(exc, NumericalError):
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if isinstance(exc, OSError):
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if isinstance(exc, MemoryError):
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_VALIDATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EnflowError, OSError, MemoryError) as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
