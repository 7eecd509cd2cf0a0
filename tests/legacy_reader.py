"""Row-by-row CSV readers kept as the reference for the columnar reader.

These are the ``csv.DictReader`` loops that ``enflow.dataio.load_dataset`` and
``load_network`` used before the columnar reader replaced them. The parity
tests in ``test_reader_parity.py`` require identical arrays on clean inputs and
identical errors (class, message, file:line) on single injected faults.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy import sparse

from enflow.dataio import _SCHEMAS, DatasetManifest, MrioDataset
from enflow.errors import DataFormatError, ValidationError
from enflow.leontief import ENERGY_SOURCES, MrioPeriod, SourceClass
from enflow.multinet import EntityCodes, NetworkShape, SupraAdjacency, TemporalMultilayerNetwork


class _Parser:
    """Shared strict-parse helpers carrying file/line context."""

    def __init__(self, path: Path, kind: str):
        self.path = path
        self.fh = open(path, newline="", encoding="utf-8")
        self.reader = csv.DictReader(self.fh)
        expected = _SCHEMAS[kind]
        if self.reader.fieldnames != expected:
            self.fh.close()
            raise DataFormatError(
                f"expected header {','.join(expected)}, got "
                f"{','.join(self.reader.fieldnames or [])}",
                path=str(path),
                line=1,
            )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def __iter__(self):
        return iter(self.reader)

    @property
    def line(self) -> int:
        return self.reader.line_num

    def fail(self, message: str):
        raise DataFormatError(message, path=str(self.path), line=self.line)

    def year(self, row) -> int:
        try:
            return int(row["year"])
        except (TypeError, ValueError):
            self.fail(f"invalid year {row['year']!r}")

    def value(self, row, column: str) -> float:
        try:
            v = float(row[column])
        except (TypeError, ValueError):
            self.fail(f"invalid number {row[column]!r} in column {column!r}")
        if not np.isfinite(v):
            self.fail(f"non-finite value in column {column!r}")
        if v < 0:
            self.fail(f"negative value {v} in column {column!r}")
        return v

    def code(self, row, column: str, table: Mapping[str, int], what: str) -> int:
        raw = (row[column] or "").strip()
        if raw not in table:
            self.fail(f"unknown {what} code {raw!r} in column {column!r}")
        return table[raw]


def load_dataset(manifest: DatasetManifest) -> MrioDataset:
    """Parse and validate one dataset into per-period accounts.

    Periods are the years present in the outputs file (restricted to the
    manifest's year range); rows in the other files must refer to those
    years. Every violation is reported with its file and line.
    """
    codebook = manifest.codebook()
    sector_idx = {code: i for i, code in enumerate(codebook.sector_codes)}
    country_idx = {code: i for i, code in enumerate(codebook.country_codes)}
    n = len(sector_idx)
    n_layers = len(country_idx)
    dim = n * n_layers
    lo, hi = manifest.years if manifest.years else (None, None)

    def in_range(year: int) -> bool:
        return (lo is None or year >= lo) and (hi is None or year <= hi)

    outputs: dict[int, np.ndarray] = {}
    output_lines: dict[tuple[int, int], int] = {}
    with _Parser(manifest.outputs, "outputs") as parser:
        for row in parser:
            year = parser.year(row)
            if not in_range(year):
                continue
            a = parser.code(row, "country", country_idx, "country")
            i = parser.code(row, "sector", sector_idx, "sector")
            value = parser.value(row, "total_output")
            key = (year, a * n + i)
            if key in output_lines:
                parser.fail(f"duplicate output for year {year}, {row['country']}/{row['sector']}")
            output_lines[key] = parser.line
            outputs.setdefault(year, np.zeros(dim))[key[1]] = value

    if not outputs:
        raise ValidationError(
            f"no periods found in {manifest.outputs}"
            + (f" within years {lo}..{hi}" if manifest.years else "")
        )
    years = sorted(outputs)

    use: dict[int, dict[tuple[int, int], float]] = {y: {} for y in years}
    with _Parser(manifest.transactions, "transactions") as parser:
        seen_tx: set[tuple[int, int, int]] = set()
        for row in parser:
            year = parser.year(row)
            if not in_range(year):
                continue
            if year not in use:
                parser.fail(f"year {year} has transactions but no outputs")
            a = parser.code(row, "src_country", country_idx, "country")
            i = parser.code(row, "src_sector", sector_idx, "sector")
            b = parser.code(row, "dst_country", country_idx, "country")
            j = parser.code(row, "dst_sector", sector_idx, "sector")
            value = parser.value(row, "value")
            key = (year, a * n + i, b * n + j)
            if key in seen_tx:
                parser.fail("duplicate transaction key")
            seen_tx.add(key)
            if value > 0:
                use[year][key[1:]] = value
        # Column use must not exceed the declared output, and any use needs output.
        for year in years:
            col_use = np.zeros(dim)
            for (_, k), v in use[year].items():
                col_use[k] += v
            o = outputs[year]
            bad = np.flatnonzero((col_use > o * (1 + 1e-9) + 1e-12) | ((o == 0) & (col_use > 0)))
            if bad.size:
                k = int(bad[0])
                line = output_lines.get((year, k))
                raise DataFormatError(
                    f"year {year}: column {codebook.country_codes[k // n]}/"
                    f"{codebook.sector_codes[k % n]} uses {col_use[k]} "
                    f"but output is {o[k]}",
                    path=str(manifest.outputs),
                    line=line,
                )

    energy: dict[int, dict[str, np.ndarray]] = {y: {} for y in years}
    with _Parser(manifest.energy, "energy") as parser:
        seen: set[tuple[int, int, str]] = set()
        for row in parser:
            year = parser.year(row)
            if not in_range(year):
                continue
            if year not in energy:
                parser.fail(f"year {year} has energy rows but no outputs")
            a = parser.code(row, "country", country_idx, "country")
            i = parser.code(row, "sector", sector_idx, "sector")
            source = (row["source"] or "").strip()
            if source not in ENERGY_SOURCES:
                parser.fail(
                    f"unknown energy source {source!r}; expected one of "
                    f"{sorted(ENERGY_SOURCES)}"
                )
            value = parser.value(row, "value")
            key = (year, a * n + i, source)
            if key in seen:
                parser.fail("duplicate energy key")
            seen.add(key)
            if value > 0:
                energy[year].setdefault(source, np.zeros(dim))[a * n + i] = value

    demand: dict[int, dict[tuple[int, int], float]] = {y: {} for y in years}
    with _Parser(manifest.final_demand, "final_demand") as parser:
        seen_fd: set[tuple[int, int, int, int]] = set()
        for row in parser:
            year = parser.year(row)
            if not in_range(year):
                continue
            if year not in demand:
                parser.fail(f"year {year} has final demand but no outputs")
            a = parser.code(row, "src_country", country_idx, "country")
            j = parser.code(row, "sector", sector_idx, "sector")
            b = parser.code(row, "dst_country", country_idx, "country")
            value = parser.value(row, "value")
            if (year, j, a, b) in seen_fd:
                parser.fail("duplicate final demand key")
            seen_fd.add((year, j, a, b))
            if value > 0:
                demand[year][(a * n + j, b)] = value

    shape = NetworkShape(n, n_layers, 1)
    periods = []
    for year in years:
        periods.append(
            MrioPeriod(
                label=year,
                shape=shape,
                intermediate_use=_matrix(use[year], (dim, dim)),
                total_output=outputs[year],
                energy_consumption=np.array([energy[year].get(c, np.zeros(dim))
                                             for c in sorted(ENERGY_SOURCES)]),
                final_demand=_matrix(demand[year], (dim, n_layers)),
            )
        )
    return MrioDataset(periods=tuple(periods), codebook=codebook, units=dict(manifest.units))


def _matrix(entries: dict[tuple[int, int], float], shape: tuple[int, int]):
    """Sparse matrix of {(row, col): value} entries."""
    if not entries:
        return sparse.csr_array(shape)
    rows_, cols_, vals_ = zip(*((h, k, v) for (h, k), v in entries.items()))
    return sparse.coo_array((vals_, (rows_, cols_)), shape=shape)


def load_network(
    directory: Path | str, source: SourceClass
) -> tuple[TemporalMultilayerNetwork, EntityCodes]:
    """Read back a network artifact written by :func:`save_network`."""
    directory = Path(directory)
    meta_path = directory / "network_meta.json"
    if not meta_path.exists():
        raise ValidationError(f"no network artifacts found in {directory} (missing meta file)")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    codes = EntityCodes(tuple(meta["sectors"]), tuple(meta["countries"]))
    n, n_layers = codes.n_nodes, codes.n_layers
    shape = NetworkShape(n, n_layers, 1)
    sector_idx = {code: i for i, code in enumerate(codes.sector_codes)}
    country_idx = {code: i for i, code in enumerate(codes.country_codes)}

    path = directory / f"network_{source.value}.csv"
    if not path.exists():
        raise ValidationError(
            f"network artifact for source {source.value!r} not found: {path}; "
            "run the build step first"
        )
    per_year: dict[int, list[tuple[int, int, float]]] = {int(y): [] for y in meta["periods"]}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            year = int(row["year"])
            if year not in per_year:
                raise DataFormatError(
                    f"year {year} not listed in network meta",
                    path=str(path),
                    line=reader.line_num,
                )
            h = country_idx[row["src_country"]] * n + sector_idx[row["src_sector"]]
            k = country_idx[row["dst_country"]] * n + sector_idx[row["dst_sector"]]
            per_year[year].append((h, k, float(row["weight"])))
    periods = [
        (year, SupraAdjacency(shape, sparse.coo_array(
            ([w for _, _, w in entries], ([h for h, _, _ in entries], [k for _, k, _ in entries])),
            shape=(shape.supra_dim, shape.supra_dim))))
        for year, entries in sorted(per_year.items())
    ]
    return TemporalMultilayerNetwork(periods), codes
