"""Dataset ingestion, synthetic data, consumption analytics and result files.

File contracts (CSV, UTF-8, header row, '.' decimal separator):

* transactions.csv   year,src_country,src_sector,dst_country,dst_sector,value
* outputs.csv        year,country,sector,total_output
* energy.csv         year,country,sector,source,value
* final_demand.csv   year,src_country,sector,dst_country,value
* sectors.csv        code,name
* countries.csv      code,name

``source`` must be one of coal, natural_gas, petroleum, nuclear,
biomass_waste, hydro, other_renewable. A manifest (JSON) names the data
files, an optional inclusive year range, the code lists and the units.

Loading is strict: wrong field counts, unknown codes, duplicate keys,
negative or non-finite values and column use exceeding output are reported
with file and line. Every dataset table goes through one columnar reader
keyed on ``_SCHEMAS``, which reads and checks it a chunk of records at a
time. Saving writes canonical files (sorted rows, shortest round-trip float
formatting), so load -> save is byte-stable on canonical data.

A built network is a binary arc list, ``network_<source>.npy`` (one
``_ARC_DTYPE`` record per stored arc), plus the shared ``network_meta.json``.
``network_<source>.csv`` holds the same arcs as text for other tools; no
reader here uses it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import tokenize
import typing
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .centrality import MdHitsScores
from .errors import DataFormatError, ValidationError, first_failure
from .flowcrit import ArcCriticalityReport
from .leontief import ENERGY_CARRIERS, MrioPeriod, SourceClass
from .multinet import (EntityCodes, NetworkShape, SupraAdjacency, TemporalMultilayerNetwork,
                       stacked_entries)

__all__ = [
    "CodeBook",
    "DatasetManifest",
    "MrioDataset",
    "SyntheticSpec",
    "bundled_codebook",
    "load_code_list",
    "load_dataset",
    "load_energy",
    "save_dataset",
    "generate_synthetic",
    "consumption_summary",
    "export_results",
    "save_network",
    "load_network",
    "write_csv",
    "Labels",
    "DEFAULT_UNITS",
    "DEFAULT_SOURCE_MIX",
]

DEFAULT_UNITS = {"monetary": "kUSD", "energy": "TJ"}

DEFAULT_SOURCE_MIX = {
    "coal": 1.0,
    "natural_gas": 0.8,
    "petroleum": 0.9,
    "nuclear": 0.3,
    "biomass_waste": 0.4,
    "hydro": 0.5,
    "other_renewable": 0.2,
}

_SCHEMAS = {
    "transactions": ["year", "src_country", "src_sector", "dst_country", "dst_sector", "value"],
    "outputs": ["year", "country", "sector", "total_output"],
    "energy": ["year", "country", "sector", "source", "value"],
    "final_demand": ["year", "src_country", "sector", "dst_country", "value"],
    "network": ["year", "src_country", "src_sector", "dst_country", "dst_sector", "weight"],
    "codes": ["code", "name"],
}

# One record of a network arc list: 0-based supra row and column, little-endian.
_ARC_DTYPE = np.dtype([("year", "<i8"), ("row", "<i4"), ("col", "<i4"), ("weight", "<f8")])
_INT64 = range(-(2**63), 2**63)
# Records per read or write of an arc list: 384 KiB of the file at a time.
_ARC_CHUNK = 1 << 14


def _read_json_object(path: Path, keys: Sequence[str] | None = None) -> dict:
    """The JSON object in ``path``; when ``keys`` are given, it may hold no other key."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"invalid JSON: {exc}", path=str(path)) from exc
    if not isinstance(raw, dict):
        raise DataFormatError(f"expected a JSON object, got {type(raw).__name__}", path=str(path))
    unknown = [key for key in raw if keys is not None and key not in keys]
    if unknown:
        raise DataFormatError(f"unknown key {unknown[0]!r} (known: {list(keys)})", path=str(path))
    return raw


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", list: "an array",
               dict: "an object"}


def _decode(hint, value, what: str, path: Path):
    """``value`` read from JSON as type ``hint``, else DataFormatError naming
    ``what``. A scalar comes from its JSON type, a tuple from an array, a
    dict or mapping from an object; an optional may be null; a float may be
    given as an integer (read as a float, DataFormatError beyond its range),
    and true/false is neither."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return tuple(_decode(args[0], item, f"{what}[{i}]", path)
                     for i, item in enumerate(_decode(list, value, what, path)))
    if origin in (dict, Mapping):
        return {key: _decode(args[1], item, f"{what}[{key!r}]", path)
                for key, item in _decode(dict, value, what, path).items()}
    if type(None) in args:
        return None if value is None else _decode(args[0], value, what, path)
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint):
        raise DataFormatError(f"{what} must be {_JSON_TYPES[hint]}, got {type(value).__name__}",
                              path=str(path))
    if hint is float:
        try:
            return float(value)
        except OverflowError:
            raise DataFormatError(f"{what} is out of the float range", path=str(path)) from None
    return value


class Labels(NamedTuple):
    """A column of labels for :func:`write_csv`: row r holds ``text[index[r]]``,
    where ``text`` is the CSV text of each label (see :meth:`quoted`)."""

    text: np.ndarray
    index: Sequence[int]

    @staticmethod
    def quoted(labels: Iterable) -> np.ndarray:
        """The CSV text of each label, as an object array. A label is one field
        or a tuple of adjacent fields; ``csv`` itself quotes each field, so the
        quoting rules are the ones its writer applies."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        texts = []
        for label in labels:
            buf.seek(0)
            buf.truncate()
            # A trailing empty field: csv quotes a record that is one empty field.
            writer.writerow((*label, "") if isinstance(label, tuple) else (label, ""))
            texts.append(buf.getvalue()[:-2])
        return np.array(texts, dtype=object)

    @classmethod
    def of(cls, values: Iterable) -> "Labels":
        """A column holding ``values``; each distinct value is quoted once
        (values equal as dict keys, such as 1 and 1.0, share the first's text)."""
        position: dict = {}
        index = [position.setdefault(v, len(position)) for v in values]
        return cls(cls.quoted(position), index)

    @classmethod
    def entities(cls, codes: EntityCodes, supra) -> "Labels":
        """The ``country,sector`` fields of 0-based supra indices."""
        return cls(_supra_text(codes), supra)


@functools.lru_cache(maxsize=8)
def _supra_text(codes: EntityCodes) -> np.ndarray:
    """CSV text of every supra index's (country, sector), made once per code universe."""
    return Labels.quoted(codes.supra_labels)


# Rows formatted at a time: bounds the text held in memory.
_CHUNK = 1 << 12


def write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` and the rows of ``columns``, byte for byte as
    ``csv.writer(lineterminator="\\n")`` writes the same rows.

    A column is :class:`Labels`, whose text may span several fields, or a
    sequence of numbers, written as Python writes them (``repr``, the
    shortest round-trip form of a float).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        _write_rows(fh, header, columns)


def _write_rows(fh, header: Sequence[str], columns: Sequence) -> None:
    """Append the rows of ``columns`` to a table of ``header`` open in ``fh``,
    formatting ``_CHUNK`` rows at a time (see :func:`write_csv`)."""
    sizes = {len(c.index) if isinstance(c, Labels) else len(c) for c in columns}
    if len(sizes) != 1:
        raise ValueError(f"columns of unequal length: {sorted(sizes)}")
    for start in range(0, sizes.pop(), _CHUNK):
        part = slice(start, start + _CHUNK)
        fields = [c.text[np.asarray(c.index[part])].tolist() if isinstance(c, Labels)
                  else repr(np.asarray(c[part]).tolist())[1:-1].split(", ")
                  for c in columns]
        rows = map(",".join, zip(*fields))
        if len(header) == 1:  # as csv, quote a record that is one empty field
            rows = (row or '""' for row in rows)
        fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# Code lists
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodeBook:
    """Sector and country code lists with display names, in file order."""

    sectors: tuple[tuple[str, str], ...]
    countries: tuple[tuple[str, str], ...]

    @property
    def sector_codes(self) -> tuple[str, ...]:
        return tuple(code for code, _ in self.sectors)

    @property
    def country_codes(self) -> tuple[str, ...]:
        return tuple(code for code, _ in self.countries)

    @property
    def entity_codes(self) -> EntityCodes:
        return EntityCodes(self.sector_codes, self.country_codes)

    def truncated(self, n_sectors: int, n_countries: int) -> "CodeBook":
        if n_sectors > len(self.sectors) or n_countries > len(self.countries):
            raise ValidationError(
                f"cannot truncate code book of ({len(self.sectors)}, {len(self.countries)}) "
                f"to ({n_sectors}, {n_countries})"
            )
        return CodeBook(self.sectors[:n_sectors], self.countries[:n_countries])


def load_code_list(path: Path) -> tuple[tuple[str, str], ...]:
    """Read a UTF-8 code,name CSV; codes must be unique and nonempty."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataFormatError("invalid UTF-8", path=str(path), line=line) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    entries: list[tuple[str, str]] = []
    seen: set[str] = set()
    try:
        header = next(reader, [])
        if header != _SCHEMAS["codes"]:
            raise DataFormatError(
                f"expected header {','.join(_SCHEMAS['codes'])}, got {','.join(header)}",
                path=str(path),
                line=1,
            )
        for row in filter(None, reader):
            if len(row) != 2:
                raise DataFormatError(f"expected 2 fields, got {len(row)}", path=str(path),
                                      line=reader.line_num)
            code = row[0].strip()
            if not code:
                raise DataFormatError("empty code", path=str(path), line=reader.line_num)
            if code in seen:
                raise DataFormatError(
                    f"duplicate code {code!r}", path=str(path), line=reader.line_num
                )
            seen.add(code)
            entries.append((code, row[1]))
    except csv.Error as exc:
        raise DataFormatError(str(exc), path=str(path), line=reader.line_num) from exc
    if not entries:
        raise DataFormatError("code list is empty", path=str(path))
    return tuple(entries)


def bundled_codebook() -> CodeBook:
    """The built-in 26-sector / 189-country code lists."""
    base = resources.files("enflow") / "data"
    with resources.as_file(base / "sectors.csv") as p:
        sectors = load_code_list(p)
    with resources.as_file(base / "countries.csv") as p:
        countries = load_code_list(p)
    return CodeBook(sectors=sectors, countries=countries)


# ---------------------------------------------------------------------------
# Manifest and dataset loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetManifest:
    """Resolved paths and options describing one on-disk dataset."""

    transactions: Path
    outputs: Path
    energy: Path
    final_demand: Path
    sectors: Path | None = None
    countries: Path | None = None
    years: tuple[int, int] | None = None
    units: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_UNITS))

    @classmethod
    def from_json(cls, path: Path | str) -> "DatasetManifest":
        path = Path(path)
        raw = _read_json_object(path, [f.name for f in dataclasses.fields(cls)])
        base = path.parent
        required = ["transactions", "outputs", "energy", "final_demand"]
        missing = [key for key in required if raw.get(key) is None]
        if missing:
            raise ValidationError(f"manifest {path} is missing keys: {missing}")

        def resolve(key: str) -> Path | None:
            if raw.get(key) is None:
                return None
            p = base / _decode(str, raw[key], repr(key), path)
            if not p.exists():
                raise ValidationError(f"manifest {path}: file for {key!r} not found: {p}")
            return p

        years = _decode(tuple[int, ...] | None, raw.get("years"), "'years'", path)
        if years is not None and (len(years) != 2 or years[0] > years[1]):
            raise ValidationError(
                f"manifest {path}: 'years' must be [first, last] with first <= last"
            )
        units = dict(DEFAULT_UNITS)
        if raw.get("units") is not None:
            units.update(_decode(dict[str, str], raw["units"], "'units'", path))
        return cls(
            transactions=resolve("transactions"),
            outputs=resolve("outputs"),
            energy=resolve("energy"),
            final_demand=resolve("final_demand"),
            sectors=resolve("sectors"),
            countries=resolve("countries"),
            years=years,
            units=units,
        )

    def codebook(self) -> CodeBook:
        if self.sectors is None or self.countries is None:
            bundled = bundled_codebook()
        sectors = load_code_list(self.sectors) if self.sectors else bundled.sectors
        countries = load_code_list(self.countries) if self.countries else bundled.countries
        return CodeBook(sectors=sectors, countries=countries)


@dataclass(frozen=True)
class MrioDataset:
    """Validated per-period accounts plus the code universe they live in."""

    periods: tuple[MrioPeriod, ...]
    codebook: CodeBook
    units: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_UNITS))

    @property
    def codes(self) -> EntityCodes:
        return self.codebook.entity_codes

    @property
    def shape(self) -> NetworkShape:
        base = self.periods[0].shape
        return NetworkShape(base.n_nodes, base.n_layers, len(self.periods))

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(p.label for p in self.periods)

    @property
    def energy(self) -> np.ndarray:
        """The (T, 7, M) stack of the periods' energy blocks F."""
        return np.array([p.energy_consumption for p in self.periods])


_UNKNOWN_CODE = {
    "source": "unknown energy source {code!r}; expected one of " + str(list(ENERGY_CARRIERS)),
}


# Records per read of a dataset table.
_TABLE_CHUNK = 1 << 14

# A table, as read: per year in increasing order, its records' columns in file order.
_Table = dict[int, tuple[np.ndarray, ...]]


def _records(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line, fields) of each record after the header, as ``csv`` reads them.

    Only used once an error is certain: it gives a record its file line
    (blank lines, CRLF and quoted fields included) and its raw text.
    """
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        try:
            next(reader, None)
            for row in reader:
                if row:
                    yield reader.line_num, row
        except csv.Error as exc:
            raise DataFormatError(str(exc), path=str(path), line=reader.line_num) from exc


def _number(text: str, kind: type):
    """``kind(text)`` under the rules of numpy's text reader (ASCII only, no
    digit separators, int64 range), or None when it does not parse."""
    if not text.isascii() or "_" in text:
        return None
    try:
        value = kind(text)
    except ValueError:
        return None
    if kind is int and value not in _INT64:
        return None
    return value


class _Codes(dict):
    """The index of each code of ``table``, keyed by its UTF-8 bytes read as
    Latin-1, as numpy's text reader hands over a field; its bound
    ``__getitem__`` is a column's converter. A field missing from the keys is
    decoded as UTF-8, stripped and looked up again; it reads as -1 when it
    is still missing or is not UTF-8."""

    def __init__(self, table: Sequence[str]):
        super().__init__((code.encode().decode("latin1"), k) for k, code in enumerate(table))

    def __missing__(self, field: str) -> int:
        try:
            text = field.encode("latin1").decode()
        except UnicodeDecodeError:
            return -1
        return self.get(text.strip().encode().decode("latin1"), -1)


def _chunks(path: Path, columns: list[str], code_tables: list[Sequence[str]]) -> Iterator[tuple]:
    """(start, year, codes, value, bad) of each chunk of one table's records,
    read by numpy's text reader ``_TABLE_CHUNK`` records at a time; ``start``
    is the chunk's first record (0-based, in the whole table).

    Every field reads as a number: the year and the value as themselves, each
    code field as its index in its column's table through ``_Codes``, -1
    where it is no code. A NUL byte is an ordinary character of its field.
    When a record does not parse (field count, year or value), the records
    before it in its chunk are read, it is appended, and no chunk follows;
    ``bad`` masks what failed in it.
    """
    lookups = [_Codes(table) for table in code_tables]
    dtype = [("year", np.int64), *((c, np.int64) for c in columns[1:-1]), ("value", np.float64)]
    converters = {k: codes.__getitem__ for k, codes in enumerate(lookups, 1)}
    with open(path, "rb") as fh:
        first = fh.readline().decode("utf-8", "replace")
        try:
            header = next(csv.reader([first]), [])
        except csv.Error:
            header = [first.rstrip("\r\n")]
        if header != columns:
            raise DataFormatError(
                f"expected header {','.join(columns)}, got {','.join(header)}",
                path=str(path),
                line=1,
            )

        def load(rows: int) -> np.ndarray:
            with warnings.catch_warnings():
                # No records, or blank lines, which are not records.
                warnings.simplefilter("ignore", UserWarning)
                return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                                  encoding="latin1", ndmin=1, max_rows=rows, converters=converters)

        start = 0
        while True:
            offset = fh.tell()
            try:
                data, failed = load(_TABLE_CHUNK), None
            except ValueError as exc:
                # Find the first record that does not parse and read up to it.
                failed = next(((k, row) for k, (_, row) in enumerate(_records(path))
                               if len(row) != len(columns) or _number(row[0], int) is None
                               or _number(row[-1], float) is None), None)
                data = None
                if failed is not None:
                    fh.seek(offset)
                    with contextlib.suppress(ValueError):
                        data = load(max(failed[0] - start, 0))
                    start = min(start, failed[0])
                if data is None:  # the csv reading disagrees: no record to name
                    raise DataFormatError(f"unreadable table: {exc}", path=str(path)) from exc

            year, value = data["year"], data["value"]
            codes = [data[c] for c in columns[1:-1]]
            bad = {}
            if failed is not None:
                row = failed[1] + [""] * (len(columns) - len(failed[1]))
                parsed_year, parsed_value = _number(row[0], int), _number(row[-1], float)
                fields = np.zeros(year.size + 1, dtype=bool)
                fields[-1] = len(failed[1]) != len(columns)
                bad = {"fields": fields, "year": fields.copy(), "value": fields.copy()}
                bad["year"][-1] |= parsed_year is None
                bad["value"][-1] = parsed_value is None
                year = np.append(year, parsed_year or 0)
                value = np.append(value, np.nan if parsed_value is None else parsed_value)
                codes = [np.append(f, find[text.encode().decode("latin1")])
                         for f, find, text in zip(codes, lookups, row[1:-1])]
            yield start, year, codes, value, bad
            if failed is not None or data.size < _TABLE_CHUNK:
                return
            start += data.size


def _repeated(bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the nonempty ``keys`` that repeat an earlier key of theirs or a
    key set in the bitmap ``bits``; every key's bit is then set."""
    distinct, first = np.unique(keys, return_index=True)
    byte, bit = distinct >> 3, (1 << (distinct & 7)).astype(np.uint8)
    repeated = np.ones(keys.size, dtype=bool)
    repeated[first] = (bits[byte] & bit) != 0
    starts = np.flatnonzero(np.diff(byte, prepend=-1))
    bits[byte[starts]] |= np.bitwise_or.reduceat(bit, starts)
    return repeated


def _read_table(
    path: Path,
    kind: str,
    codebook: CodeBook,
    *,
    window: tuple[int, int] | None = None,
    periods: np.ndarray | None = None,
    orphan: str = "",
    duplicate: str,
    records: bool = False,
) -> _Table:
    """Parse and validate one CSV table of ``_SCHEMAS[kind]``, chunk by chunk.

    The first column is the year, the last the value, and each column between
    holds a code of the codebook's countries or sectors or of ``ENERGY_CARRIERS``,
    as its name's last word says. Records whose year lies outside ``window``
    are dropped once the year parses. A year missing from ``periods`` fails
    with ``orphan``; a repeated (year, codes) key fails with ``duplicate``.
    The error names the first record with any violation and, within it, the
    first failing check: field count, year, listed year, codes in column
    order, value (parse, finite, negative), duplicate key. Field count, year
    and value parsing apply to every record, inside the window or not.

    Each year's columns are an index per entity (a country column and the
    sector column after it give one supra index, country * sectors + sector;
    any other code column its own index) and the value, after the 0-based
    record numbers when ``records``. A read holds these, a bitmap of the keys
    seen in each year (a bit per possible key) and one chunk.
    """
    columns = _SCHEMAS[kind]
    code_columns = columns[1:-1]
    tables = {"country": codebook.country_codes, "sector": codebook.sector_codes,
              "source": ENERGY_CARRIERS}
    code_tables = [tables[column.split("_")[-1]] for column in code_columns]
    dims: list[int] = []  # the number of entities of each index; a sector follows a country
    for column, table in zip(code_columns, code_tables):
        if column.endswith("sector"):
            dims[-1] *= len(table)
        else:
            dims.append(len(table))
    index = np.int32 if max(dims) <= np.iinfo(np.int32).max else np.int64
    name = columns[-1]
    seen: dict[int, np.ndarray] = {}  # per year, the bitmap of the keys read so far
    groups: dict[int, list[tuple[np.ndarray, ...]]] = {}

    for start, year, codes, value, bad in _chunks(path, columns, code_tables):
        live = np.ones(year.shape, dtype=bool)
        if window is not None:
            live = (window[0] <= year) & (year <= window[1])
        if bad:
            live &= ~bad["year"]

        # (violating records, message from the record's raw fields), in check order.
        checks = []
        if bad:
            checks.append((bad["fields"],
                           lambda row: f"expected {len(columns)} fields, got {len(row)}"))
            checks.append((bad["year"], lambda row: f"invalid year {row[0]!r}"))
        if periods is not None:
            checks.append((live & ~np.isin(year, periods),
                           lambda row: orphan.format(year=int(row[0]))))
        entities = []
        for column, table, idx in zip(code_columns, code_tables, codes):
            if column.endswith("sector"):
                entities[-1] = entities[-1] * len(table) + idx
            else:
                entities.append(idx)
            template = _UNKNOWN_CODE.get(column,
                                         "unknown {what} code {code!r} in column {column!r}")
            checks.append((live & (idx < 0), lambda row, c=column, t=template: t.format(
                what=c.split("_")[-1], code=row[columns.index(c)].strip(), column=c)))
        if bad:  # every record's value must parse, as its field count must match
            checks.append((bad["value"],
                           lambda row: f"invalid number {row[-1]!r} in column {name!r}"))
        checks.append((live & ~np.isfinite(value),
                       lambda row: f"non-finite value in column {name!r}"))
        checks.append((live & (value < 0),
                       lambda row: f"negative value {float(row[-1])} in column {name!r}"))
        hit = first_failure(checks)

        # Only the records before the first other failure can fail as duplicates.
        kept = np.flatnonzero(live[: year.size if hit is None else hit[0]])
        year = year[kept]
        kept_columns = ([start + kept] if records else []) + [
            e[kept].astype(index) for e in entities] + [value[kept]]
        key = np.ravel_multi_index(kept_columns[int(records):-1], dims)
        repeated = np.zeros(kept.size, dtype=bool)
        for y in np.unique(year).tolist():
            at = year == y
            if y not in seen:
                seen[y] = np.zeros(-(-math.prod(dims) // 8), dtype=np.uint8)
            repeated[at] = _repeated(seen[y], key[at])
            groups.setdefault(y, []).append(tuple(c[at] for c in kept_columns))
        if repeated.any():
            hit = (kept[repeated.argmax()], lambda row: duplicate.format(
                **{**dict(zip(columns, row)), "year": int(row[0])}))
        if hit is not None:
            k, message = hit
            line, row = _record(path, start + k)
            raise DataFormatError(message(row), path=str(path), line=line)

    return {y: tuple(map(np.concatenate, zip(*groups.pop(y)))) for y in sorted(groups)}


def _record(path: Path, k: int) -> tuple[int, list[str]]:
    """(line, fields) of the k-th record (0-based)."""
    return next(itertools.islice(_records(path), k, None))


def _years(table: _Table, path: Path, window: tuple[int, int] | None) -> np.ndarray:
    """The distinct years of a table's records in the window; there must be some."""
    if not table:
        raise ValidationError(f"no periods found in {path}"
                              + (f" within years {window[0]}..{window[1]}" if window else ""))
    return np.array(list(table), dtype=np.int64)


def _energy_block(manifest: DatasetManifest, codebook: CodeBook, years=None) -> tuple:
    """The periods and (T, 7, M) energy blocks F of ``energy.csv``: ``years``, which
    the records in the window must use, or else the file's years in the window."""
    en = _read_table(manifest.energy, "energy", codebook, window=manifest.years, periods=years,
                     orphan="year {year} has energy rows but no outputs",
                     duplicate="duplicate energy key")
    if years is None:
        years = _years(en, manifest.energy, manifest.years)
    n = len(codebook.sectors)
    energy = np.zeros((years.size, len(ENERGY_CARRIERS), n * len(codebook.countries)))
    for t, (h, k, value) in zip(np.searchsorted(years, list(en)), en.values()):
        keep = value > 0
        energy[t, k[keep], h[keep]] = value[keep]
    return years, energy


def load_energy(manifest: DatasetManifest) -> tuple[tuple[int, ...], EntityCodes, np.ndarray]:
    """Period labels, entity codes and (T, 7, M) energy blocks F, read from the
    code lists and ``energy.csv`` alone: the file's years in the manifest's range,
    checked as :func:`load_dataset` checks them, bar the years without outputs."""
    codebook = manifest.codebook()
    years, energy = _energy_block(manifest, codebook)
    return tuple(years.tolist()), codebook.entity_codes, energy


def load_dataset(manifest: DatasetManifest) -> MrioDataset:
    """Parse and validate one dataset into per-period accounts.

    Periods are the years present in the outputs file (restricted to the
    manifest's year range); rows in the other files must refer to those
    years. Every violation is reported with its file and line. Each table is
    read in chunks of ``_TABLE_CHUNK`` records, and a period's records leave
    their table as its accounts are built.
    """
    from scipy import sparse

    codebook = manifest.codebook()
    n = len(codebook.sectors)
    n_layers = len(codebook.countries)
    dim = n * n_layers
    window = manifest.years

    out = _read_table(
        manifest.outputs, "outputs", codebook, window=window, records=True,
        duplicate="duplicate output for year {year}, {country}/{sector}",
    )
    years = _years(out, manifest.outputs, window)
    outputs = np.zeros((years.size, dim))
    output_record = np.full((years.size, dim), -1)
    for t, (record, h, value) in enumerate(out.values()):
        outputs[t, h] = value
        output_record[t, h] = record

    def read(path: Path, kind: str, what: str, duplicate: str) -> _Table:
        return _read_table(path, kind, codebook, window=window, periods=years,
                           orphan=f"year {{year}} has {what} but no outputs", duplicate=duplicate)

    tx = read(manifest.transactions, "transactions", "transactions", "duplicate transaction key")
    # Column use must not exceed the declared output, and any use needs output.
    col_use = np.zeros((years.size, dim))
    for t, (_, dst, value) in zip(np.searchsorted(years, list(tx)), tx.values()):
        positive = value > 0
        col_use[t] = np.bincount(dst[positive], weights=value[positive], minlength=dim)
    over = (col_use > outputs * (1 + 1e-9) + 1e-12) | ((outputs == 0) & (col_use > 0))
    hit = first_failure([(over.reshape(-1), None)])
    if hit is not None:
        t, k = divmod(hit[0], dim)
        r = int(output_record[t, k])
        raise DataFormatError(
            f"year {years[t]}: column {codebook.country_codes[k // n]}/"
            f"{codebook.sector_codes[k % n]} uses {col_use[t, k]} "
            f"but output is {outputs[t, k]}",
            path=str(manifest.outputs),
            line=_record(manifest.outputs, r)[0] if r >= 0 else None,
        )

    consumption = _energy_block(manifest, codebook, years)[1]

    fd = read(manifest.final_demand, "final_demand", "final demand", "duplicate final demand key")

    def entries(table: _Table, year: int) -> tuple:
        """(value, (row, col)) of a year's records, which leave the table."""
        row, col, value = table.pop(year, (np.empty(0, np.int32),) * 2 + (np.empty(0),))
        return value, (row, col)

    shape = NetworkShape(n, n_layers, 1)
    periods = tuple(
        MrioPeriod(
            label=year,
            shape=shape,
            intermediate_use=sparse.coo_array(entries(tx, year), shape=(dim, dim)),
            total_output=outputs[t],
            energy_consumption=consumption[t],
            final_demand=sparse.coo_array(entries(fd, year), shape=(dim, n_layers)),
        )
        for t, year in enumerate(years.tolist())
    )
    return MrioDataset(periods=periods, codebook=codebook, units=dict(manifest.units))


def save_dataset(dataset: MrioDataset, directory: Path | str) -> Path:
    """Write canonical dataset files plus a manifest; returns the manifest path.

    Rows are sorted, zero entries are omitted and floats use their shortest
    round-trip form, so a load/save cycle reproduces the files byte for byte.
    Each table is written period by period from the period's accounts, so no
    copy of the whole dataset is held.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    codebook = dataset.codebook
    codes = codebook.entity_codes
    n, dim = codes.n_nodes, codes.n_nodes * codes.n_layers
    for name, entries in (("sectors", codebook.sectors), ("countries", codebook.countries)):
        write_csv(directory / f"{name}.csv", _SCHEMAS["codes"], [Labels.of(entries)])

    year, entity = Labels.quoted(dataset.labels), _supra_text(codes)
    carriers, countries = Labels.quoted(ENERGY_CARRIERS), Labels.quoted(codes.country_codes)
    # Energy rows sort by (country code, sector code, source).
    by_code = np.array(sorted(range(dim), key=codes.supra_labels.__getitem__))

    def transactions(p: MrioPeriod) -> tuple:
        _, h, k, value = stacked_entries([p.intermediate_use])
        return Labels(entity, h), Labels(entity, k), value

    def outputs(p: MrioPeriod) -> tuple:
        h = np.flatnonzero(p.total_output)
        return Labels(entity, h), p.total_output[h]

    def energy(p: MrioPeriod) -> tuple:
        f = p.energy_consumption
        pos, k = np.nonzero(f[:, by_code].T)
        h = by_code[pos]
        return Labels(entity, h), Labels(carriers, k), f[k, h]

    def final_demand(p: MrioPeriod) -> tuple:
        _, h, b, value = stacked_entries([p.final_demand])
        a, j = np.divmod(h, n)
        order = np.lexsort((b, a, j))  # by (sector, source country, destination country)
        return Labels(entity, h[order]), Labels(countries, b[order]), value[order]

    for table in (transactions, outputs, energy, final_demand):
        header = _SCHEMAS[table.__name__]
        with open(directory / f"{table.__name__}.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            for t, period in enumerate(dataset.periods):
                columns = table(period)
                _write_rows(fh, header, [Labels(year, np.broadcast_to(t, len(columns[-1]))),
                                         *columns])

    manifest = {
        "transactions": "transactions.csv",
        "outputs": "outputs.csv",
        "energy": "energy.csv",
        "final_demand": "final_demand.csv",
        "sectors": "sectors.csv",
        "countries": "countries.csv",
        "years": [dataset.labels[0], dataset.labels[-1]],
        "units": dict(dataset.units),
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")
    return manifest_path


# ---------------------------------------------------------------------------
# Synthetic datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a random but fully valid dataset.

    The generated input coefficients have spectral radius <= rho_cap by
    columnwise construction, both source classes carry positive consumption,
    and the same seed always reproduces the same dataset.
    """

    shape: NetworkShape
    density: float = 0.3
    seed: int = 0
    rho_cap: float = 0.9
    source_mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_SOURCE_MIX))
    start_year: int = 1990

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        last_year = self.start_year + self.shape.n_periods - 1
        if self.start_year not in _INT64 or last_year not in _INT64:
            raise ValidationError(
                f"start_year must keep every period label in the int64 range, "
                f"got {self.start_year} for {self.shape.n_periods} periods"
            )
        if not 0 < self.density <= 1:
            raise ValidationError(f"density must be in (0, 1], got {self.density}")
        if not 0 < self.rho_cap < 1:
            raise ValidationError(f"rho_cap must be in (0, 1), got {self.rho_cap}")
        unknown = [c for c in self.source_mix if c not in ENERGY_CARRIERS]
        if unknown:
            raise ValidationError(f"unknown energy sources in mix: {unknown}")
        bad = {c: w for c, w in self.source_mix.items() if not (math.isfinite(w) and w >= 0)}
        if bad:
            raise ValidationError(f"source mix weights must be finite and >= 0, got {bad}")
        for cls in (SourceClass.RENEWABLE, SourceClass.NONRENEWABLE):
            if not any(self.source_mix.get(c, 0) > 0 for c in cls.carriers):
                raise ValidationError(
                    f"source mix must give positive weight to at least one "
                    f"{cls.value} carrier"
                )

    @classmethod
    def from_json(cls, path: Path | str) -> "SyntheticSpec":
        """Read ``n_sectors``, ``n_countries``, ``n_periods`` and the other
        fields by name; a missing key keeps its default, and any other key
        is a DataFormatError."""
        path = Path(path)
        dims = {"n_sectors": 4, "n_countries": 3, "n_periods": 2}
        names = [f.name for f in dataclasses.fields(cls) if f.name != "shape"]
        raw = _read_json_object(path, [*dims, *names])
        shape = NetworkShape(*(
            _decode(int, raw.get(key, default), repr(key), path) for key, default in dims.items()
        ))
        hints = typing.get_type_hints(cls)
        return cls(shape=shape, **{
            name: _decode(hints[name], raw[name], repr(name), path) for name in names if name in raw
        })


def generate_synthetic(spec: SyntheticSpec) -> MrioDataset:
    """Draw a dataset from the spec; deterministic in the seed."""
    rng = np.random.default_rng(spec.seed)
    n, n_layers, n_periods = spec.shape.n_nodes, spec.shape.n_layers, spec.shape.n_periods
    dim = n * n_layers
    shape = NetworkShape(n, n_layers, 1)

    codebook = bundled_codebook()
    if n <= len(codebook.sectors) and n_layers <= len(codebook.countries):
        codebook = codebook.truncated(n, n_layers)
    else:
        codebook = CodeBook(
            sectors=tuple((f"S{i:03d}", f"Sector {i}") for i in range(n)),
            countries=tuple((f"C{i:03d}", f"Country {i}") for i in range(n_layers)),
        )

    weight = np.array([spec.source_mix.get(c, 0.0) for c in ENERGY_CARRIERS], dtype=np.float64)
    periods = []
    for t in range(n_periods):
        u = rng.uniform(0.1, 1.0, (dim, dim)) * (rng.random((dim, dim)) < spec.density)
        col_use = u.sum(axis=0)
        scale = spec.rho_cap * rng.uniform(0.3, 1.0, dim)
        output = np.where(col_use > 0, col_use / scale, rng.uniform(0.5, 2.0, dim))

        consumption = np.zeros((len(ENERGY_CARRIERS), dim))
        for k in np.flatnonzero(weight > 0):
            keep = rng.random(dim) < max(spec.density, 0.25)
            consumption[k] = weight[k] * rng.uniform(0.1, 1.0, dim) * keep
        for cls in (SourceClass.RENEWABLE, SourceClass.NONRENEWABLE):
            rows = [k for k in cls.rows if weight[k] > 0]
            if not consumption[rows].any():
                consumption[rows[0], int(rng.integers(dim))] = weight[rows[0]] * 0.5

        keep = rng.random((n, n_layers, n_layers)) < spec.density
        values = rng.uniform(0.1, 2.0, (n, n_layers, n_layers))
        if not keep.any():
            keep[0, 0, n_layers - 1] = True
        # values[j, a, b] is y[a*N + j, b].
        demand = (values * keep).transpose(1, 0, 2).reshape(dim, n_layers)

        periods.append(
            MrioPeriod(
                label=spec.start_year + t,
                shape=shape,
                intermediate_use=u,
                total_output=output,
                energy_consumption=consumption,
                final_demand=demand,
            )
        )
    return MrioDataset(periods=tuple(periods), codebook=codebook, units=dict(DEFAULT_UNITS))


# ---------------------------------------------------------------------------
# Consumption analytics
# ---------------------------------------------------------------------------


def consumption_summary(energy: np.ndarray) -> np.ndarray:
    """The class sums of a (T, 7, M) stack of energy blocks F, such as
    :attr:`MrioDataset.energy`: a (3, T, M) array in ``SourceClass`` order."""
    return np.array([cls.total(energy) for cls in SourceClass])


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------


def _score_sections(scores: MdHitsScores, codes: EntityCodes | None, period_labels):
    """(component, labels, vector) of each MD-HITS component, time last.
    Sector, country and period labels that do not fit a vector's length
    fall back to positions."""
    sectors, countries = (codes.sector_codes, codes.country_codes) if codes else ((), ())
    axes = (sectors, sectors, countries, countries, period_labels or ())
    sections = []
    for (component, vector), axis in zip(scores.as_dict().items(), axes):
        labels = axis if len(axis) == len(vector) else range(len(vector))
        sections.append((component, [str(v) for v in labels], vector))
    return sections


def export_results(
    obj,
    path: Path | str,
    *,
    codes: EntityCodes | None = None,
    period_labels: Sequence[int] | None = None,
    node_labels: Sequence[str] | None = None,
) -> Path:
    """Write a result object to ``path`` as a plot-ready long-format CSV.

    MdHitsScores: ``component,label,score``, one row per entry of each of the
    five vectors in turn; a label is a sector, country or period code (see
    :func:`_score_sections`). ArcCriticalityReport:
    ``tail_code,head_code,removed_total,index,rank``, one row per arc in the
    report's order, ranked from 1; node ``k`` is ``node_labels[k]`` when
    there is one, else ``str(k)``. Any other object is a ValidationError.
    """
    path = Path(path)
    if isinstance(obj, MdHitsScores):
        sections = _score_sections(obj, codes, period_labels)
        write_csv(path, ["component", "label", "score"], [
            Labels.of(component for component, labels, _ in sections for _ in labels),
            Labels.of(label for _, labels, _ in sections for label in labels),
            np.concatenate([vector for _, _, vector in sections]),
        ])
    elif isinstance(obj, ArcCriticalityReport):
        rows, labels = obj.rows, () if node_labels is None else node_labels
        ends = max(rows["tail"].max(initial=-1), rows["head"].max(initial=-1)) + 1
        node = Labels.quoted(str(labels[k]) if k < len(labels) else str(k) for k in range(ends))
        write_csv(path, ["tail_code", "head_code", "removed_total", "index", "rank"], [
            Labels(node, rows["tail"]), Labels(node, rows["head"]), rows["removed_total"],
            rows["index"], range(1, len(rows) + 1),
        ])
    else:
        raise ValidationError(f"cannot export object of type {type(obj).__name__}")
    return path


# ---------------------------------------------------------------------------
# Network artifacts
# ---------------------------------------------------------------------------


def save_network(
    net: TemporalMultilayerNetwork,
    codes: EntityCodes,
    source: SourceClass,
    directory: Path | str,
    units: Mapping[str, str] | None = None,
) -> Path:
    """Persist a built network as a binary arc list, its CSV export and a
    shared meta file; returns the CSV path. Both files are written from each
    period's matrix, ``_ARC_CHUNK`` arcs at a time, so no copy of the network
    or of one period is held."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    codes.check_shape(net.shape)
    if net.shape.supra_dim > np.iinfo(np.int32).max:
        raise ValidationError(f"supra dimension {net.shape.supra_dim} exceeds the int32 arc index")
    header, years = _SCHEMAS["network"], Labels.quoted(net.labels)
    # np.save's header, for the records of every period.
    npy = {**np.lib.format.header_data_from_array_1_0(np.empty(0, _ARC_DTYPE)),
           "shape": (sum(m.nnz for m in net.matrices),)}
    path = directory / f"network_{source.value}.csv"
    with (open(path, "w", newline="", encoding="utf-8") as text,
          open(directory / f"network_{source.value}.npy", "wb") as binary):
        csv.writer(text, lineterminator="\n").writerow(header)
        np.lib.format.write_array_header_1_0(binary, npy)
        for t, (label, m) in enumerate(net.periods):
            for start in range(0, m.nnz, _ARC_CHUNK):
                positions = np.arange(start, min(start + _ARC_CHUNK, m.nnz))
                arcs = np.empty(positions.size, dtype=_ARC_DTYPE)
                arcs["year"] = label
                arcs["row"] = np.searchsorted(m.indptr, positions, "right") - 1
                arcs["col"], arcs["weight"] = m.indices[positions], m.data[positions]
                arcs.tofile(binary)
                _write_rows(text, header, [
                    Labels(years, np.broadcast_to(t, arcs.shape)),
                    Labels.entities(codes, arcs["row"]), Labels.entities(codes, arcs["col"]),
                    arcs["weight"],
                ])

    meta_path = directory / "network_meta.json"
    fields = {
        "n_sectors": net.shape.n_nodes,
        "n_countries": net.shape.n_layers,
        "periods": list(net.labels),
        "sectors": list(codes.sector_codes),
        "countries": list(codes.country_codes),
        "units": dict(units or DEFAULT_UNITS),
    }
    sources = {source.value}
    if meta_path.exists():
        previous = _read_json_object(meta_path)
        # Accumulate sources only when the artifacts describe the same universe.
        if all(previous.get(k) == v for k, v in fields.items()):
            sources |= set(_decode(tuple[str, ...], previous.get("sources", []), "'sources'",
                                   meta_path))
    meta = dict(fields, sources=sorted(sources))
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", "utf-8")
    return path


def _read_arcs(path: Path) -> Iterator[tuple[int, np.ndarray]]:
    """The records of a ``.npy`` arc list, read in chunks of ``_ARC_CHUNK`` and
    yielded with the index of each chunk's first record. The header must hold
    exactly ``_ARC_DTYPE``, C order, one axis and the record count the file
    size gives; all of it is checked before the first record is read."""
    with open(path, "rb") as fh:
        with warnings.catch_warnings():
            # numpy warns, then reads a header that only parses as Python 2 text.
            warnings.simplefilter("error", UserWarning)
            try:
                version = np.lib.format.read_magic(fh)
                if version != (1, 0):
                    raise ValueError(f"unsupported .npy version {version[0]}.{version[1]}")
                shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            # What numpy's parse of an untrusted header text may raise.
            except (ValueError, TypeError, SyntaxError, RecursionError, tokenize.TokenError,
                    UserWarning) as exc:
                raise DataFormatError(f"invalid .npy header: {exc}", path=str(path)) from None
        if dtype != _ARC_DTYPE:
            raise DataFormatError(f"records must have dtype {_ARC_DTYPE.descr}, got {dtype.descr}",
                                  path=str(path))
        if fortran_order or len(shape) != 1:
            raise DataFormatError(f"expected a 1-D array in C order, got shape {shape}"
                                  f"{' in Fortran order' if fortran_order else ''}", path=str(path))
        count, size = shape[0], path.stat().st_size - fh.tell()
        if count * _ARC_DTYPE.itemsize != size:
            raise DataFormatError(f"header gives {count} records of {_ARC_DTYPE.itemsize} bytes, "
                                  f"but {size} bytes follow it", path=str(path))
        for start in range(0, count, _ARC_CHUNK):
            yield start, np.fromfile(fh, dtype=_ARC_DTYPE, count=min(_ARC_CHUNK, count - start))


def load_network(
    directory: Path | str, source: SourceClass, years: tuple[int, int] | None = None
) -> tuple[TemporalMultilayerNetwork, EntityCodes]:
    """Read back the binary arc list written by :func:`save_network`.

    Every record is checked, inside ``years`` or not: its year must be listed
    in the meta file and follow the period order, its row and column must lie
    in [0, N*L) and its weight must be finite and >= 0. ``years`` is an
    inclusive (first, last) window applied after the checks. The file is read
    in chunks of ``_ARC_CHUNK`` records, and a period's matrix is built once its
    last record has been read, so a load holds the matrices it returns, one
    period's records and one chunk, never the whole file.
    """
    directory = Path(directory)
    meta_path = directory / "network_meta.json"
    if not meta_path.exists():
        raise ValidationError(f"no network artifacts found in {directory} (missing meta file)")
    meta = _read_json_object(meta_path)
    for key, kind in (("sectors", str), ("countries", str), ("periods", int), ("sources", str)):
        value = meta.get(key)
        if not isinstance(value, list) or not all(type(v) is kind for v in value):
            raise DataFormatError(
                f"{key!r} must be a list of {kind.__name__}", path=str(meta_path)
            )
    outside = next((p for p in meta["periods"] if p not in _INT64), None)
    if outside is not None:
        raise DataFormatError(f"period {outside} is out of the int64 range", path=str(meta_path))
    path = directory / f"network_{source.value}.npy"
    if source.value not in meta["sources"] or not path.exists():
        raise ValidationError(
            f"network artifact for source {source.value!r} not found: {path} is missing or "
            f"not listed in {meta_path.name}; run the build step first"
        )
    codes = EntityCodes(tuple(meta["sectors"]), tuple(meta["countries"]))
    shape = NetworkShape(codes.n_nodes, codes.n_layers, 1)
    periods = np.unique(np.array(meta["periods"], dtype=np.int64))
    labels = periods
    if years is not None:
        labels = periods[(years[0] <= periods) & (periods <= years[1])]
        if not labels.size:
            raise ValidationError("period restriction removed every period")

    dim, kept = shape.supra_dim, set(labels.tolist())
    matrices, pieces, current = {}, [], None  # current: the year of the last record read

    def close() -> None:
        """Build the open period's matrix from its pieces, now read in full."""
        if pieces:
            key, weights = (np.concatenate(column) for column in zip(*pieces))
            pieces.clear()
            matrices[current] = SupraAdjacency.from_entries(shape, key, weights)

    for start, chunk in _read_arcs(path):
        year, row, col, weight = (np.ascontiguousarray(chunk[f]) for f in _ARC_DTYPE.names)
        del chunk
        before = np.concatenate((year[:1] if current is None else [current], year[:-1]))
        hit = first_failure([
            (~np.isin(year, periods), lambda k: f"year {year[k]} not listed in {meta_path.name}"),
            (year < before, lambda k: f"year {year[k]} follows year {before[k]}; "
                                      "records must be in period order"),
            ((row < 0) | (row >= dim), lambda k: f"row {row[k]} outside [0, {dim})"),
            ((col < 0) | (col >= dim), lambda k: f"col {col[k]} outside [0, {dim})"),
            (~np.isfinite(weight), lambda k: f"non-finite weight {weight[k]}"),
            (weight < 0, lambda k: f"negative weight {weight[k]}"),
        ])
        if hit is not None:
            k, message = hit
            raise DataFormatError(f"record {start + k}: {message(k)}", path=str(path))
        # Records are in period order, so each run of one year is its period's next piece.
        cuts = (np.flatnonzero(year[1:] != year[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, year.size]):
            if year[lo] != current:
                close()
                current = int(year[lo])
            if current in kept:
                pieces.append((row[lo:hi].astype(np.int64) * dim + col[lo:hi], weight[lo:hi]))
    close()
    # A listed period without records still gets its (empty) matrix.
    return TemporalMultilayerNetwork([
        (label, matrices[label] if label in matrices
         else SupraAdjacency.from_entries(shape, np.empty(0, np.int64), np.empty(0)))
        for label in labels.tolist()
    ]), codes
