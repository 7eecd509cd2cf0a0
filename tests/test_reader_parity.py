"""The columnar CSV reader against the row-by-row reference in legacy_reader.

Clean workspaces must load to identical arrays and matrices; for networks the
reference reads the CSV export and ``load_network`` the binary arc list. A
single injected fault must raise the same exception class with the same
message and file:line. Field-count errors and the checks of the binary arc
list have no reference counterpart and are asserted directly.
"""

import csv
import dataclasses
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import legacy_reader
from enflow import (
    DataFormatError,
    NumericalError,
    DatasetManifest,
    NetworkShape,
    SourceClass,
    SyntheticSpec,
    ValidationError,
    build_temporal_network,
    generate_synthetic,
    load_dataset,
    load_network,
    save_dataset,
    save_network,
)
from enflow import dataio
from enflow.cli import main
from enflow.dataio import CodeBook
from enflow.multinet import EntityCodes, SupraAdjacency, TemporalMultilayerNetwork

TABLES = ("outputs", "transactions", "energy", "final_demand")
# Codes with non-ASCII bytes, a comma (written quoted) and a quote.
ODD_COUNTRIES = (("ÅLA", "Åland"), ("日本", "Japan"), ("A,B", "Comma"), ('Q"T', "Quote"))


def make_workspace(directory: Path, *, n=3, layers=3, periods=3, seed=0, density=0.5,
                   odd_codes=False) -> Path:
    dataset = generate_synthetic(
        SyntheticSpec(shape=NetworkShape(n, layers, periods), density=density, seed=seed)
    )
    if odd_codes:
        countries = ODD_COUNTRIES[:layers] + dataset.codebook.countries[len(ODD_COUNTRIES):]
        dataset = dataclasses.replace(
            dataset, codebook=CodeBook(dataset.codebook.sectors, countries[:layers])
        )
    manifest = save_dataset(dataset, directory / "data")
    for source in SourceClass:
        net = build_temporal_network(dataset.periods, source)
        save_network(net, dataset.codes, source, directory / "net")
    return manifest


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the (class, message) of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the reference may raise anything
        return type(exc), str(exc)


def assert_same_dataset(a, b):
    assert a.labels == b.labels
    assert a.codebook == b.codebook
    for p, q in zip(a.periods, b.periods):
        u, v = p.intermediate_use, q.intermediate_use
        assert np.array_equal(u.indptr, v.indptr)
        assert np.array_equal(u.indices, v.indices)
        assert np.array_equal(u.data, v.data)
        assert np.array_equal(p.total_output, q.total_output)
        assert np.array_equal(p.energy_consumption, q.energy_consumption)
        y, z = p.final_demand, q.final_demand
        assert np.array_equal(y.indptr, z.indptr)
        assert np.array_equal(y.indices, z.indices)
        assert np.array_equal(y.data, z.data)


def load_in_chunks(manifest):
    """``load_dataset``'s outcome, which a read two records at a time must repeat."""
    got = outcome(load_dataset, manifest)
    with mock.patch.object(dataio, "_TABLE_CHUNK", 2):
        again = outcome(load_dataset, manifest)
    if isinstance(got, tuple):
        assert again == got
    else:
        assert_same_dataset(got, again)
    return got


def assert_same_network(a, b):
    (net_a, codes_a), (net_b, codes_b) = a, b
    assert codes_a == codes_b
    assert net_a.labels == net_b.labels
    for (_, p), (_, q) in zip(net_a.periods, net_b.periods):
        assert np.array_equal(p.matrix.indptr, q.matrix.indptr)
        assert np.array_equal(p.matrix.indices, q.matrix.indices)
        assert np.array_equal(p.matrix.data, q.matrix.data)


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(path: Path, rows, *, crlf=False, blank_before=None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n" if crlf else "\n")
    for i, row in enumerate(rows):
        if i == blank_before:
            buf.write("\r\n" if crlf else "\n")
        writer.writerow(row)
    path.write_bytes(buf.getvalue().encode("utf-8"))


def inject(rows, fault: str, r: int, column: int):
    """Apply one fault to data record ``r`` (rows[0] is the header)."""
    row = list(rows[r])
    if fault == "unknown_code":
        row[column] = "ZZZ"
    elif fault == "unknown_non_ascii_code":
        row[column] = "日本X"
    elif fault == "negative":
        row[-1] = "-1.5"
    elif fault == "nan":
        row[-1] = "nan"
    elif fault == "non_numeric":
        row[-1] = "abc"
    elif fault == "invalid_year":
        row[0] = "19x0"
    elif fault == "unlisted_year":
        row[0] = "1800"
    elif fault == "long_code":  # a known code at its start, then padding and more
        row[column] = row[column] + " " * 80 + "X"
    elif fault == "nul_code":
        row[column] += "\0"
    elif fault == "nul_number":
        row[-1] += "\0"
    elif fault == "padded_code":  # valid: dataset codes are stripped
        row[column] = "   " + row[column] + "  "
    elif fault == "wide_padding":
        row[column] = " " * 80 + row[column]
    elif fault == "unicode_padding":  # what str.strip() removes beyond ASCII
        row[column] = "\u00a0\u3000" + row[column] + "\u2003\u0085"
    elif fault == "duplicate":
        return rows[: r + 1] + [rows[r]] + rows[r + 1:]
    return rows[:r] + [row] + rows[r + 1:]


# Valid paddings of a code field, which load as the unpadded code.
PADDINGS = ("padded_code", "wide_padding", "unicode_padding")
FAULTS = ("unknown_code", "unknown_non_ascii_code", "long_code", "negative", "nan",
          "non_numeric", "invalid_year", "unlisted_year", "nul_code", "nul_number", *PADDINGS,
          "duplicate")


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    layers=st.integers(1, 4),
    periods=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    density=st.sampled_from([0.2, 0.6, 1.0]),
    odd_codes=st.booleans(),
    window=st.sampled_from([None, (1990, 1990), (1991, 2000)]),
)
def test_clean_workspaces_load_identically(n, layers, periods, seed, density, odd_codes, window):
    with tempfile.TemporaryDirectory() as tmp:
        manifest_path = make_workspace(Path(tmp), n=n, layers=layers, periods=periods, seed=seed,
                                       density=density, odd_codes=odd_codes)
        manifest = dataclasses.replace(DatasetManifest.from_json(manifest_path), years=window)
        expected = outcome(legacy_reader.load_dataset, manifest)
        got = load_in_chunks(manifest)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert_same_dataset(expected, got)
        for source in SourceClass:
            expected = legacy_reader.load_network(Path(tmp) / "net", source)
            for chunk in (dataio._ARC_CHUNK, 3):  # one read, then many with periods across them
                with mock.patch.object(dataio, "_ARC_CHUNK", chunk):
                    assert_same_network(expected, load_network(Path(tmp) / "net", source))


@settings(max_examples=120, deadline=None)
@given(
    table=st.sampled_from(TABLES),
    fault=st.sampled_from(FAULTS),
    data=st.data(),
    crlf=st.booleans(),
    blank=st.booleans(),
    odd_codes=st.booleans(),
    window=st.sampled_from([None, (1991, 1991)]),
)
def test_single_fault_raises_the_reference_error(table, fault, data, crlf, blank, odd_codes,
                                                  window):
    with tempfile.TemporaryDirectory() as tmp:
        manifest_path = make_workspace(Path(tmp), density=0.6, odd_codes=odd_codes)
        path = manifest_path.parent / f"{table}.csv"
        rows = read_rows(path)
        r = data.draw(st.integers(1, len(rows) - 1), label="record")
        column = data.draw(st.integers(1, len(rows[0]) - 2), label="code column")
        rows = inject(rows, fault, r, column)
        write_rows(path, rows, crlf=crlf, blank_before=r if blank else None)
        manifest = dataclasses.replace(DatasetManifest.from_json(manifest_path), years=window)
        got = load_in_chunks(manifest)
        if (fault in ("non_numeric", "nul_number") and window
                and not window[0] <= int(rows[r][0]) <= window[1]):
            # The row reader never parsed the value of a row outside the window.
            line = r + 1 + blank
            assert got == (DataFormatError, f"{path}:{line}: invalid number {rows[r][-1]!r} "
                                            f"in column '{rows[0][-1]}'")
            return
        expected = outcome(legacy_reader.load_dataset, manifest)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert_same_dataset(expected, got)


@settings(max_examples=80, deadline=None)
@given(
    table=st.sampled_from(TABLES),
    faults=st.lists(st.sampled_from(FAULTS[:-len(PADDINGS) - 1]), min_size=2, max_size=3,
                    unique=True),
    data=st.data(),
)
def test_faults_in_one_record_are_reported_in_the_reference_order(table, faults, data):
    with tempfile.TemporaryDirectory() as tmp:
        manifest_path = make_workspace(Path(tmp), density=0.6)
        path = manifest_path.parent / f"{table}.csv"
        rows = read_rows(path)
        r = data.draw(st.integers(1, len(rows) - 1), label="record")
        for fault in faults:
            rows = inject(rows, fault, r, data.draw(st.integers(1, len(rows[0]) - 2)))
        write_rows(path, rows)
        manifest = dataclasses.replace(DatasetManifest.from_json(manifest_path), years=None)
        assert load_in_chunks(manifest) == outcome(legacy_reader.load_dataset, manifest)


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("fault", FAULTS)
def test_every_fault_is_reported_like_the_reference(tmp_path, table, fault):
    manifest_path = make_workspace(tmp_path, density=0.6, odd_codes=True)
    path = manifest_path.parent / f"{table}.csv"
    rows = inject(read_rows(path), fault, 3, 2)
    write_rows(path, rows, crlf=True, blank_before=2)
    manifest = dataclasses.replace(DatasetManifest.from_json(manifest_path), years=None)
    expected = outcome(legacy_reader.load_dataset, manifest)
    got = load_in_chunks(manifest)
    if isinstance(expected, tuple):
        assert expected[0] is DataFormatError
        assert got == expected
    else:  # padded codes are valid; an unlisted output year adds a period
        assert fault in PADDINGS or (fault, table) == ("unlisted_year", "outputs")
        assert_same_dataset(expected, got)


@pytest.mark.parametrize("table", TABLES)
def test_wrong_field_count_is_reported(tmp_path, table):
    manifest_path = make_workspace(tmp_path)
    path = manifest_path.parent / f"{table}.csv"
    rows = read_rows(path)
    width = len(rows[0])
    write_rows(path, rows[:2] + [rows[2][:-1]] + rows[3:])
    with pytest.raises(DataFormatError, match=rf"{table}\.csv:3: expected {width} fields, got "
                                              rf"{width - 1}$"):
        load_dataset(DatasetManifest.from_json(manifest_path))
    write_rows(path, rows[:4] + [rows[4] + ["extra"]] + rows[5:])
    with pytest.raises(DataFormatError, match=rf"{table}\.csv:5: expected {width} fields, got "
                                              rf"{width + 1}$"):
        load_dataset(DatasetManifest.from_json(manifest_path))


def test_field_count_is_checked_before_an_earlier_records_later_check(tmp_path):
    # Record 2 has an unknown code, record 3 a missing field: record 2 is first.
    manifest_path = make_workspace(tmp_path)
    path = manifest_path.parent / "energy.csv"
    rows = read_rows(path)
    rows = inject(rows, "unknown_code", 2, 1)
    write_rows(path, rows[:3] + [rows[3][:-1]] + rows[4:])
    with pytest.raises(DataFormatError, match=r"energy\.csv:3: unknown country code 'ZZZ'"):
        load_dataset(DatasetManifest.from_json(manifest_path))


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("fault", FAULTS + ("missing_field", "extra_field"))
@pytest.mark.parametrize("chunk", [1, 3, 4], ids=["alone", "starts-a-chunk", "ends-a-chunk"])
def test_a_fault_at_a_chunk_boundary_is_reported_as_in_one_chunk(tmp_path, monkeypatch, table,
                                                                   fault, chunk):
    # The fault is in record 3 (0-based). A duplicate is record 4, and its
    # first copy record 3: with chunks of 4 the copy ends one chunk and the
    # duplicate starts the next.
    manifest_path = make_workspace(tmp_path, density=0.6, odd_codes=True)
    path = manifest_path.parent / f"{table}.csv"
    rows = read_rows(path)
    if fault == "missing_field":
        rows[4] = rows[4][:-1]
    elif fault == "extra_field":
        rows[4] = rows[4] + ["1"]
    else:
        rows = inject(rows, fault, 4, 2)
    write_rows(path, rows, crlf=True, blank_before=4)
    manifest = dataclasses.replace(DatasetManifest.from_json(manifest_path), years=None)
    expected = outcome(load_dataset, manifest)
    if fault in FAULTS:
        reference = outcome(legacy_reader.load_dataset, manifest)
        if isinstance(reference, tuple):
            assert expected == reference
        else:
            assert_same_dataset(reference, expected)
    monkeypatch.setattr(dataio, "_TABLE_CHUNK", chunk)
    got = outcome(load_dataset, manifest)
    if isinstance(expected, tuple):
        assert got == expected
        assert got[0] is DataFormatError or (fault, table) == ("unlisted_year", "outputs")
    else:  # padded codes are valid; an unlisted output year adds a period
        assert fault in PADDINGS or (fault, table) == ("unlisted_year", "outputs")
        assert_same_dataset(expected, got)


def workspace_with_a_country(directory: Path, code: str) -> Path:
    """A 3-sector, 3-country dataset whose second country has ``code``."""
    dataset = generate_synthetic(SyntheticSpec(shape=NetworkShape(3, 3, 3), density=0.6, seed=4))
    countries = list(dataset.codebook.countries)
    countries[1] = (code, "Odd")
    codebook = CodeBook(dataset.codebook.sectors, tuple(countries))
    return save_dataset(dataclasses.replace(dataset, codebook=codebook), directory)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
@pytest.mark.parametrize("code", ["A,B", 'Q"T', "N\nL"])
def test_quoted_crlf_records_load_alike_in_chunks_of_any_size(tmp_path, monkeypatch, chunk, code):
    manifest_path = workspace_with_a_country(tmp_path, code)
    for table in TABLES:
        path = manifest_path.parent / f"{table}.csv"
        rows = read_rows(path)
        assert sum(code in row for row in rows) > chunk  # quoted records on both sides of a cut
        write_rows(path, rows, crlf=True, blank_before=2)
    manifest = DatasetManifest.from_json(manifest_path)
    expected = legacy_reader.load_dataset(manifest)
    monkeypatch.setattr(dataio, "_TABLE_CHUNK", chunk)
    assert_same_dataset(expected, load_dataset(manifest))


@pytest.mark.parametrize("chunk", [2, 3, 4])
@pytest.mark.parametrize("earlier", [None, "unknown_code", "negative", "duplicate"])
def test_a_parse_failure_in_a_later_chunk_yields_to_an_earlier_fault(tmp_path, monkeypatch, chunk,
                                                                      earlier):
    # Record 7 (0-based) does not parse; record 6, in the same chunk, may
    # fail an earlier check (a duplicate of record 5, from an earlier chunk
    # when chunks hold 2 or 3 records).
    manifest_path = make_workspace(tmp_path, density=0.6)
    path = manifest_path.parent / "energy.csv"
    rows = read_rows(path)
    rows = inject(rows, "non_numeric", 8, 1)
    if earlier == "duplicate":
        rows[7] = rows[6]
    elif earlier is not None:
        rows = inject(rows, earlier, 7, 1)
    write_rows(path, rows)
    manifest = DatasetManifest.from_json(manifest_path)
    expected = outcome(legacy_reader.load_dataset, manifest)
    line = 9 if earlier is None else 8
    assert expected[0] is DataFormatError and expected[1].startswith(f"{path}:{line}: ")
    monkeypatch.setattr(dataio, "_TABLE_CHUNK", chunk)
    assert outcome(load_dataset, manifest) == expected


def test_one_year_dataset_load_does_not_grow_with_the_periods_in_the_file(tmp_path, monkeypatch):
    # Chunks are cut below one period's records, as a paper-shape period is
    # far above the default sizes.
    monkeypatch.setattr(dataio, "_TABLE_CHUNK", 64)
    peaks = []
    for periods in (1, 9):
        manifest_path = make_workspace(tmp_path / str(periods), n=6, layers=6, periods=periods,
                                       density=0.5)
        manifest = dataclasses.replace(DatasetManifest.from_json(manifest_path), years=(1990, 1990))
        assert len(read_rows(manifest.transactions)) > periods * 4 * 64
        load_dataset(manifest)
        tracemalloc.start()
        try:
            assert load_dataset(manifest).labels == (1990,)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_save_network_does_not_grow_with_the_periods_it_writes(tmp_path):
    peaks = []
    for periods in (1, 9):
        dataset = generate_synthetic(SyntheticSpec(shape=NetworkShape(6, 6, periods), density=0.5))
        net = build_temporal_network(dataset.periods, SourceClass.ALL)
        assert net.matrices[0].nnz > 500
        save_network(net, dataset.codes, SourceClass.ALL, tmp_path / str(periods))
        tracemalloc.start()
        try:
            save_network(net, dataset.codes, SourceClass.ALL, tmp_path / str(periods))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_one_period_save_does_not_grow_with_its_arcs(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_ARC_CHUNK", 64)
    shape = NetworkShape(20, 10)
    codes = EntityCodes(tuple(f"s{i}" for i in range(20)), tuple(f"c{a}" for a in range(10)))
    peaks = []
    for arcs in (640, 40_000):
        dense = np.zeros(shape.supra_dim**2)
        dense[:arcs] = 1.5
        net = TemporalMultilayerNetwork([(1990, SupraAdjacency(shape, dense.reshape(200, 200)))])
        save_network(net, codes, SourceClass.ALL, tmp_path / str(arcs))
        tracemalloc.start()
        try:
            save_network(net, codes, SourceClass.ALL, tmp_path / str(arcs))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


# ---------------------------------------------------------------------------
# network artifacts
# ---------------------------------------------------------------------------


def write_npy(path: Path, arcs: np.ndarray, **header) -> None:
    """``arcs`` as a version 1.0 ``.npy`` file, with header fields overridden."""
    fields = {**np.lib.format.header_data_from_array_1_0(arcs), **header}
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, fields)
        fh.write(arcs.tobytes())


def set_field(name, k, value):
    def edit(path):
        arcs = np.load(path, allow_pickle=False)
        arcs[name][k] = value
        np.save(path, arcs, allow_pickle=False)
    return edit


def swap(i, j):
    def edit(path):
        arcs = np.load(path, allow_pickle=False)
        arcs[[i, j]] = arcs[[j, i]]
        np.save(path, arcs, allow_pickle=False)
    return edit


def resave(transform):
    return lambda path: np.save(path, transform(np.load(path, allow_pickle=False)))


WIDE = [("year", "<i8"), ("row", "<i8"), ("col", "<i8"), ("weight", "<f8")]
NPY_FAULTS = {
    "dtype": (resave(lambda arcs: arcs.astype(WIDE)),
              "records must have dtype [('year', '<i8'), ('row', '<i4'), ('col', '<i4'), "
              "('weight', '<f8')], got [('year', '<i8'), ('row', '<i8'), ('col', '<i8'), "
              "('weight', '<f8')]"),
    "big_endian": (resave(lambda arcs: arcs.astype(arcs.dtype.newbyteorder(">"))),
                   "records must have dtype "),
    "fortran_order": (lambda path: write_npy(path, np.load(path), fortran_order=True),
                      "expected a 1-D array in C order, got shape "),
    "two_axes": (resave(lambda arcs: arcs.reshape(-1, 1)),
                 "expected a 1-D array in C order, got shape ("),
    "count_above_size": (lambda path: write_npy(path, np.load(path),
                                                shape=(np.load(path).size + 1,)),
                         "header gives "),
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:-5]), "header gives "),
    "bad_magic": (lambda path: path.write_bytes(b"year,row" + path.read_bytes()[8:]),
                  "invalid .npy header: "),
    "unlisted_year": (set_field("year", 3, 1800), "record 3: year 1800 not listed in "
                                                  "network_meta.json"),
    "out_of_period_order": (swap(0, -1), "record 1: year 1990 follows year 1992; records must be "
                                         "in period order"),
    "negative_index": (set_field("row", 3, -1), "record 3: row -1 outside [0, 9)"),
    "row_out_of_range": (set_field("row", 3, 9), "record 3: row 9 outside [0, 9)"),
    "col_out_of_range": (set_field("col", 3, 9), "record 3: col 9 outside [0, 9)"),
    "nan_weight": (set_field("weight", 3, np.nan), "record 3: non-finite weight nan"),
    "negative_weight": (set_field("weight", 3, -2.0), "record 3: negative weight -2.0"),
}


@pytest.mark.parametrize("fault", NPY_FAULTS)
def test_bad_arc_list_exits_2_naming_the_file(tmp_path, capsys, fault):
    make_workspace(tmp_path)
    path = tmp_path / "net" / "network_all.npy"
    edit, message = NPY_FAULTS[fault]
    edit(path)
    with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}: {message}")):
        load_network(tmp_path / "net", SourceClass.ALL)
    capsys.readouterr()
    assert main(["hits", "--out", str(tmp_path / "net"), "--source", "all"]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("fault", [f for f, (_, message) in NPY_FAULTS.items()
                                   if message.startswith("record ")])
def test_bad_record_first_in_the_second_chunk_is_reported_alike(tmp_path, monkeypatch, fault):
    make_workspace(tmp_path)
    path = tmp_path / "net" / "network_all.npy"
    edit, message = NPY_FAULTS[fault]
    edit(path)
    monkeypatch.setattr(dataio, "_ARC_CHUNK", int(re.match(r"record (\d+):", message)[1]))
    with pytest.raises(DataFormatError, match="^" + re.escape(f"{path}: {message}") + "$"):
        load_network(tmp_path / "net", SourceClass.ALL)


@pytest.mark.parametrize("split", [True, False])
def test_period_order_is_checked_across_a_chunk_boundary(tmp_path, monkeypatch, split):
    make_workspace(tmp_path)
    path = tmp_path / "net" / "network_all.npy"
    first = int(np.flatnonzero(np.load(path)["year"] == 1991)[0])
    set_field("year", first - 1, 1992)(path)  # the last 1990 record, now after 1991's first
    if split:
        monkeypatch.setattr(dataio, "_ARC_CHUNK", first)
    with pytest.raises(DataFormatError, match="^" + re.escape(
            f"{path}: record {first}: year 1991 follows year 1992; records must be in period "
            "order") + "$"):
        load_network(tmp_path / "net", SourceClass.ALL)


@pytest.mark.parametrize("chunk", [1, 4, 7])
@pytest.mark.parametrize("window", [None, (1990, 1990), (1991, 1991), (1992, 1992)])
def test_periods_across_many_chunks_load_as_in_one(tmp_path, monkeypatch, chunk, window):
    make_workspace(tmp_path, density=1.0)
    per_period = np.unique(np.load(tmp_path / "net" / "network_all.npy")["year"],
                           return_counts=True)[1]
    assert per_period.min() >= 3 * chunk  # every period spans three chunks or more
    expected = load_network(tmp_path / "net", SourceClass.ALL, window)
    assert expected[0].labels == ((1990, 1991, 1992) if window is None else (window[0],))
    monkeypatch.setattr(dataio, "_ARC_CHUNK", chunk)
    assert_same_network(expected, load_network(tmp_path / "net", SourceClass.ALL, window))


def test_one_year_load_does_not_grow_with_the_periods_in_the_file(tmp_path, monkeypatch):
    # The chunk is cut below one period's records, as a paper-shape period is
    # far above the default chunk.
    monkeypatch.setattr(dataio, "_ARC_CHUNK", 64)
    peaks = []
    for periods in (1, 9):
        make_workspace(tmp_path / str(periods), n=6, layers=6, periods=periods, density=0.5)
        year = np.load(tmp_path / str(periods) / "net" / "network_all.npy")["year"]
        assert np.count_nonzero(year == 1990) > 4 * 64
        load_network(tmp_path / str(periods) / "net", SourceClass.ALL, (1990, 1990))
        tracemalloc.start()
        try:
            load_network(tmp_path / str(periods) / "net", SourceClass.ALL, (1990, 1990))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_first_bad_record_is_reported_with_its_first_failing_check(tmp_path):
    make_workspace(tmp_path)
    path = tmp_path / "net" / "network_all.npy"
    arcs = np.load(path)
    arcs["weight"][5] = -1.0
    arcs["year"][2], arcs["col"][2], arcs["weight"][2] = 1800, 99, np.inf
    np.save(path, arcs)
    with pytest.raises(DataFormatError, match=r"network_all\.npy: record 2: year 1800 "):
        load_network(tmp_path / "net", SourceClass.ALL)


def test_arc_list_holds_the_csv_export_in_file_order(tmp_path):
    make_workspace(tmp_path, odd_codes=True)
    arcs = np.load(tmp_path / "net" / "network_all.npy", allow_pickle=False)
    rows = read_rows(tmp_path / "net" / "network_all.csv")[1:]
    meta = json.loads((tmp_path / "net" / "network_meta.json").read_text())
    n, countries, sectors = len(meta["sectors"]), meta["countries"], meta["sectors"]
    assert [[str(y), countries[h // n], sectors[h % n], countries[k // n], sectors[k % n], repr(w)]
            for y, h, k, w in arcs.tolist()] == rows


@pytest.mark.parametrize("meta, message", [
    ("[1, 2]", "expected a JSON object, got list"),
    ("{", "invalid JSON"),
    (None, "'periods' must be a list of int"),
])
def test_network_meta_errors(tmp_path, meta, message):
    make_workspace(tmp_path)
    meta_path = tmp_path / "net" / "network_meta.json"
    if meta is None:
        raw = json.loads(meta_path.read_text())
        del raw["periods"]
        meta = json.dumps(raw)
    meta_path.write_text(meta)
    with pytest.raises(DataFormatError, match=message):
        load_network(tmp_path / "net", SourceClass.ALL)


def test_cli_exits_2_on_a_bad_network_artifact(tmp_path, capsys):
    make_workspace(tmp_path)
    set_field("row", 2, 99)(tmp_path / "net" / "network_all.npy")
    assert main(["hits", "--out", str(tmp_path / "net"), "--source", "all"]) == 2
    assert "network_all.npy: record 2: row 99 outside [0, 9)" in capsys.readouterr().err


def test_sources_missing_from_the_meta_file_are_not_loaded(tmp_path, capsys):
    # A build over fewer years, then a build of one source: the meta file now
    # lists only that source, and the other sources' arc lists are stale.
    data, net = tmp_path / "data", tmp_path / "net"
    assert main(["synth", "--shape", "4,3,3", "--out", str(data)]) == 0
    manifest = str(data / "manifest.json")
    assert main(["build", "--manifest", manifest, "--years", "1990:1991", "--out", str(net)]) == 0
    assert main(["build", "--manifest", manifest, "--source", "all", "--out", str(net)]) == 0
    assert json.loads((net / "network_meta.json").read_text())["sources"] == ["all"]
    capsys.readouterr()
    for source in ("renewable", "nonrenewable"):
        assert main(["hits", "--source", source, "--out", str(net)]) == 2
        err = capsys.readouterr().err
        assert f"network artifact for source '{source}' not found" in err
        assert err.rstrip().endswith("run the build step first") and "Traceback" not in err
    assert main(["hits", "--source", "all", "--out", str(net)]) == 0


def test_years_window_is_applied_while_loading(tmp_path):
    make_workspace(tmp_path, periods=3)
    full, _ = load_network(tmp_path / "net", SourceClass.ALL)
    part, _ = load_network(tmp_path / "net", SourceClass.ALL, (1991, 1992))
    assert part.labels == (1991, 1992)
    for label, matrix in part.periods:
        assert np.array_equal(matrix.matrix.toarray(), dict(full.periods)[label].matrix.toarray())
    # A record outside the window is checked all the same.
    path = tmp_path / "net" / "network_all.npy"
    first = int(np.flatnonzero(np.load(path)["year"] == 1990)[0])
    set_field("row", first, -1)(path)
    with pytest.raises(DataFormatError, match=rf"record {first}: row -1 outside"):
        load_network(tmp_path / "net", SourceClass.ALL, (1991, 1992))
    with pytest.raises(ValidationError, match="period restriction removed every period"):
        load_network(tmp_path / "net", SourceClass.ALL, (2050, 2060))


@pytest.mark.parametrize("command", ["mdhits", "hits", "eig", "criticality"])
def test_empty_years_window_exits_2(tmp_path, capsys, command):
    make_workspace(tmp_path)
    assert main([command, "--out", str(tmp_path / "net"), "--years", "2050:2060"]) == 2
    assert "period restriction removed every period" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# JSON inputs and the entry constructor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "expected a JSON object, got list"),
    ("{not json", "invalid JSON"),
])
def test_synthetic_spec_json_errors(tmp_path, capsys, text, message):
    path = tmp_path / "spec.json"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=message):
        SyntheticSpec.from_json(path)
    assert main(["synth", "--synthetic-spec", str(path), "--out", str(tmp_path / "d")]) == 2
    assert message in capsys.readouterr().err


def test_load_merges_a_period_out_of_order_across_chunks_in_record_order(tmp_path, monkeypatch):
    records = np.array([
        (1990, 2, 1, 1.0),
        (1991, 3, 0, 2.0), (1991, 1, 2, 0.1), (1991, 0, 3, 4.0), (1991, 1, 2, 0.2),
        (1991, 2, 2, 0.5), (1991, 1, 2, 0.3), (1991, 0, 1, 0.0),
    ], dtype=dataio._ARC_DTYPE)
    write_npy(tmp_path / "network_all.npy", records)
    (tmp_path / "network_meta.json").write_text(json.dumps({
        "sectors": ["a", "b"], "countries": ["X", "Y"], "periods": [1990, 1991],
        "sources": ["all"],
    }))
    monkeypatch.setattr(dataio, "_ARC_CHUNK", 2)
    net, _ = load_network(tmp_path, SourceClass.ALL)
    shape = NetworkShape(2, 2)
    for year, w in net:
        mine = records[records["year"] == year]
        coo = sparse.coo_array((mine["weight"], (mine["row"], mine["col"])), shape=(4, 4))
        expected = SupraAdjacency(shape, coo)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(w, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert net.periods[1][1].matrix[1, 2].hex() == (0.0 + 0.1 + 0.2 + 0.3).hex()
    assert net.periods[1][1].nnz == 4


def test_from_entries_takes_an_array_and_sums_duplicates():
    shape = NetworkShape(2, 2)
    keys = np.array([0 * 4 + 1, 3 * 4 + 2, 0 * 4 + 1])
    w = SupraAdjacency.from_entries(shape, keys, np.array([1.0, 2.0, 0.5]))
    assert w.matrix[0, 1] == 1.5 and w.matrix[3, 2] == 2.0 and w.nnz == 2
    assert SupraAdjacency.from_entries(shape, np.empty(0, np.int64), np.empty(0)).nnz == 0


@settings(max_examples=150, deadline=None)
@given(
    table=st.sampled_from(TABLES + ("network_all",)),
    edit=st.sampled_from(["truncate", "replace", "insert", "delete"]),
    data=st.data(),
)
def test_mutated_tables_fail_only_with_package_errors(table, edit, data):
    with tempfile.TemporaryDirectory() as tmp:
        manifest_path = make_workspace(Path(tmp), odd_codes=data.draw(st.booleans()))
        folder = Path(tmp) / ("net" if table == "network_all" else "data")
        path = folder / (f"{table}.npy" if table == "network_all" else f"{table}.csv")
        raw = path.read_bytes()
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        byte = bytes([data.draw(st.sampled_from(b'\x00\n\r,"-. 0a\xc3\xff'), label="byte")])
        raw = {"truncate": raw[:at], "replace": raw[:at] + byte + raw[at + 1:],
               "insert": raw[:at] + byte + raw[at:], "delete": raw[:at] + raw[at + 1:]}[edit]
        path.write_bytes(raw)
        try:
            if table == "network_all":
                load_network(folder, SourceClass.ALL)
            else:
                load_dataset(DatasetManifest.from_json(manifest_path))
        except (ValidationError, NumericalError):
            pass


def test_a_lone_carriage_return_is_a_format_error(tmp_path):
    manifest_path = make_workspace(tmp_path)
    path = manifest_path.parent / "outputs.csv"
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"\n", b"\r", 3).replace(b"\r", b"\n", 1))
    # csv reads a lone CR as a line end, numpy's reader rejects it: no line to name.
    with pytest.raises(DataFormatError, match=r"outputs\.csv: unreadable table: .*newline"):
        load_dataset(DatasetManifest.from_json(manifest_path))
    path.write_bytes(raw.replace(b"\n", b"\r", 1))
    with pytest.raises(DataFormatError, match=r"outputs\.csv:1: expected header"):
        load_dataset(DatasetManifest.from_json(manifest_path))


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@pytest.mark.parametrize("column, edit", [
    (0, lambda text: re.sub(r"(\d)(\d)", r"\1_\2", text, count=1)),
    (-1, lambda text: re.sub(r"(\d)(\d)", r"\1_\2", text, count=1)),
    (0, lambda text: text.translate(ARABIC_INDIC)),
    (-1, lambda text: text.translate(ARABIC_INDIC)),
], ids=["year-separator", "value-separator", "year-arabic-indic", "value-arabic-indic"])
def test_numbers_are_ascii_decimals_without_separators(tmp_path, column, edit):
    manifest = DatasetManifest.from_json(make_workspace(tmp_path))
    expected = load_dataset(manifest)
    rows = read_rows(manifest.energy)
    rows[1][column] = edit(rows[1][column])
    write_rows(manifest.energy, rows)
    # Python's int and float, which the row reader used, take digit separators
    # and any Unicode decimal digits; _number follows numpy's text rules, which
    # take neither.
    assert_same_dataset(expected, legacy_reader.load_dataset(manifest))
    message = (f"invalid year {rows[1][0]!r}" if column == 0
               else f"invalid number {rows[1][-1]!r} in column 'value'")
    with pytest.raises(DataFormatError) as info:
        load_dataset(manifest)
    assert str(info.value) == f"{manifest.energy}:2: {message}"
