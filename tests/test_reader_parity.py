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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from enflow.cli import main
from enflow.dataio import CodeBook
from enflow.multinet import SupraAdjacency

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
    elif fault == "long_code":  # longer than any retry width, a known code at its start
        row[column] = row[column] + " " * 80 + "X"
    elif fault == "padded_code":  # valid: dataset codes are stripped
        row[column] = "   " + row[column] + "  "
    elif fault == "duplicate":
        return rows[: r + 1] + [rows[r]] + rows[r + 1:]
    return rows[:r] + [row] + rows[r + 1:]


FAULTS = ("unknown_code", "unknown_non_ascii_code", "long_code", "negative", "nan",
          "non_numeric", "invalid_year", "unlisted_year", "padded_code", "duplicate")


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
        got = outcome(load_dataset, manifest)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert_same_dataset(expected, got)
        for source in SourceClass:
            assert_same_network(legacy_reader.load_network(Path(tmp) / "net", source),
                                load_network(Path(tmp) / "net", source))


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
        got = outcome(load_dataset, manifest)
        if fault == "non_numeric" and window and not window[0] <= int(rows[r][0]) <= window[1]:
            # The row reader never parsed the value of a row outside the window.
            line = r + 1 + blank
            assert got == (DataFormatError,
                           f"{path}:{line}: invalid number 'abc' in column '{rows[0][-1]}'")
            return
        expected = outcome(legacy_reader.load_dataset, manifest)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert_same_dataset(expected, got)


@settings(max_examples=80, deadline=None)
@given(
    table=st.sampled_from(TABLES),
    faults=st.lists(st.sampled_from(FAULTS[:-2]), min_size=2, max_size=3, unique=True),
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
        assert outcome(load_dataset, manifest) == outcome(legacy_reader.load_dataset, manifest)


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("fault", FAULTS)
def test_every_fault_is_reported_like_the_reference(tmp_path, table, fault):
    manifest_path = make_workspace(tmp_path, density=0.6, odd_codes=True)
    path = manifest_path.parent / f"{table}.csv"
    rows = inject(read_rows(path), fault, 3, 2)
    write_rows(path, rows, crlf=True, blank_before=2)
    manifest = dataclasses.replace(DatasetManifest.from_json(manifest_path), years=None)
    expected = outcome(legacy_reader.load_dataset, manifest)
    got = outcome(load_dataset, manifest)
    if isinstance(expected, tuple):
        assert expected[0] is DataFormatError
        assert got == expected
    else:  # padded codes are valid; an unlisted output year adds a period
        assert fault == "padded_code" or (fault, table) == ("unlisted_year", "outputs")
        assert_same_dataset(expected, got)


def test_code_padded_beyond_the_retry_width_is_unknown(tmp_path):
    # The row reader stripped any amount of padding; the columnar reader
    # re-reads with room for 64 bytes and rejects what is still cut short.
    manifest_path = make_workspace(tmp_path)
    path = manifest_path.parent / "outputs.csv"
    rows = read_rows(path)
    rows[1][1] = " " * 80 + rows[1][1]
    write_rows(path, rows)
    with pytest.raises(DataFormatError, match=rf"outputs\.csv:2: unknown country code "
                                              rf"'{rows[1][1].strip()}'"):
        load_dataset(DatasetManifest.from_json(manifest_path))


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


# ---------------------------------------------------------------------------
# network artifacts
# ---------------------------------------------------------------------------


def test_nul_byte_is_reported(tmp_path):
    # A fixed-width byte field would read "AFG\0" as "AFG".
    manifest_path = make_workspace(tmp_path)
    path = manifest_path.parent / "outputs.csv"
    rows = read_rows(path)
    rows[4][1] += "\0"
    write_rows(path, rows)
    with pytest.raises(DataFormatError) as info:
        load_dataset(DatasetManifest.from_json(manifest_path))
    assert str(info.value) == f"{path}:5: NUL byte"


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


def test_from_entries_takes_an_array_and_sums_duplicates():
    shape = NetworkShape(2, 2)
    entries = np.array([[0, 1, 1.0], [3, 2, 2.0], [0, 1, 0.5]])
    w = SupraAdjacency.from_entries(shape, entries)
    assert w.matrix[0, 1] == 1.5 and w.matrix[3, 2] == 2.0 and w.nnz == 2
    assert SupraAdjacency.from_entries(shape, np.empty((0, 3))).nnz == 0
    with pytest.raises(ValidationError, match=r"entry \(0, 4\) outside supra dimension 4"):
        SupraAdjacency.from_entries(shape, np.array([[0, 1, 1.0], [0, 4, 1.0]]))


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
