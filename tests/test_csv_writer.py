"""The columnar CSV writer writes what ``csv.writer(lineterminator="\\n")`` writes."""

import csv

import numpy as np
import pytest

from enflow import dataio
from enflow.dataio import Labels, load_network, save_network, write_csv
from enflow.leontief import SourceClass
from enflow.multinet import EntityCodes, NetworkShape, TemporalMultilayerNetwork

from accounts import csr, supra

CODES = ["plain", "a,b", 'say "hi"', " lead", "trail ", "Côte d’Ivoire", "日本", "line\nbreak", ""]
FLOATS = [1e-05, 0.0001, 1e16, 1e+16, 5e-324, 0.1 + 0.2, 0.0, -0.0, 1.5e300, float("nan"),
          float("inf")]


def csv_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


@pytest.fixture(params=[dataio._CHUNK, 3], ids=["one-chunk", "chunks-of-3"])
def chunk(request, monkeypatch):
    monkeypatch.setattr(dataio, "_CHUNK", request.param)


def test_write_csv_matches_csv_writer(tmp_path, chunk):
    n = len(FLOATS)
    years = np.array([1990, -(2**63), 2**63 - 1, 2016, 1990, 0, 7, 1, 2, 3, 4], dtype=np.int64)
    code = np.arange(n) % len(CODES)
    pairs = [(CODES[i], CODES[-1 - i]) for i in range(len(CODES))]
    header = ["year", "year_label", "code", "code_again", "first", "second", "value", "count"]
    write_csv(tmp_path / "columns.csv", header, [
        years,
        Labels(Labels.quoted(np.unique(years)), np.searchsorted(np.unique(years), years)),
        Labels(Labels.quoted(CODES), code),
        Labels.of(CODES[i] for i in code),
        Labels(Labels.quoted(pairs), code),  # one label, two fields
        np.array(FLOATS),
        range(n),
    ])
    rows = [(y, y, CODES[i], CODES[i], *pairs[i], f, k)
            for k, (y, i, f) in enumerate(zip(years.tolist(), code.tolist(), FLOATS))]
    assert (tmp_path / "columns.csv").read_bytes() == csv_bytes(tmp_path / "rows.csv", header, rows)


def test_a_one_field_table_quotes_an_empty_record_as_csv_does(tmp_path, chunk):
    write_csv(tmp_path / "columns.csv", ["code"], [Labels.of(CODES)])
    expected = csv_bytes(tmp_path / "rows.csv", ["code"], [(c,) for c in CODES])
    assert (tmp_path / "columns.csv").read_bytes() == expected


def test_a_header_only_table(tmp_path):
    header = ["year", "code", "value"]
    write_csv(tmp_path / "columns.csv", header,
              [np.array([], dtype=np.int64), Labels.of([]), np.array([])])
    assert (tmp_path / "columns.csv").read_bytes() == b"year,code,value\n"
    assert (tmp_path / "columns.csv").read_bytes() == csv_bytes(tmp_path / "rows.csv", header, [])


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError, match="unequal length"):
        write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])


def test_network_export_with_an_empty_period_and_quoted_codes(tmp_path, chunk):
    codes = EntityCodes(("a,b", 'q"t', " s"), ("Ünï", "x\ny"))
    shape = NetworkShape(3, 2)
    periods = [
        (1990, supra(shape, [(0, 5, 0.1 + 0.2), (4, 1, 1e-05), (2, 2, 1e16)])),
        (1991, supra(shape, [])),
        (1992, supra(shape, [(5, 0, 5e-324), (3, 3, 0.0001)])),
    ]
    path = save_network(TemporalMultilayerNetwork(periods), codes, SourceClass.ALL, tmp_path)
    labels = codes.supra_labels
    rows = []
    for label, matrix in periods:
        coo = csr(matrix).tocoo()
        rows += [(label, *labels[h], *labels[k], w)
                 for h, k, w in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())]
    assert len(rows) == 5
    expected = csv_bytes(tmp_path / "rows.csv", dataio._SCHEMAS["network"], rows)
    assert path.read_bytes() == expected
    net, _ = load_network(tmp_path, SourceClass.ALL)
    assert net.labels == (1990, 1991, 1992) and net.periods[1][1].nnz == 0
