"""JSON result files: lossless round trip and strict reading."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enflow import ArcCriticalityReport, MdHitsScores
from enflow.dataio import export_results, import_results
from enflow.errors import DataFormatError
from enflow.flowcrit import ARC_ROW

# Hypothesis draws subnormals and extremes too; these pin the named cases.
FLOATS = st.one_of(
    st.sampled_from([1 / 3, 5e-324, 2.5e-310, 1e308, -1e308, 0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
VECTORS = st.lists(FLOATS, max_size=6).map(lambda values: np.array(values, dtype=np.float64))

NODES = st.integers(-(2**63), 2**63 - 1)
REPORTS = st.builds(
    ArcCriticalityReport,
    baseline_total=FLOATS,
    rows=st.lists(st.tuples(NODES, NODES, FLOATS, FLOATS), max_size=5)
    .map(lambda rows: np.array(rows, dtype=ARC_ROW)),
    mode=st.sampled_from(["exact", "sampled"]),
    pair_count=st.none() | st.integers(1, 10**6),
    seed=st.none() | st.integers(0, 2**63 - 1),
    settled_by_cut=st.integers(0, 2**63 - 1),
    settled_by_two_hop=st.integers(0, 2**63 - 1),
    resolved=st.integers(0, 2**63 - 1),
)
SCORES = st.builds(
    MdHitsScores,
    node_hub=VECTORS, node_authority=VECTORS, layer_broadcast=VECTORS, layer_receive=VECTORS,
    time=VECTORS, gamma=st.lists(FLOATS, min_size=5, max_size=5).map(tuple),
    iterations=st.integers(0, 10**6),
)


def round_trip(obj, tmp_path_factory):
    path = tmp_path_factory.mktemp("results") / "result.json"
    return import_results(export_results(obj, path, "json"))


@settings(max_examples=60, deadline=None)
@given(report=REPORTS)
def test_criticality_round_trips_exactly(report, tmp_path_factory):
    back = round_trip(report, tmp_path_factory)
    assert type(back) is ArcCriticalityReport
    assert back.rows.dtype == ARC_ROW
    # Every integer and float must match exactly.
    assert {**vars(back), "rows": back.rows.tolist()} == {**vars(report), "rows": report.rows.tolist()}


@settings(max_examples=60, deadline=None)
@given(scores=SCORES)
def test_md_hits_scores_round_trip_exactly(scores, tmp_path_factory):
    back = round_trip(scores, tmp_path_factory)
    assert isinstance(back, MdHitsScores)
    for name, vector in scores.as_dict().items():
        assert getattr(back, name).dtype == np.float64
        assert getattr(back, name).tolist() == vector.tolist(), name
    assert back.gamma == scores.gamma and back.iterations == scores.iterations


def test_json_layout_is_kind_plus_fields(tmp_path):
    rows = np.array([(0, 1, 0.5, 0.5), (1, 0, 1.0, 0.0)], dtype=ARC_ROW)
    report = ArcCriticalityReport(1.0, rows, "sampled", 4, 7, 3, 2, 1)
    path = export_results(report, tmp_path / "crit.json", "json", node_labels=["A", "B"])
    assert json.loads(path.read_text()) == {
        "kind": "arc_criticality", "baseline_total": 1.0,
        "rows": {"tail": [0, 1], "head": [1, 0], "removed_total": [0.5, 1.0], "index": [0.5, 0.0]},
        "mode": "sampled", "pair_count": 4, "seed": 7,
        "settled_by_cut": 3, "settled_by_two_hop": 2, "resolved": 1,
    }


ROWS = {"tail": [0], "head": [1], "removed_total": [0.5], "index": [0.5]}
CRITICALITY = {"kind": "arc_criticality", "baseline_total": 1.0, "rows": ROWS, "mode": "exact",
               "pair_count": None, "seed": None, "settled_by_cut": 0, "settled_by_two_hop": 0,
               "resolved": 0}
FIELDS = r"\['baseline_total', 'rows', 'mode', 'pair_count', 'seed', 'settled_by_cut', " \
         r"'settled_by_two_hop', 'resolved'\]"


@pytest.mark.parametrize("payload, message", [
    ("{not json", "invalid JSON"),
    ("[1, 2]", "expected a JSON object, got list"),
    ({"rows": []}, "unrecognized result kind None"),
    ({"kind": "histogram", "rows": []}, "unrecognized result kind 'histogram'"),
    ({**CRITICALITY, "kind": ["arc_criticality"]}, r"unrecognized result kind \['arc_criticality'\]"),
    ({"kind": "arc_criticality"}, rf"arc_criticality needs fields {FIELDS}, got \[\]"),
    ({**CRITICALITY, "extra": 1}, rf"arc_criticality needs fields {FIELDS}, got \[.*'extra'\]"),
    ({**CRITICALITY, "rows": {"tail": [0], "head": [1], "index": [0.5]}},
     r"arc_criticality\.rows needs fields \['tail', 'head', 'removed_total', 'index'\]"),
    ({**CRITICALITY, "rows": []}, r"arc_criticality\.rows must be an object, got list"),
    ({**CRITICALITY, "rows": {**ROWS, "tail": [True]}},
     r"arc_criticality\.rows\.tail\[0\] must be an integer, got bool"),
    ({**CRITICALITY, "rows": {**ROWS, "index": ["0.5"]}},
     r"arc_criticality\.rows\.index\[0\] must be a number, got str"),
    ({"kind": "md_hits_scores", "node_hub": [1.0, None], "node_authority": [], "layer_broadcast": [],
      "layer_receive": [], "time": [], "gamma": [], "iterations": 0},
     r"md_hits_scores\.node_hub\[1\] must be a number, got NoneType"),
    ({**CRITICALITY, "pair_count": "4"}, r"arc_criticality\.pair_count must be an integer"),
    ({**CRITICALITY, "rows": {**ROWS, "head": [1.0]}},
     r"arc_criticality\.rows\.head\[0\] must be an integer, got float"),
    ({**CRITICALITY, "rows": {**ROWS, "head": [1, 2]}},
     r"arc_criticality\.rows\.head must hold 1 values of type int64"),
])
def test_malformed_result_files_are_format_errors(tmp_path, payload, message):
    path = tmp_path / "result.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    with pytest.raises(DataFormatError, match=message):
        import_results(path)


def test_integers_in_float_fields_are_read_as_floats(tmp_path):
    path = tmp_path / "result.json"
    path.write_text(json.dumps({**CRITICALITY, "baseline_total": 1, "rows": {**ROWS, "index": [1]}}))
    back = import_results(path)
    assert type(back.baseline_total) is float and back.baseline_total == 1.0
    assert back.rows["index"].tolist() == [1.0]


HUGE = int("1" + "0" * 400)
SCORES_JSON = {"kind": "md_hits_scores", "node_hub": [0.5, 0.5], "node_authority": [1],
               "layer_broadcast": [1.0], "layer_receive": [1.0], "time": [1.0],
               "gamma": [0.2] * 5, "iterations": 3}


@pytest.mark.parametrize("payload, message", [
    ({**CRITICALITY, "rows": {**ROWS, "removed_total": [HUGE]}},
     r"arc_criticality\.rows\.removed_total\[0\] is out of the float range"),
    ({**SCORES_JSON, "node_hub": [0.5, HUGE]}, r"md_hits_scores\.node_hub\[1\] is out of the float range"),
    ({**SCORES_JSON, "gamma": [HUGE] * 5}, r"md_hits_scores\.gamma\[0\] is out of the float range"),
    ({**CRITICALITY, "rows": {**ROWS, "tail": [2**63]}},
     r"arc_criticality\.rows\.tail must hold 1 values of type int64"),
])
def test_integers_beyond_the_float_range_are_format_errors(tmp_path, payload, message):
    path = tmp_path / "result.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match=message):
        import_results(path)
