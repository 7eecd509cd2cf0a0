"""JSON inputs (synthetic spec, manifest, network meta) end in exit 2, not a traceback."""

import json

import pytest

from enflow import DatasetManifest, SyntheticSpec
from enflow.cli import main


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.mark.parametrize("spec, message", [
    ({"density": "x"}, "'density' must be a number, got str"),
    ({"rho_cap": None}, "'rho_cap' must be a number, got NoneType"),
    ({"n_sectors": True}, "'n_sectors' must be an integer, got bool"),
    ({"n_periods": 2.0}, "'n_periods' must be an integer, got float"),
    ({"seed": "1"}, "'seed' must be an integer, got str"),
    ({"start_year": [1990]}, "'start_year' must be an integer, got list"),
    ({"source_mix": [1]}, "'source_mix' must be an object, got list"),
    ({"source_mix": {"coal": "1", "hydro": 1}}, "'source_mix'['coal'] must be a number, got str"),
    ({"rho_cap": 10**400}, "'rho_cap' is out of the float range"),
    ({"density": 10**400}, "'density' is out of the float range"),
    ({"source_mix": {"coal": 10**400, "hydro": 1}}, "'source_mix'['coal'] is out of the float range"),
    ({"source_mix": {"coal": None}}, "'source_mix'['coal'] must be a number, got NoneType"),
    ({"source_mix": "coal"}, "'source_mix' must be an object, got str"),
    ({"density": True}, "'density' must be a number, got bool"),
    ({"n_countries": 2.5}, "'n_countries' must be an integer, got float"),
    ({"seed": None}, "'seed' must be an integer, got NoneType"),
])
def test_synthetic_spec_value_types(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run("synth", "--synthetic-spec", path, "--out", tmp_path / "d") == 2
    err = capsys.readouterr().err
    assert f"spec.json: {message}" in err and "Traceback" not in err


def test_synthetic_spec_reads_an_integer_as_a_float(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"density": 1}))
    density = SyntheticSpec.from_json(path).density
    assert type(density) is float and density == 1.0
    assert run("synth", "--synthetic-spec", path, "--out", tmp_path / "d") == 0


def test_synthetic_spec_reads_integer_source_mix_weights_as_floats(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"source_mix": {"coal": 1, "hydro": 2, "nuclear": 0.5}}))
    mix = SyntheticSpec.from_json(path).source_mix
    assert mix == {"coal": 1.0, "hydro": 2.0, "nuclear": 0.5}
    assert all(type(weight) is float for weight in mix.values())


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
def test_synth_rejects_non_finite_source_mix_weights(tmp_path, capsys, weight):
    path = tmp_path / "spec.json"
    path.write_text('{"source_mix": {"coal": 1.0, "hydro": 1.0, "nuclear": %s}}' % weight)
    assert run("synth", "--synthetic-spec", path, "--out", tmp_path / "d") == 2
    err = capsys.readouterr().err
    assert "source mix weights must be finite and >= 0" in err and "Traceback" not in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("edit, message", [
    ({"units": [1]}, "'units' must be an object, got list"),
    ({"units": {"energy": 3}}, "'units'['energy'] must be a string, got int"),
    ({"sectors": 5}, "'sectors' must be a string, got int"),
    ({"transactions": ["transactions.csv"]}, "'transactions' must be a string, got list"),
    ({"transactions": None}, "is missing keys: ['transactions']"),
    ({"years": [True, 1991]}, "'years'[0] must be an integer, got bool"),
    ({"years": [1991]}, "'years' must be [first, last] with first <= last"),
    ({"years": 1990}, "'years' must be an array, got int"),
    ({"years": ["1990", 1991]}, "'years'[0] must be an integer, got str"),
    ({"years": [1990.0, 1991]}, "'years'[0] must be an integer, got float"),
    ({"units": "TJ"}, "'units' must be an object, got str"),
    ({"units": {"energy": None}}, "'units'['energy'] must be a string, got NoneType"),
    ({"outputs": True}, "'outputs' must be a string, got bool"),
])
def test_manifest_value_types(tmp_path, capsys, edit, message):
    data = tmp_path / "data"
    assert run("synth", "--shape", "2,2,2", "--out", data) == 0
    raw = json.loads((data / "manifest.json").read_text())
    path = data / "edited.json"
    path.write_text(json.dumps({**raw, **edit}))
    capsys.readouterr()
    assert run("build", "--manifest", path, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_manifest_years_may_be_null(tmp_path):
    data = tmp_path / "data"
    assert run("synth", "--shape", "2,2,2", "--out", data) == 0
    raw = json.loads((data / "manifest.json").read_text())
    path = data / "edited.json"
    path.write_text(json.dumps({**raw, "years": None}))
    assert DatasetManifest.from_json(path).years is None
    assert run("build", "--manifest", path, "--out", tmp_path / "out") == 0


@pytest.mark.parametrize("content, message", [
    (b"{not json", "invalid JSON"),
    (b"[1, 2]", "expected a JSON object, got list"),
    (b'{"years": "\xff"}', "invalid JSON"),
])
def test_malformed_manifest_exits_2_naming_the_file(tmp_path, capsys, content, message):
    path = tmp_path / "manifest.json"
    path.write_bytes(content)
    assert run("build", "--manifest", path, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"manifest.json: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


CORRUPT_META = [
    (lambda meta: "{not json", "invalid JSON"),
    (lambda meta: "[1, 2]", "expected a JSON object, got list"),
    (lambda meta: json.dumps({**meta, "sources": 5}), "'sources' must be an array, got int"),
    (lambda meta: json.dumps({**meta, "sources": "all"}), "'sources' must be an array, got str"),
    (lambda meta: json.dumps({**meta, "sources": [1]}), "'sources'[0] must be a string, got int"),
]


@pytest.mark.parametrize("corrupt, message", CORRUPT_META)
def test_corrupt_network_meta_exits_2_naming_the_file(tmp_path, capsys, corrupt, message):
    data, out = tmp_path / "data", tmp_path / "out"
    assert run("synth", "--shape", "2,2,2", "--out", data) == 0
    assert run("build", "--manifest", data / "manifest.json", "--out", out) == 0
    meta_path = out / "network_meta.json"
    meta_path.write_text(corrupt(json.loads(meta_path.read_text())))
    capsys.readouterr()
    assert run("build", "--manifest", data / "manifest.json", "--out", out) == 2
    err = capsys.readouterr().err
    assert f"network_meta.json: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("corrupt, message", CORRUPT_META)
def test_hits_reads_a_corrupt_network_meta_as_build_does(tmp_path, capsys, corrupt, message):
    data, out = tmp_path / "data", tmp_path / "out"
    assert run("synth", "--shape", "2,2,2", "--out", data) == 0
    assert run("build", "--manifest", data / "manifest.json", "--source", "all", "--out", out) == 0
    meta_path = out / "network_meta.json"
    meta_path.write_text(corrupt(json.loads(meta_path.read_text())))
    capsys.readouterr()
    assert run("hits", "--source", "all", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta_path}: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--shape", "2,2,2", "--start-year", "99999999999999999999"],
    ["--shape", "2,2,2", "--start-year", str(2**63 - 1)],
    ["--shape", "2,2,2", "--start-year", str(-(2**63) - 1)],
    ["--synthetic-spec", "{spec}"],
])
def test_synth_start_year_keeps_every_period_label_in_int64(tmp_path, capsys, argv):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_periods": 3, "start_year": 2**63 - 2}))
    assert run("synth", *(a.format(spec=spec) for a in argv), "--out", tmp_path / "d") == 2
    err = capsys.readouterr().err
    assert "start_year must keep every period label in the int64 range" in err
    assert "Traceback" not in err and not (tmp_path / "d").exists()
    # The last representable label is fine, and build reads it back.
    assert run("synth", "--shape", "2,2,1", "--start-year", 2**63 - 1, "--out", tmp_path / "d") == 0
    assert run("build", "--manifest", tmp_path / "d" / "manifest.json",
               "--out", tmp_path / "out") == 0


def test_network_meta_period_beyond_int64_exits_2(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    assert run("synth", "--shape", "2,2,2", "--out", data) == 0
    assert run("build", "--manifest", data / "manifest.json", "--out", out) == 0
    meta_path = out / "network_meta.json"
    meta = json.loads(meta_path.read_text())
    meta["periods"][0] = 99999999999999999999
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("hits", "--out", out) == 2
    err = capsys.readouterr().err
    assert (f"{meta_path}: period 99999999999999999999 is out of the int64 range" in err
            and "Traceback" not in err)


@pytest.mark.parametrize("spec, key", [
    ({"densty": 0.9, "sed": 5}, "densty"),
    ({"n_sectors": 2, "shape": [2, 2, 2]}, "shape"),
])
def test_synthetic_spec_unknown_key_exits_2(tmp_path, capsys, spec, key):
    # A misspelt key would otherwise leave its field at the default.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run("synth", "--synthetic-spec", path, "--out", tmp_path / "d") == 2
    err = capsys.readouterr().err
    assert f"spec.json: unknown key {key!r}" in err and "Traceback" not in err
    assert not (tmp_path / "d").exists()


def test_manifest_unknown_key_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    assert run("synth", "--shape", "2,2,2", "--out", data) == 0
    raw = json.loads((data / "manifest.json").read_text())
    path = data / "edited.json"
    path.write_text(json.dumps({**raw, "yaers": [1990, 1990]}))
    capsys.readouterr()
    assert run("build", "--manifest", path, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{path}: unknown key 'yaers'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
