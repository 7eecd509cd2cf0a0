"""Seeded byte mutations of every CLI input file (the dataset files, and the
binary arc list and meta file that ``hits`` reads): each run must end in a
documented exit code (0, 2, 3 or 4), never in an exception out of ``main``."""

import shutil

import numpy as np
import pytest

from enflow.cli import main

BYTES = b'\x00\xff\xc3",\r\n-0123456789'
DATASET_FILES = ("manifest.json", "sectors.csv", "countries.csv", "transactions.csv",
                 "outputs.csv", "energy.csv", "final_demand.csv")
NETWORK_FILES = ("network_all.npy", "network_meta.json")
FILES = DATASET_FILES + NETWORK_FILES
CASES_PER_FILE = 20


def mutate(raw: bytes, rng: np.random.Generator) -> bytes:
    """One to three overwrites, insertions or deletions of single bytes."""
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(raw)))
        k = int(rng.integers(0, len(BYTES)))
        byte = BYTES[k:k + 1]
        raw = (raw[:at] + byte + raw[at + 1:],  # overwrite
               raw[:at] + byte + raw[at:],  # insert
               raw[:at] + raw[at + 1:])[int(rng.integers(0, 3))]  # delete
    return raw


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data, out = root / "data", root / "out"
    assert main(["synth", "--shape", "3,2,2", "--seed", "5", "--density", "0.6",
                 "--out", str(data)]) == 0
    assert main(["build", "--manifest", str(data / "manifest.json"), "--source", "all",
                 "--out", str(out)]) == 0
    return root


@pytest.mark.parametrize("name", FILES)
def test_mutated_inputs_end_in_a_documented_exit_code(inputs, tmp_path, capsys, name):
    folder = "out" if name in NETWORK_FILES else "data"
    shutil.copytree(inputs / folder, tmp_path / folder)
    path = tmp_path / folder / name
    raw = path.read_bytes()
    if folder == "data":
        argv = ["build", "--manifest", str(tmp_path / "data" / "manifest.json"),
                "--source", "all", "--out", str(tmp_path / "built")]
    else:
        argv = ["hits", "--source", "all", "--out", str(tmp_path / "out")]
    rng = np.random.default_rng(FILES.index(name))
    for case in range(CASES_PER_FILE):
        mutated = mutate(raw, rng)
        path.write_bytes(mutated)
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"case {case}: {exc!r} escaped main on {mutated!r}")
        assert code in (0, 2, 3, 4), (case, mutated)
        assert "Traceback" not in capsys.readouterr().err
