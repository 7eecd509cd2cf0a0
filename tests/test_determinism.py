"""Reruns in separate processes write byte-identical CSVs, whatever the hash seed.

Acceptance 8 and ``test_pipeline_deterministic`` rerun inside one process,
which shares one string-hash seed, so they cannot see set iteration order
leaking into floating-point sums.
"""

import os
import subprocess
import sys
from pathlib import Path

import enflow

PIPELINE = """
import sys
from enflow.cli import main

data, out = sys.argv[1:]
for argv in (
    ["synth", "--shape", "5,3,3", "--seed", "2", "--density", "0.6", "--out", data],
    ["build", "--manifest", data + "/manifest.json", "--out", out],
    ["mdhits", "--per-year", "--out", out],
    ["consumption", "--manifest", data + "/manifest.json", "--out", out],
):
    assert main(argv) == 0, argv
"""


def test_csv_bytes_do_not_follow_the_hash_seed(tmp_path):
    src = str(Path(enflow.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        run_dir = tmp_path / hash_seed
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        subprocess.run(
            [sys.executable, "-c", PIPELINE, str(run_dir / "data"), str(run_dir / "out")],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outputs.append({
            p.relative_to(run_dir).as_posix(): p.read_bytes() for p in sorted(run_dir.rglob("*.csv"))
        })
    assert len(outputs[0]) == 21 and outputs[0].keys() == outputs[1].keys()
    for name, data in outputs[0].items():
        assert data == outputs[1][name], name


SCORES = """
import sys
from pathlib import Path

import numpy as np

from enflow import eigenvector_centrality
from enflow.cli import main

data, out = sys.argv[1:]
scores = (["hits", "--out", out], ["eig", "--largest-scc", "--out", out])
for argv in (
    ["synth", "--shape", "8,4,3", "--seed", "3", "--density", "0.3", "--out", data],
    ["build", "--manifest", data + "/manifest.json", "--out", out],
    *scores,
):
    assert main(argv) == 0, argv


def score_csvs():
    return {p.name: p.read_bytes() for p in sorted(Path(out).glob("*.csv"))
            if p.name.startswith(("hits_", "eig_"))}


first = score_csvs()
# The Arnoldi run on a cycle breaks down at once (the start vector is an
# eigenvector) and restarts from random vectors.
eigenvector_centrality(np.roll(np.eye(40), 1, axis=1))
for argv in scores:
    assert main(argv) == 0, argv
assert score_csvs() == first
"""


def test_hits_and_eig_bytes_do_not_follow_the_process(tmp_path):
    src = str(Path(enflow.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        run_dir = tmp_path / hash_seed
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        subprocess.run(
            [sys.executable, "-c", SCORES, str(run_dir / "data"), str(run_dir / "out")],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outputs.append({
            p.name: p.read_bytes() for p in sorted((run_dir / "out").glob("*.csv"))
            if p.name.startswith(("hits_", "eig_"))
        })
    assert len(outputs[0]) == 6 and outputs[0] == outputs[1]
