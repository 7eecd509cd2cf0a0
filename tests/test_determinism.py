"""Reruns in separate processes write byte-identical CSVs, whatever the hash seed.

Acceptance 8 and ``test_pipeline_deterministic`` rerun inside one process,
which shares one string-hash seed, so they cannot see set iteration order
leaking into floating-point sums.
"""

import concurrent.futures
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import enflow
from enflow.cli import main

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


# sha256 of every file that ``synth --shape 4,3,2 --seed 7``, ``build``,
# ``criticality``, ``consumption``, ``mdhits --per-year``, ``hits`` and
# ``eig --largest-scc`` write. A change that keeps outputs unchanged keeps
# these hashes.
GOLDEN = {
    "data/countries.csv": "96fbdd0403b910d5eb8974425f20441ba666a220cd1b432dd0a72116aa54009a",
    "data/energy.csv": "a5a3aa1116598a67bdb6a95a68200c6e4527161aba1df252d0c792cf8aaddc64",
    "data/final_demand.csv": "fee4c4189ce9b33057f7c39d91d56d0738b15b5c2f53d26a2bc7027670cb1e16",
    "data/manifest.json": "4281eef7fbe9ed01370e9bb4b27c9cad6f0aa51fe8c8f9200d09990776c29450",
    "data/outputs.csv": "987d056956b906dc83cd52f856fbd3bfae91168f4633f08daf6136b95a363095",
    "data/sectors.csv": "b1ffa7a94a896bd9816c457dc2dc10f83703d454c8699d828e8ef9b66ad7c6c8",
    "data/transactions.csv": "21943a4f39defbd424051b5355733f1d7f9a40112a8a6e1d9bc25519b8e9f2e8",
    "out/consumption_country.csv":
        "b059d7640f76779f385405f232ffb71f0277ee1a568100bcd78a7d1042c05a7a",
    "out/consumption_sector.csv":
        "5005f327769e9cdc6459fcc5f6e5942209f625fb6f9ef034345a5a176aa86a25",
    "out/consumption_top_countries.csv":
        "d93949aec40158ba5866b8f4f3414cbd55be9f64d895c2f033e9fe942babe313",
    "out/consumption_world.csv":
        "a099471c2740589e8d07b6c3bb2a2105c683933f51e17117a0307d3b09820771",
    "out/criticality_all_1990.csv":
        "4531978ea10404dab519dc9b3a5f310e6ec8137e087ff0e123c69a92975abf66",
    "out/criticality_all_1991.csv":
        "a086c3622eb3871023d560a2491db1901eed491699f9f91e9afac17df64a1945",
    "out/criticality_all_top.csv":
        "ba00a6dfb27b81057c9fe958d55fdc3aa6b1b512c1f35f59cda32c72225e5c37",
    "out/criticality_nonrenewable_1990.csv":
        "d6bdd62a2e35bb85e440a61f5650769df847163d5b2dd2dab1b2e8d63d715d62",
    "out/criticality_nonrenewable_1991.csv":
        "65cb4790cc63c86f1f2890f61dd1a6aad4a5a7d73e163f5962ecc6a8abea9180",
    "out/criticality_nonrenewable_top.csv":
        "f1711fe7d7253f4e7b959c7511bea0d72022d31fc423f4ba030c6d727dbc8558",
    "out/criticality_renewable_1990.csv":
        "6a2d7d4080283e3ba2b9d110d03c9b57217a845bac5e832305cbe5127c89a86f",
    "out/criticality_renewable_1991.csv":
        "2d820a408b3de93210a68a22fff1c6b41439a809e6aeb6ac00b70dd445e86bed",
    "out/criticality_renewable_top.csv":
        "0085ccd6fb310f9429c9e93526252f119532dcf88b69a62e4b97f5f3cca9202d",
    "out/eig_all.csv": "80c7c63dd48fe27edfc5c60e8914f4431c332b6dde9809f78c086de88a418bd2",
    "out/eig_nonrenewable.csv": "2f4e9844c74ea4f53202ffba84e1e4f69c109abb64102a36edf58135780b4f5a",
    "out/eig_renewable.csv": "af298d378d433174230f335b034659d71fa725954f290034c1c9f502da6f3692",
    "out/hits_all.csv": "2d0b37ce68b6716cf4e5baefc2e565fe561ecfb429240433228e87206d7a620e",
    "out/hits_nonrenewable.csv": "8e3e6e8de31a5962f6aaedd8e9db7adcc03f089750ae74600a5b38aa83225f89",
    "out/hits_renewable.csv": "0016b0e0fa55435c8c05ddca90ee065e6db50e4dfb429c7377a2d6d509781618",
    "out/incidence_country.csv":
        "a3d13af686077af83a8332b12d0473999cca4989bc086095780089fe3ef9def2",
    "out/incidence_sector.csv":
        "7405d566d0a8caa7d1464b4de53860c678a32b365ec97aea00b0ec26dd498971",
    "out/mdhits_all.csv": "c00b31b71fee7bb65714c380a1c8179f6dc086cd7d069a5152cc953855365f5d",
    "out/mdhits_all_by_year.csv":
        "d96574e4565dbf4c0f42c2e8a3c7a5ec48123fc700d07e4578a63c9459ef6b55",
    "out/mdhits_nonrenewable.csv":
        "c763d6b3a72a72769ea126506a4ac7f4db1a1553976eb96939069c6c99701428",
    "out/mdhits_nonrenewable_by_year.csv":
        "d2b8a2dce119eb07c66c8bb57c5686f66c8e98b099953c8bba403f3c6531d875",
    "out/mdhits_renewable.csv": "061ac9b3df871d9cf5a3873ba2fcd1b324da3a88a75c8582df8c9b34a09771b5",
    "out/mdhits_renewable_by_year.csv":
        "62f986d6bd2231a9b2a60aab707c29fb786581d947116693c7f78dd365f1dc62",
    "out/network_all.csv": "bced0b2286c77bc1736e82bdf9353be2304dbd87aadf757d4db9dbd3b71aee92",
    "out/network_all.npy": "89a7ced7d1631e7e8cbfe4bdc2e3a77df5c440218d8d22efcf9afab168e866db",
    "out/network_meta.json": "011b81436d5e7df406bd53263eb6bcf91222b9975fb258645971f6f28b28de9a",
    "out/network_nonrenewable.csv":
        "f7acc3fb62a3e5f3125460f45f297e2eab20df180f9357534d994253fc3d0c19",
    "out/network_nonrenewable.npy":
        "652e23e97c791926f113a88ecfebbbd2cf5304172fcb794896b8131ac5f30ba3",
    "out/network_renewable.csv": "e45eed05134c2c572814e358138dd0a5c6e687afc20d1acb801ad36d6d5a5760",
    "out/network_renewable.npy": "7ebc5d515ed3b4c3b5cc7ae80c78b2a330094b77d873d3dca7f51bf879b99ada",
}


def test_synth_and_build_write_the_golden_bytes(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["synth", "--shape", "4,3,2", "--seed", "7", "--out", str(data)]) == 0
    assert main(["build", "--manifest", str(data / "manifest.json"), "--out", str(out)]) == 0
    assert main(["criticality", "--out", str(out)]) == 0
    assert main(["consumption", "--manifest", str(data / "manifest.json"), "--out", str(out)]) == 0
    assert main(["mdhits", "--per-year", "--out", str(out)]) == 0
    assert main(["hits", "--out", str(out)]) == 0
    assert main(["eig", "--largest-scc", "--out", str(out)]) == 0
    written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert written == GOLDEN


# One sha256 over the names and bytes of the 116 files that the acceptance
# shape's commands write (``synth --shape 26,12,27 --density 0.05 --seed 1``,
# ``build``, exact ``criticality``, ``consumption``, ``mdhits --per-year``,
# ``hits``, ``eig --largest-scc``).
ACCEPTANCE_DIGEST = "4be63e93b171b9f42649b37cdafe35802903d0857aa68c6c99660e3eb8747f37"


def test_acceptance_shape_outputs_keep_their_bytes(tmp_path):
    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    manifest = data + "/manifest.json"
    for argv in (
        ["synth", "--shape", "26,12,27", "--density", "0.05", "--seed", "1", "--out", data],
        ["build", "--manifest", manifest, "--out", out],
        ["criticality", "--out", out],
        ["consumption", "--manifest", manifest, "--out", out],
        ["mdhits", "--per-year", "--out", out],
        ["hits", "--out", out],
        ["eig", "--largest-scc", "--out", out],
    ):
        assert main(argv) == 0, argv
    files = [p for p in sorted(tmp_path.rglob("*")) if p.is_file()]
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.relative_to(tmp_path).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(p.read_bytes()).digest())
    assert len(files) == 116
    assert digest.hexdigest() == ACCEPTANCE_DIGEST


def test_criticality_bytes_do_not_follow_the_worker_count(tmp_path, monkeypatch, capsys):
    data, built = str(tmp_path / "data"), tmp_path / "built"
    assert main(["synth", "--shape", "26,12,27", "--density", "0.05", "--seed", "1",
                 "--out", data]) == 0
    assert main(["build", "--manifest", data + "/manifest.json", "--out", str(built)]) == 0
    for flags in ([], ["--mode", "sampled", "--seed", "0", "--years", "1990:1992"]):
        written = []
        for cpus in ({0}, {0, 1}):  # one worker, then two
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"{len(flags)}-{len(cpus)}"
            shutil.copytree(built, out)
            capsys.readouterr()
            assert main(["criticality", "--out", str(out), *flags]) == 0
            printed = capsys.readouterr().out.replace(str(out), "OUT")
            written.append((printed, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert written[0] == written[1]
        assert len([name for name in written[0][1] if name.startswith("criticality_")]) == (
            3 * 28 if not flags else 3 * 4)


def test_criticality_sizes_its_pool_by_cpu_count_where_affinity_is_unknown(tmp_path, monkeypatch,
                                                                         capsys):
    # os.sched_getaffinity is missing on macOS and Windows; os.cpu_count() may be None.
    data, built = str(tmp_path / "data"), tmp_path / "built"
    assert main(["synth", "--shape", "4,5,3", "--density", "0.5", "--seed", "2",
                 "--out", data]) == 0
    assert main(["build", "--manifest", data + "/manifest.json", "--out", str(built)]) == 0
    mask, executor = len(os.sched_getaffinity(0)), concurrent.futures.ThreadPoolExecutor
    workers = []

    def recorded(max_workers):
        workers.append(max_workers)
        return executor(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recorded)
    written = []
    for cpus in ("mask", 3, None):
        if cpus != "mask":
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        out = tmp_path / str(cpus)
        shutil.copytree(built, out)
        capsys.readouterr()
        assert main(["criticality", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        written.append((printed, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert written[0] == written[1] == written[2]
    assert len([name for name in written[0][1] if name.startswith("criticality_")]) == 3 * 4
    assert workers == [mask] * 3 + [3] * 3 + [1] * 3


# One sha256, made as ACCEPTANCE_DIGEST is, over the 32 files that one paper-shape
# pipeline writes (``synth --shape 26,189,1 --density 0.05 --seed 5``, ``build``,
# ``mdhits --per-year``, ``hits``, ``eig --largest-scc``, ``consumption``): a period
# of 1.2 M arcs over many ``_ARC_CHUNK`` chunks, and eigenvector and hub scores of
# 4,914-node matrices. The same with OPENBLAS_NUM_THREADS=1 and =2.
PAPER_SHAPE_DIGEST = "dd95ee901336a55170e84a787addcd1c0c643012ed90d4b113703c43c9069777"


def test_paper_shape_outputs_keep_their_bytes(tmp_path):
    src = str(Path(enflow.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    manifest = data + "/manifest.json"
    for argv in (
        ["synth", "--shape", "26,189,1", "--density", "0.05", "--seed", "5", "--out", data],
        ["build", "--manifest", manifest, "--out", out],
        ["mdhits", "--per-year", "--out", out],
        ["hits", "--out", out],
        ["eig", "--largest-scc", "--out", out],
        ["consumption", "--manifest", manifest, "--out", out],
    ):
        subprocess.run([sys.executable, "-c", "import sys; from enflow.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", *argv],
                       env=env, check=True, capture_output=True, timeout=300)
    files = [p for p in sorted(tmp_path.rglob("*")) if p.is_file()]
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.relative_to(tmp_path).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(p.read_bytes()).digest())
    assert len(files) == 32
    assert digest.hexdigest() == PAPER_SHAPE_DIGEST
