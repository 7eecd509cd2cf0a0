"""The max-flow kernel under AddressSanitizer and UBSan.

The kernel reads numpy arrays through raw pointers, so an overrun there
corrupts results silently or crashes. Each test starts a Python process with
the compiler's ``libasan`` and ``libubsan`` preloaded and compiles
``_maxflow.c`` with the sanitizer flags below in place of the production
``_CFLAGS``. Networks are padded to ``PAD`` nodes with zero-capacity arcs, so
their arrays outgrow numpy's cache of small blocks (under 1 KiB) and an
overrun meets a sanitizer red zone rather than a reused block.
"""

import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import enflow
from enflow.cli import main

SANITIZE = ["-O1", "-g", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC",
            "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer"]

PRELUDE = """
import json, sys
import numpy as np
from enflow import flowcrit

flowcrit._CFLAGS = tuple(json.loads(sys.argv[1]))  # before the first _kernel() call
PAD = 300


def padded(n, arcs):
    # Nodes up to PAD, linked by zero-capacity arcs that carry no flow and
    # leave every value, drop and count of the first n nodes as it was.
    return flowcrit.FlowNetwork(PAD, [*arcs, *((v, v + 1, 0.0) for v in range(n, PAD - 1))])
"""

CASES = PRELUDE + """
from concurrent.futures import ThreadPoolExecutor
from enflow.cli import main

# The four pinned warm-start cases: (nodes, arcs, pair, arc deleted, value without it).
for n, arcs, pair, arc, after in [
    (5, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (3, 2, 1.0), (2, 4, 1.0)], (0, 4), 1, 1.0),
    (5, [(0, 1, 2.0), (1, 2, 2.0), (1, 3, 1.0), (3, 2, 1.0), (2, 4, 2.0)], (0, 4), 1, 1.0),
    (4, [(0, 1, 2.0), (1, 3, 2.0), (0, 2, 1.0), (2, 1, 1.0)], (0, 3), 0, 1.0),
    (4, [(0, 1, 2.0), (1, 2, 2.0), (1, 3, 1.0), (3, 2, 1.0)], (0, 2), 1, 1.0),
]:
    net = padded(n, arcs)
    values, _, drops, _ = net._solve_pairs([pair], drops=True)
    assert drops[arc] == values[0] - after, (arcs, drops[arc])

# certify on corrupted residuals: slot 1 holds the flow on arc (0, 1).
net = padded(4, [(0, 1, 3.0), (0, 2, 2.0), (1, 3, 2.0), (2, 3, 3.0)])
value, cap = net.solve(0, 3)
net._certify(cap, 0, 3, value)
for slot_1, claimed in [(cap[1], value + 0.5), (cap[1] - 0.5, value), (4.0, value)]:
    corrupted = cap.copy()
    corrupted[1] = slot_1
    try:
        net._certify(corrupted, 0, 3, claimed)
    except flowcrit.FlowCertificateError:
        continue
    raise AssertionError(f"certified slot 1 = {slot_1}, value {claimed}")

# A seeded batch of the screens' graphs: every drop against a re-solve without the arc.
rng = np.random.default_rng(7)
for _ in range(60):
    n = int(rng.integers(2, 7))
    arcs = [(int(a), int(b), float(c)) for a, b, c in
            zip(rng.integers(0, n, 20), rng.integers(0, n, 20), rng.uniform(0, 100, 20)) if a != b]
    net = padded(n, arcs)
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    values, _, drops, _ = net._solve_pairs(pairs, drops=True)
    for a, (tail, _, _) in enumerate(net.arcs):
        if tail >= n:
            break  # the padding
        without = flowcrit.FlowNetwork(PAD, net.arcs[:a] + net.arcs[a + 1:])
        fallen = values.sum() - without._solve_pairs(pairs)[0].sum()
        assert abs(drops[a] - fallen) <= 1e-12 * values.sum(), (arcs, a)

# Two threads in the kernel at once, on different networks, give the serial bits.
def dense(seed):
    g = np.random.default_rng(seed)
    return padded(40, [(a, b, float(g.uniform(0, 10))) for a in range(40) for b in range(40)
                       if a != b and g.random() < 0.2])

nets = [dense(1), dense(2)]
pairs = [(s, t) for s in range(40) for t in range(40) if s != t][::7]
serial = [net._solve_pairs(pairs, drops=True) for net in nets]
with ThreadPoolExecutor(2) as pool:
    for _ in range(3):
        both = list(pool.map(lambda net: net._solve_pairs(pairs, drops=True), nets))
        for got, want in zip(both, serial):
            for x, y in zip(got, want):
                assert x.tobytes() == y.tobytes()

# One exact criticality on the 26 x 12 acceptance network.
assert main(["criticality", "--source", "all", "--out", sys.argv[2]]) == 0
print("clean")
"""

OUT_OF_RANGE = PRELUDE + """
net = padded(3, [(0, 1, 1.0), (1, 2, 1.0)])
net._solve_pairs([(PAD, 0)])  # past _check_pair: node PAD reads start[PAD + 1]
print("no report")
"""


def sanitized(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` with the sanitizer runtimes preloaded, or skip the test."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {cc[0]}")
    runtimes = []
    for name in ("libasan.so", "libubsan.so"):
        found = subprocess.run([*cc, f"-print-file-name={name}"], capture_output=True,
                               text=True).stdout.strip()
        if not os.path.isabs(found) or not os.path.exists(found):
            pytest.skip(f"{cc[0]} has no {name}")
        runtimes.append(found)
    src = str(Path(enflow.__file__).resolve().parents[1])
    env = {**os.environ, "LD_PRELOAD": ":".join(runtimes), "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, json.dumps(SANITIZE), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_kernel_runs_clean_under_asan_and_ubsan(tmp_path):
    data, out, plain = tmp_path / "data", tmp_path / "out", tmp_path / "plain"
    assert main(["synth", "--shape", "26,12,1", "--density", "0.05", "--seed", "1",
                 "--out", str(data)]) == 0
    assert main(["build", "--manifest", str(data / "manifest.json"), "--source", "all",
                 "--out", str(out)]) == 0
    shutil.copytree(out, plain)
    done = sanitized(CASES, str(out))
    assert done.returncode == 0 and done.stdout.splitlines()[-1] == "clean", done.stderr
    assert "runtime error" not in done.stderr and "Sanitizer" not in done.stderr, done.stderr
    # The sanitized kernel writes the production kernel's bytes.
    assert main(["criticality", "--source", "all", "--out", str(plain)]) == 0
    written = sorted(p.name for p in out.glob("criticality_*.csv"))
    assert written == ["criticality_all_1990.csv", "criticality_all_top.csv"]
    for name in written:
        assert (out / name).read_bytes() == (plain / name).read_bytes(), name


def test_an_out_of_range_node_is_reported():
    # The positive control: the sanitized build must catch a deliberate overrun.
    done = sanitized(OUT_OF_RANGE)
    assert done.returncode != 0
    assert "AddressSanitizer: heap-buffer-overflow" in done.stderr, done.stderr
    assert "no report" not in done.stdout
