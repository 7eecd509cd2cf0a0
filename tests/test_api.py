import importlib
import pkgutil

import pytest

import enflow

MODULES = ["enflow"] + [f"enflow.{m.name}" for m in pkgutil.iter_modules(enflow.__path__)]
DELETED = ("flat_index", "unflat_index", "block_view", "EmbodiedIntensity", "AllPairsFlow",
           "all_pairs_total", "_BlockingFlowEngine", "EXACT_MODE_NODE_LIMIT",
           "InputCoefficients", "RankingRow", "RankingTable", "ArcRemovalRow",
           "import_results", "_lookup", "_cut", "_PADDING", "_SCAN_BLOCK", "_WHITESPACE",
           "checked_triples")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    assert not [n for n in DELETED if hasattr(module, n)]
