"""Frozen SHA-256 digests of windows at fixed seeds: the determinism
contract as a test. Each entry is one output, and must keep every byte.

A change that moves an output on purpose edits its digest here by hand and
declares the entry as changed; no flag rewrites them. The space-time
samplers' streams rest on numpy's PCG64 and Generator, so a failure names
the numpy version the digests were made with and the one running.
"""

import hashlib

import numpy as np
import pytest

from cmtforest.forest import dump_forest, load_forest, reverse_jump
from cmtforest.graphs import cycle_graph, torus_graph
from cmtforest.models import SpaceTimeGraph, coalescing_mc, coalescing_srw, nguyen_model

MADE_WITH_NUMPY = "2.4.6"


def _cycle_kernel(n):
    # symmetric, so detailed balance holds for uniform weights
    return {x: {x: 0.2, (x + 1) % n: 0.4, (x - 1) % n: 0.4} for x in range(n)}


def _outputs(seed):
    cycle = SpaceTimeGraph(cycle_graph(7), (0, 5))
    torus = SpaceTimeGraph(torus_graph(3, 2), (-2, 2))
    lattice = nguyen_model(2, [(-5, 5), (-5, 0)], seed)
    return {
        "coalescing_srw cycle": lambda: dump_forest(coalescing_srw(cycle, seed)),
        "coalescing_srw torus": lambda: dump_forest(coalescing_srw(torus, seed)),
        "coalescing_mc cycle": lambda: dump_forest(
            coalescing_mc(cycle, _cycle_kernel(7), dict.fromkeys(range(7), 1.0), seed)),
        "load_forest lattice": lambda: dump_forest(load_forest(dump_forest(lattice))),
        "load_forest cycle": lambda: dump_forest(load_forest(
            dump_forest(coalescing_srw(cycle, seed)))),
        "reverse_jump lattice": lambda: repr(list(reverse_jump(lattice).items())),
    }


DIGESTS = {
    ("coalescing_srw cycle", 3):
        "4c9ac9790bf13781c2aad09612d6726c2fb4312b8a330584f02bb5867fbd9d00",
    ("coalescing_srw cycle", 11):
        "8390a7f7a5178f302eeecd509fce552f7cce268e3229528e8a1ed186ca0edadd",
    ("coalescing_srw torus", 3):
        "4a8f1b35d87b9e1006431a55ebe7ab1028c4845b41a194977a492e92ae343250",
    ("coalescing_srw torus", 11):
        "39500f0d4708beb9b786ea32a4ab7efa351bd08410155e27cbdf24e825a6691c",
    ("coalescing_mc cycle", 3):
        "4477d8a1e05e9bf726ac0a73a139e7ebb28354dabdcf8a55561ecd89cdfc71e7",
    ("coalescing_mc cycle", 11):
        "68137af2bceb7644d5a7f36a102037b3cdfef001a62ba948467d8fc1076b8f33",
    ("load_forest lattice", 3):
        "1f531d0bc68c9edda0b0e731a87a66dca07981848e12401acd4e98eb8b4c42dc",
    ("load_forest lattice", 11):
        "fac6eb432fa2eeb051e256bffd2cad61ccdf9ddb0558f88830d1463bc1b0f9bd",
    ("load_forest cycle", 3):
        "4c9ac9790bf13781c2aad09612d6726c2fb4312b8a330584f02bb5867fbd9d00",
    ("load_forest cycle", 11):
        "8390a7f7a5178f302eeecd509fce552f7cce268e3229528e8a1ed186ca0edadd",
    ("reverse_jump lattice", 3):
        "004c4064a200168ca55faa041df2a55371ace25d8f4c56962ccd79b48ac833e2",
    ("reverse_jump lattice", 11):
        "f03f7bba7b4bfddd174b92a2a72f934d2056d1b75a0ff2d18a04f921b24f1973",
}


@pytest.mark.parametrize("entry", sorted(DIGESTS), ids=lambda e: f"{e[0]} seed {e[1]}")
def test_output_keeps_its_digest(entry):
    name, seed = entry
    got = hashlib.sha256(_outputs(seed)[name]().encode()).hexdigest()
    assert got == DIGESTS[entry], (
        f"{name} at seed {seed} changed: digest {got}; the digests were made with "
        f"numpy {MADE_WITH_NUMPY}, this run has numpy {np.__version__}")
