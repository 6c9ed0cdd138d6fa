"""Frozen SHA-256 digests of windows, trees, clouds, paths, verdicts and
`cmtforest run` artifacts: the determinism contract as a test. Each entry
is one output, and must keep every byte.

A change that moves an output on purpose edits its digest here by hand and
declares the entry as changed; no flag rewrites them. The space-time
samplers' streams rest on numpy's PCG64 and Generator, so a failure names
the numpy version the digests were made with and the one running.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from itertools import combinations

import numpy as np
import pytest

from cmtforest.analysis import green_table
from cmtforest.chains import kernel_power, meet_and_stick_coupling, shift_coupling, tv_profile
from cmtforest.cli import MODELS, PROBES, main
from cmtforest.errors import Unconditionable
from cmtforest.forest import dump_forest, load_forest, reverse_jump
from cmtforest.graphs import complete_graph, cycle_graph, torus_graph
from cmtforest.lattice import (
    JumpDistribution,
    check_model_conditions,
    even_sublattice,
    integer_lattice,
    uniform_jumps,
)
from cmtforest.models import (
    SpaceTimeGraph,
    coalescing_mc,
    coalescing_srw,
    nguyen_atoms,
    nguyen_model,
    variant_atoms,
    voter_stationary,
)
from cmtforest.points import dump_cloud, howard_model, sample_bernoulli, sample_poisson
from cmtforest.wusf import (
    conditional_wilson,
    covering_coupling_check,
    dump_tree,
    lerw,
    wilson_ust,
    wusf_window,
)

MADE_WITH_NUMPY = "2.4.6"


def _cycle_kernel(n):
    # symmetric, so detailed balance holds for uniform weights
    return {x: {x: 0.2, (x + 1) % n: 0.4, (x - 1) % n: 0.4} for x in range(n)}


RENEWAL = JumpDistribution(((1,), (2,)), ("1/3", "2/3"))
VARIANT = uniform_jumps(variant_atoms())


def _export_levels(seed):
    # levels.csv of `cmtforest export-levels` on a Poisson strip
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"model": {"model": "strip", "intensity": 1.0,
                                                "half_width": 1.0, "box": [[0, 10], [0, 5]]},
                                      "seed": seed}))
        with redirect_stdout(io.StringIO()):
            assert main(["export-levels", str(config), "--out-dir", tmp]) == 0
        return (Path(tmp) / "levels.csv").read_text()


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
        "dump_tree wilson_ust": lambda: dump_tree(wilson_ust(torus_graph(3, 2), (0, 0), seed)),
        "dump_tree conditional_wilson": lambda: dump_tree(
            conditional_wilson(cycle_graph(7), [0, 1, 2], seed)),
        "dump_tree wusf_window": lambda: dump_tree(wusf_window(3, seed, dimension=2)),
        # with two space axes most sources have tied nearest points, so ties are drawn
        "dump_forest howard": lambda: dump_forest(
            howard_model(0.5, [(0, 4), (0, 3), (0, 3)], seed)),
        "dump_cloud bernoulli": lambda: dump_cloud(sample_bernoulli(0.5, [(0, 4), (0, 3)], seed)),
        "dump_cloud poisson": lambda: dump_cloud(sample_poisson(1.0, [(0, 4), (0, 3)], seed)),
        "lerw torus": lambda: repr([lerw(torus_graph(4, 2), (2, 2), {(0, 0)}, seed + i)
                                    for i in range(3)]),
        "voter_stationary torus": lambda: repr(voter_stationary(torus_graph(4, 2), 6, seed)),
        "export-levels strip": lambda: _export_levels(seed),
        "meet_and_stick_coupling renewal": lambda: repr(
            meet_and_stick_coupling(RENEWAL, 0, 7, 200, seed)),
        "meet_and_stick_coupling variant traced": lambda: repr(
            meet_and_stick_coupling(VARIANT, (0, 0), (2, 0), 30, seed, record_trace=True)),
        "shift_coupling no lattice": lambda: repr(shift_coupling(RENEWAL, None, 0, 7, 200, seed)),
        "shift_coupling integer lattice": lambda: repr(
            shift_coupling(RENEWAL, integer_lattice(1), 0, 7, 200, seed)),
    }


def _check_kernel(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["check-kernel", *argv]) == 0
    return out.getvalue()


def _coupling_verdicts(graph):
    # every pair of conditionings of the triangle on 0, 1 and 2
    s = [(0, 1), (1, 2), (2, 0)]
    subsets = [list(c) for k in range(4) for c in combinations(s, k)]
    verdicts = []
    for i1 in subsets:
        for i2 in subsets:
            try:
                verdicts.append(covering_coupling_check(graph, s, i1, i2))
            except Unconditionable:
                verdicts.append("Unconditionable")
    return repr(verdicts)


# outputs that take no seed; each check-kernel entry is its stdout
UNSEEDED = {
    "check-kernel integer one atom": lambda: _check_kernel("--support=3,-2"),
    "check-kernel integer pm one": lambda: _check_kernel("--support=1;-1", "--weights=0.5,0.5"),
    "check-kernel integer steps 2 and 3": lambda: _check_kernel("--support=2;3"),
    "check-kernel integer basis": lambda: _check_kernel("--support=1,0;0,1"),
    "check-kernel integer diagonals": lambda: _check_kernel("--support=1,1;-1,1"),
    "check-kernel integer triangle": lambda: _check_kernel("--support=1,0;0,1;-1,-1"),
    "check-kernel even one atom": lambda: _check_kernel("--support=1,1", "--lattice=even"),
    "check-kernel even nguyen": lambda: _check_kernel("--support=1,-1;-1,-1", "--lattice=even"),
    "check-kernel even variant": lambda: _check_kernel("--support=-1,-1;1,-1;0,-2",
                                                       "--lattice=even"),
    "check-kernel even doubled": lambda: _check_kernel("--support=2,0;0,2", "--lattice=even"),
    "covering_coupling_check C3": lambda: _coupling_verdicts(cycle_graph(3)),
    "covering_coupling_check K4": lambda: _coupling_verdicts(complete_graph(4)),
    "covering_coupling_check K5": lambda: _coupling_verdicts(complete_graph(5)),
    "tv_profile renewal": lambda: repr(tv_profile(RENEWAL, 12)),
    "tv_profile variant k 2": lambda: repr(tv_profile(VARIANT, 6, k=2)),
    "green_table renewal": lambda: repr(green_table(RENEWAL, [0, 1, (5,), 12])),
    "green_table variant": lambda: repr(green_table(VARIANT, [(0, 0), (1, -1), (0, -4), (2, -6)])),
    "kernel_power variant": lambda: repr(kernel_power(VARIANT, 4)),
    "check_model_conditions nguyen 4d even": lambda: repr(
        check_model_conditions(uniform_jumps(nguyen_atoms(4)), even_sublattice(4))),
}


# one small `cmtforest run` config per model, every probe used at least once;
# each is run with 2 replicates and its digest covers the manifest and every artifact
RUNS = {
    "nguyen": {"model": {"model": "nguyen", "dimension": 2, "box": [[-3, 3], [-3, 0]]},
               "probes": [{"probe": "count-components", "k": 2, "budget": 50, "trials": 10},
                          {"probe": "component-survey", "statistic": "jump-frequency-vector"}]},
    "variant": {"model": {"model": "variant", "box": [[-3, 3], [-6, 0]]},
                "probes": [{"probe": "one-endedness", "n_list": [2, 4], "trials": 10},
                           {"probe": "component-survey", "statistic": "mean-in-degree"}]},
    "renewal": {"model": {"model": "renewal", "support": [1, 2], "weights": ["1/3", "2/3"],
                          "box": [[0, 20]]},
                "probes": [{"probe": "nested-parity", "start": 0, "n_max": 3},
                           {"probe": "one-endedness", "n_list": [3], "trials": 10}]},
    "lattice": {"model": {"model": "lattice", "support": [[1, 1], [1, -1]], "lattice": "even",
                          "box": [[0, 5], [0, 5]], "wrap": [6, 6]},
                "probes": [{"probe": "cluster-frequency", "walk_steps": 200},
                           {"probe": "connectivity-decay", "distances": [0, 1, 2], "trials": 10,
                            "budget": 50}]},
    "strip": {"model": {"model": "strip", "intensity": 1.0, "half_width": 1.0,
                        "box": [[0, 8], [0, 4]]},
              "probes": [{"probe": "component-survey", "statistic": "height-range-per-size"},
                         {"probe": "nested-parity"}]},
    "discrete-strip": {"model": {"model": "discrete-strip", "p": 0.5, "box": [[0, 8], [0, 4]]},
                       "probes": [{"probe": "in-degree-profile"},
                                  {"probe": "component-survey"}]},
    "howard": {"model": {"model": "howard", "p": 0.5, "box": [[0, 6], [0, 4]]},
               "probes": [{"probe": "in-degree-profile"}, {"probe": "component-survey"}]},
    "canopy": {"model": {"model": "canopy", "depth": 3},
               "probes": [{"probe": "canopy-demo"}, {"probe": "in-degree-profile"}]},
}


def test_runs_cover_every_model_and_probe():
    assert {c["model"]["model"] for c in RUNS.values()} == set(RUNS) == set(MODELS)
    assert {p["probe"] for c in RUNS.values() for p in c["probes"]} == set(PROBES)


RUN_DIGESTS = {
    "nguyen": "169c06ae9dad786c17bee59ca893d0fdaa3d246694728829b9fd1b4a20fc8e30",
    "variant": "f69d6b46757c91cd4d7cb8369013ec68d1176f356c8a58c9ec414a2de1b0e9c3",
    "renewal": "f89c055ae5b2edda8aba8c2f9482ab3fe8ac3a00d8f376531705edc9f464c701",
    "lattice": "cb39653557ef97cafcc1231dbd628e884e39db093843085838d87d0cf6bbcef7",
    "strip": "0d1fdc9309114256430282369d1bd569fc2e465c1d11f7ae5758d3e79c05e862",
    "discrete-strip": "87d69aad004115e2487b4fb787d48fcfe0b0f746c4e1766e41a179a482e86248",
    "howard": "167e52674e09d623e9d2d5a282cce15863fd35ba6a339961bf364ed6e17b2454",
    "canopy": "072ae760a065f65db916eb0ce3f60851feeb7e002e92131a84afd0f485ca33f1",
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
    ("dump_tree wilson_ust", 3):
        "d53e4369717c680e659e87b221735547a268c97cd1f7ab5c26e954fa0694441a",
    ("dump_tree wilson_ust", 11):
        "d9ffa520fa1580ae042a9fe63f809d61b4b439f2688822cae00ee9e214566324",
    ("dump_tree conditional_wilson", 3):
        "96e996aac99136faf18837c40e5ccfb4af5434547b43e121c308a476962f6843",
    ("dump_tree conditional_wilson", 11):
        "053c1434dd85eb69b19eaf46ecca423bc001698d614e15949af1d17668464c62",
    ("dump_tree wusf_window", 3):
        "08ab5f3cebe0b1a1b62b4dde4bb1296a77018904dfb543dac02d11fafc71914e",
    ("dump_tree wusf_window", 11):
        "1e6fc9832d5f088ebc315fb7e154ebb7d59c0ce767f57e2ee637739ed151dfff",
    ("dump_forest howard", 3):
        "e01746223e4656e1a513262e169ba112285d0c0bffff39063b5612df189746de",
    ("dump_forest howard", 11):
        "916f9d37c16285dae75299c5a65e9b6849ea82d259c9ce33afd6a4dd1bc20eb4",
    ("dump_cloud bernoulli", 3):
        "30b44076dd44c43c0eefc532a098639f1d42925252b9acd6e9bc6221a9e87f41",
    ("dump_cloud bernoulli", 11):
        "b26ff8f97f8c7fc7447a97eed6613f8ff6be4db58824eedacc0f7ae34f937769",
    ("dump_cloud poisson", 3):
        "6d3dfab8843e569f967a29e14f2dc2a2749554d0f0826a1e4455c82b723067a8",
    ("dump_cloud poisson", 11):
        "5a85a1e2b73e56cd327b587ae91ea4519bf01c62d93c2c47d4e23f762cbbc447",
    ("lerw torus", 3):
        "63381123383e9e8dffedb123fbf9d0fcb58f2dc0f321a67ad866208c59751702",
    ("lerw torus", 11):
        "8914424f716608915cb530300d520ed48008ebd86a3d9b9e46cfb6fe65736197",
    ("voter_stationary torus", 3):
        "d8012037a675258a69e3b258e4aa2b4a7218ac3da881971f858978e3135bb382",
    ("voter_stationary torus", 11):
        "c6950d79114cb4a1a8177ac980963ecc956ab895e050db5e51587244524fd667",
    ("export-levels strip", 3):
        "b78cb63ba89f6546362d30742de05cc585ff4d94a05856143f746a8dfa250a03",
    ("export-levels strip", 11):
        "a92bdb76aef35b50b0370e380990abc8a8bf356f43dedb8174948520cb2e092f",
    ("meet_and_stick_coupling renewal", 3):
        "8309217ecd5129b2aeabc0afaac111c9852ee501eb7c0213edac0fdbaa58a952",
    ("meet_and_stick_coupling renewal", 11):
        "4afba005f7d5e80358111937f482523bb1df8226102101401b9657eb8fe1fe02",
    ("meet_and_stick_coupling variant traced", 3):
        "84b6237830cecd17129eac26e573b0e9edf7e6c9a732781e702e935c758c3c1e",
    ("meet_and_stick_coupling variant traced", 11):
        "b19914a62f616932bf6e7a6b4973a42bf2f094dd640e3b3d25419a964e5be1a3",
    ("shift_coupling no lattice", 3):
        "5ec334fa614cb8efe3a8892aaf2eaa82a95c6f31c4bc0a8e134c8b8f3ea6c176",
    ("shift_coupling no lattice", 11):
        "fdbeef3594a18b4f08b76103c6a8a92ea890dd934b46de2cab4bc0f2f4729d50",
    ("shift_coupling integer lattice", 3):
        "5ec334fa614cb8efe3a8892aaf2eaa82a95c6f31c4bc0a8e134c8b8f3ea6c176",
    ("shift_coupling integer lattice", 11):
        "fdbeef3594a18b4f08b76103c6a8a92ea890dd934b46de2cab4bc0f2f4729d50",
}


UNSEEDED_DIGESTS = {
    "check-kernel integer one atom":
        "caccf193e8f2c34850d8b5f42da4dd4327a59c2d2af3992a0db034d0cd20e080",
    "check-kernel integer pm one":
        "4e2e86eb4bdf8254017d9583124cf1a2c2b89b9605ea3bd080dee66bc1f347c3",
    "check-kernel integer steps 2 and 3":
        "a0ba5976b36569193bda699a2b14de73d0bc009e5fdc9f4976f9e53730f4e761",
    "check-kernel integer basis":
        "82954b7a2f595abb7526066c74918e57bac368dd95fd106bc17009ae0e30da5b",
    "check-kernel integer diagonals":
        "3d8599fc736e7d811926cb4f10d6dbb9d6021fc5ccbb8975bc93e6237c9b6e97",
    "check-kernel integer triangle":
        "a7b68a800532d48d51f5bc7a06c6433df5eaedefa705138869b23de8d1b4fea4",
    "check-kernel even one atom":
        "de34f1782eae4b03e4297f376b2544cdc9ede00d9cedd9b1565ed2d5b21c31f0",
    "check-kernel even nguyen":
        "c3ba8df08223c0c66aad8d6073525364e738fba76caf4bb745f7960cec5e424a",
    "check-kernel even variant":
        "54b6a9aff11bcc84c1a011493f6843f9d49371802c0c0fb7f2883cb0b97ee0ec",
    "check-kernel even doubled":
        "6670183fe5311c3d2aa7b5400c27a7d1f3d80c6ed2fa98823f3aa431eea9ca74",
    "covering_coupling_check C3":
        "86244bb7c1fc5e61df5cf23fd2533d7d61a9e686859fa131f3e7239d6bfc5224",
    "covering_coupling_check K4":
        "db5f07635c0b2a43c95f7b13c91ad2d8917b3a556f0a3ba720f28cf9348c8602",
    "covering_coupling_check K5":
        "db5f07635c0b2a43c95f7b13c91ad2d8917b3a556f0a3ba720f28cf9348c8602",
    "tv_profile renewal":
        "237b5c0b53304d326a0b6ae02006db1d8e3d6915c230df3708ead110b14041b3",
    "tv_profile variant k 2":
        "fcafe7ca79731062df6431069807f2162b0a5c9bc0984f099d285fe840cd64e3",
    "green_table renewal":
        "7cd3432cd242548eddf5ae9e138de3ba616468dc2f07100e9e583a55a5ea1fd1",
    "green_table variant":
        "343024aeb5623151123bb9f1eabd8d8763dc796908066422e21856c32029f122",
    "kernel_power variant":
        "162f42989b1e351c01c80e61e104131ff2a483a78ac70bfd130eeae8740534fd",
    "check_model_conditions nguyen 4d even":
        "725e3acc38ed192b3f5d48cfc569f739b1a89c38116a5ee0c698ec0edc7eb259",
}


@pytest.mark.parametrize("entry", sorted(DIGESTS), ids=lambda e: f"{e[0]} seed {e[1]}")
def test_output_keeps_its_digest(entry):
    name, seed = entry
    got = hashlib.sha256(_outputs(seed)[name]().encode()).hexdigest()
    assert got == DIGESTS[entry], (
        f"{name} at seed {seed} changed: digest {got}; the digests were made with "
        f"numpy {MADE_WITH_NUMPY}, this run has numpy {np.__version__}")


@pytest.mark.parametrize("name", sorted(UNSEEDED))
def test_unseeded_output_keeps_its_digest(name):
    got = hashlib.sha256(UNSEEDED[name]().encode()).hexdigest()
    assert got == UNSEEDED_DIGESTS[name], f"{name} changed: digest {got}"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_keeps_its_digest(tmp_path, name, threads):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(RUNS[name], seed=5, replicates=2)))
    out = tmp_path / "out"
    with redirect_stdout(io.StringIO()):
        assert main(["run", str(config), "--out-dir", str(out), "--threads", str(threads)]) == 0
    tree = hashlib.sha256()
    for path in sorted(out.iterdir()):
        tree.update(f"{path.name}\0{len(path.read_bytes())}\0".encode() + path.read_bytes())
    got = tree.hexdigest()
    assert got == RUN_DIGESTS[name], (
        f"cmtforest run {name} at --threads {threads} changed: digest {got}; the digests "
        f"were made with numpy {MADE_WITH_NUMPY}, this run has numpy {np.__version__}")
