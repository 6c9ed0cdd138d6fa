"""End-to-end checks of the batch front end: exit codes, artifact
determinism, kernel verdicts, and the level-set CSV export."""

import contextlib
import copy
import io
import json
import pickle
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtforest import cli
from cmtforest.cli import MODELS, PROBES, main
from cmtforest.points import StripConfig, sample_poisson, strip_point_map


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def minimal_config(seed=9):
    return {
        "model": {"model": "lattice", "support": [[1]], "box": [[0, 40]]},
        "probes": [{"probe": "in-degree-profile"}],
        "seed": seed,
    }


def run_into(tmp_path, payload, sub, *flags):
    config = write_config(tmp_path, payload, name=f"{sub}.json")
    out = tmp_path / sub
    return main(["run", str(config), "--out-dir", str(out), *flags]), out


def read_tree(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


# -- run: schema and exit codes ---------------------------------------------------


def test_empty_config_exit_2_names_model(tmp_path, capsys):
    config = tmp_path / "empty.json"
    config.write_text("")
    rc = main(["run", str(config), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "model" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "export-levels"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_exit_2_names_path(tmp_path, capsys, command, kind):
    config = tmp_path / "config.json"
    if kind == "directory":
        config.mkdir()
    elif kind == "not-utf8":
        config.write_bytes(b'\xff\xfe{"seed": 1}')
    rc = main([command, str(config), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert str(config) in capsys.readouterr().err


def test_probe_failure_survives_pickling():
    e = cli.ProbeFailure("probe 'nested-parity' failed: ValueError: boom")
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is cli.ProbeFailure
    assert str(back) == str(e) == "probe 'nested-parity' failed: ValueError: boom"
    assert back.args == e.args


def test_missing_seed_exit_2(tmp_path, capsys):
    payload = minimal_config()
    del payload["seed"]
    rc, _ = run_into(tmp_path, payload, "a")
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_seed_flag_substitutes_for_config_seed(tmp_path):
    payload = minimal_config()
    del payload["seed"]
    rc, out = run_into(tmp_path, payload, "a", "--seed", "9")
    assert rc == 0
    assert (out / "manifest.txt").exists()


def test_unknown_probe_exit_2(tmp_path, capsys):
    payload = minimal_config()
    payload["probes"] = [{"probe": "no-such-probe"}]
    rc, _ = run_into(tmp_path, payload, "a")
    assert rc == 2
    assert "no-such-probe" in capsys.readouterr().err


def test_chain_probe_needs_kernel_model(tmp_path, capsys):
    payload = {
        "model": {"model": "canopy", "depth": 2},
        "probes": [{"probe": "one-endedness"}],
        "seed": 1,
    }
    rc, _ = run_into(tmp_path, payload, "a")
    assert rc == 2
    assert "one-endedness" in capsys.readouterr().err


NOT_LEVEL_GRADED = {
    "variant": {"model": "variant", "box": [[-2, 2], [-2, 0]]},
    "renewal-1-2": {"model": "renewal", "support": [1, 2], "box": [[0, 9]]},
    "cyclic-lattice": {"model": "lattice", "support": [[1], [-1]], "box": [[0, 9]]},
}


@pytest.mark.parametrize("probe", ["count-components", "connectivity-decay"])
@pytest.mark.parametrize("model", NOT_LEVEL_GRADED.values(), ids=NOT_LEVEL_GRADED.keys())
def test_chain_probe_kernel_checked_before_sampling(tmp_path, capsys, monkeypatch, model, probe):
    # the window the in-degree probe needs is never sampled: the kernel is refused first
    def no_sampling(*args):
        raise AssertionError("window sampled before the kernel check")

    for name in ("nguyen_variant", "renewal_model", "sample_lattice_cmt"):
        monkeypatch.setattr(cli, name, no_sampling)
    payload = {"model": model, "probes": [{"probe": "in-degree-profile"}, {"probe": probe}],
               "seed": 1}
    rc, out = run_into(tmp_path, payload, "a")
    assert rc == 2
    assert "probes[1].probe" in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


def test_single_chain_count_needs_no_level_grading(tmp_path):
    payload = {"model": NOT_LEVEL_GRADED["variant"],
               "probes": [{"probe": "count-components", "k": 1}], "seed": 1}
    rc, _ = run_into(tmp_path, payload, "a")
    assert rc == 0


def test_cli_import_leaves_networkx_unloaded(child):
    code = "import sys, cmtforest.cli; print('networkx' in sys.modules)"
    assert child(["-c", code]).strip() == "False"


def test_package_import_loads_no_submodule_and_no_numpy(child):
    code = ("import sys, cmtforest; "
            "print([m for m in sys.modules if m == 'numpy' or m.startswith('cmtforest.')])")
    assert child(["-c", code]).strip() == "[]"


def test_unknown_package_name_raises_attribute_error(child):
    code = """
import cmtforest
for name in ("no_such_name", "_private", "__wrapped__"):
    try:
        getattr(cmtforest, name)
    except AttributeError as e:
        print(type(e).__name__, e)
print(hasattr(cmtforest, "no_such_name"), cmtforest.height.__module__)
"""
    assert child(["-c", code]).splitlines() == [
        "AttributeError module 'cmtforest' has no attribute 'no_such_name'",
        "AttributeError module 'cmtforest' has no attribute '_private'",
        "AttributeError module 'cmtforest' has no attribute '__wrapped__'",
        "False cmtforest.forest",
    ]


@pytest.mark.parametrize("blas", [None, "3"])
def test_cli_import_leaves_blas_threads_as_found(child, blas):
    code = "import os, cmtforest.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert child(["-c", code], blas).strip() == str(blas)


def console_script_target():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (target,) = re.findall(r'^cmtforest = "(.+)"$', pyproject, re.M)
    return target.split(":")


# Each entry runs check-kernel and prints whether numpy was loaded when the
# CLI's process default was set, and OPENBLAS_NUM_THREADS after the run.
ENTRY = """
import os, sys, cmtforest
loaded, default = [], cmtforest._cli_process
def spy():
    loaded.append("numpy" in sys.modules)
    default()
cmtforest._cli_process = spy
sys.argv = ["cmtforest", "check-kernel", "--support", "1,1;-1,1"]
{run}
print(loaded, os.environ.get("OPENBLAS_NUM_THREADS"))
"""
ENTRIES = {
    "python -m": """
import runpy
try:
    runpy.run_module("cmtforest.cli", run_name="__main__")
except SystemExit as e:
    assert e.code == 0, e.code
""",
    "console script": """
import importlib
module, name = {target!r}
assert getattr(importlib.import_module(module), name)() == 0
""",
}


@pytest.mark.parametrize("blas, want", [(None, "1"), ("3", "3")])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_cli_entry_runs_one_blas_thread_unless_set(child, entry, blas, want):
    run = ENTRIES[entry].format(target=console_script_target())
    out = child(["-c", ENTRY.format(run=run)], blas)
    assert "cycle_free: true" in out
    assert out.splitlines()[-1] == f"[False] {want}"


def test_cli_output_is_independent_of_threads_and_blas_setting(child, tmp_path):
    payload = {
        "model": {"model": "nguyen", "dimension": 2, "box": [[-6, 6], [-6, 6]]},
        "probes": [{"probe": "component-survey"}, {"probe": "in-degree-profile"},
                   {"probe": "count-components", "k": 2, "budget": 200, "trials": 20}],
        "seed": 5,
        "replicates": 2,
    }
    config = write_config(tmp_path, payload)
    trees = []
    for threads in ("1", "2"):
        for blas in (None, "2"):
            out = tmp_path / f"t{threads}-{blas}"
            child(["-m", "cmtforest.cli", "run", str(config), "--out-dir", str(out),
                   "--threads", threads], blas, cwd=tmp_path)
            trees.append(read_tree(out))
    assert len(trees[0]) == 13 and all(tree == trees[0] for tree in trees)


def test_probe_runtime_error_exit_1_names_probe(tmp_path, capsys):
    # delta walk on a wrapped interval is one big cycle; nested averages refuse it
    payload = {
        "model": {"model": "lattice", "support": [[1]], "box": [[0, 9]], "wrap": [10]},
        "probes": [{"probe": "nested-parity", "start": [0], "n_max": 3}],
        "seed": 2,
    }
    rc, _ = run_into(tmp_path, payload, "a")
    assert rc == 1
    assert "nested-parity" in capsys.readouterr().err


@pytest.mark.parametrize("model, start", [
    ({"model": "renewal", "support": [2], "box": [[0, 20]]}, [4, 999]),
    ({"model": "nguyen", "dimension": 2, "box": [[-3, 3], [-3, 0]]}, [0]),
    ({"model": "strip", "intensity": 1.0, "half_width": 1.0, "box": [[0, 8], [0, 4]],
      "time_axis": 0}, [0, 0]),
    ({"model": "nguyen", "dimension": 2, "box": [[-3, 3], [-3, 0]]}, 0),
])
def test_nested_parity_start_of_wrong_length_exit_2(tmp_path, capsys, model, start):
    # integer vertices, strip point ids included, have one coordinate
    payload = {"model": model, "probes": [{"probe": "nested-parity", "start": start}], "seed": 2}
    rc, _ = run_into(tmp_path, payload, "a")
    assert rc == 2
    assert "'start'" in capsys.readouterr().err


def test_empty_model_window_exit_1_names_it(tmp_path, capsys):
    # one odd point, so the even lattice of the nguyen model has no site in the box
    model = {"model": "nguyen", "dimension": 2, "box": [[0, 0], [1, 1]]}
    payload = {"model": model, "probes": [{"probe": "in-degree-profile"}], "seed": 1}
    rc, out = run_into(tmp_path, payload, "a")
    assert rc == 1
    assert "model build failed: EmptyWindow" in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


def test_nested_parity_on_an_empty_window_names_it(tmp_path, capsys):
    # intensity 0 gives a strip map over no points; there is no default start
    model = {"model": "strip", "intensity": 0, "half_width": 0.5, "box": [[0, 1], [0, 1]]}
    payload = {"model": model, "probes": [{"probe": "nested-parity"}], "seed": 1}
    rc, _ = run_into(tmp_path, payload, "a")
    assert rc == 1
    assert capsys.readouterr().err.strip() == (
        "probe 'nested-parity' failed: Empty: the window is empty: no vertex to start from")


def test_nested_parity_start_on_point_ids_has_one_coordinate(tmp_path):
    model = {"model": "strip", "intensity": 1.0, "half_width": 1.0, "box": [[0, 8], [0, 4]],
             "time_axis": 0}
    payload = {"model": model, "probes": [{"probe": "nested-parity", "start": [0], "n_max": 2}],
               "seed": 2}
    rc, out = run_into(tmp_path, payload, "a")
    assert rc == 0
    assert (out / "00-nested-parity-r000.csv").exists()


# -- run: artifacts ---------------------------------------------------------------


def test_minimal_config_writes_csv_and_manifest(tmp_path):
    rc, out = run_into(tmp_path, minimal_config(), "a")
    assert rc == 0
    csv = out / "00-in-degree-profile-r000.csv"
    assert csv.exists()
    manifest = (out / "manifest.txt").read_text().strip().split("\n")
    assert manifest[0].startswith("config-hash")
    assert any(line.endswith(csv.name) for line in manifest[1:])
    header = csv.read_text().split("\n")[0]
    assert header == "unit,value,half_width,trials"


def test_manifest_hashes_match_contents(tmp_path):
    import hashlib

    rc, out = run_into(tmp_path, minimal_config(), "a")
    assert rc == 0
    for line in (out / "manifest.txt").read_text().strip().split("\n")[1:]:
        sha, name = line.split()
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha


def test_same_seed_byte_identical(tmp_path):
    rc1, out1 = run_into(tmp_path, minimal_config(), "a")
    rc2, out2 = run_into(tmp_path, minimal_config(), "b")
    assert rc1 == rc2 == 0
    assert read_tree(out1) == read_tree(out2)


def test_different_seed_changes_some_output(tmp_path):
    payload = {
        "model": {"model": "nguyen", "dimension": 2, "box": [[-8, 8], [-8, 8]]},
        "probes": [{"probe": "component-survey"}],
        "seed": 1,
    }
    _, out1 = run_into(tmp_path, payload, "a")
    payload["seed"] = 2
    _, out2 = run_into(tmp_path, payload, "b")
    t1, t2 = read_tree(out1), read_tree(out2)
    del t1["manifest.txt"], t2["manifest.txt"]
    assert t1 != t2


def test_replicates_threaded_matches_serial(tmp_path):
    payload = {
        "model": {"model": "nguyen", "dimension": 2, "box": [[-6, 6], [-6, 6]]},
        "probes": [
            {"probe": "count-components", "k": 2, "budget": 200, "trials": 20},
            {"probe": "component-survey"},
        ],
        "seed": 4,
        "replicates": 3,
    }
    rc1, serial = run_into(tmp_path, payload, "a")
    rc2, pooled = run_into(tmp_path, payload, "b", "--threads", "3")
    assert rc1 == rc2 == 0
    assert read_tree(serial) == read_tree(pooled)
    names = sorted(read_tree(serial))
    assert "00-count-components-r002.csv" in names
    assert "01-component-survey-r001.json" in names


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_threads_below_one_exit_2_naming_flag(tmp_path, capsys, threads):
    config = write_config(tmp_path, minimal_config())
    with pytest.raises(SystemExit) as exc:
        main(["run", str(config), "--out-dir", str(tmp_path / "out"), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_replicates_get_distinct_draws(tmp_path):
    payload = {
        "model": {"model": "nguyen", "dimension": 2, "box": [[-8, 8], [-8, 8]]},
        "probes": [{"probe": "component-survey"}],
        "seed": 6,
        "replicates": 2,
    }
    rc, out = run_into(tmp_path, payload, "a")
    assert rc == 0
    r0 = (out / "00-component-survey-r000.csv").read_bytes()
    r1 = (out / "00-component-survey-r001.csv").read_bytes()
    assert r0 != r1


# -- check-kernel -----------------------------------------------------------------


def verdicts(capsys):
    lines = capsys.readouterr().out.strip().split("\n")
    return dict(line.split(": ", 1) for line in lines if not line.startswith("witness"))


def test_check_kernel_nguyen(capsys):
    rc = main(["check-kernel", "--support", "1,-1;-1,-1", "--lattice", "even"])
    assert rc == 0
    v = verdicts(capsys)
    assert v["cycle_free"] == "true"
    assert v["weakly_irreducible"] == "true"
    assert v["weakly_aperiodic"] == "false"


def test_check_kernel_variant_all_true(capsys):
    rc = main(["check-kernel", "--support=-1,-1;1,-1;0,-2", "--lattice", "even"])
    assert rc == 0
    v = verdicts(capsys)
    assert v == {
        "cycle_free": "true",
        "weakly_irreducible": "true",
        "weakly_aperiodic": "true",
    }


def test_check_kernel_pm_one_not_cycle_free(capsys):
    rc = main(["check-kernel", "--support", "1;-1", "--weights", "0.5,0.5"])
    assert rc == 0
    assert verdicts(capsys)["cycle_free"] == "false"


def test_check_kernel_bad_support_exit_2(capsys):
    rc = main(["check-kernel", "--support", "1,q"])
    assert rc == 2
    assert "support" in capsys.readouterr().err


# -- export-levels ----------------------------------------------------------------


STRIP = {
    "model": {
        "model": "strip",
        "intensity": 1.0,
        "half_width": 1.5,
        "box": [[0, 25], [0, 8]],
    },
    "seed": 3,
}


def export(tmp_path, payload, sub):
    config = write_config(tmp_path, payload, name=f"{sub}.json")
    out = tmp_path / sub
    rc = main(["export-levels", str(config), "--out-dir", str(out)])
    return rc, out / "levels.csv"


def strip_forest(payload):
    m = payload["model"]
    cloud = sample_poisson(m["intensity"], m["box"], payload["seed"])
    return cloud, strip_point_map(cloud, StripConfig(m["half_width"]))


def test_export_levels_each_point_once(tmp_path):
    rc, csv = export(tmp_path, STRIP, "a")
    assert rc == 0
    rows = [line.split(",") for line in csv.read_text().strip().split("\n")[1:]]
    ids = [int(r[0]) for r in rows]
    cloud, _ = strip_forest(STRIP)
    assert sorted(ids) == list(range(len(cloud)))


def test_export_levels_jump_edges_step_one(tmp_path):
    rc, csv = export(tmp_path, STRIP, "a")
    assert rc == 0
    rows = [line.split(",") for line in csv.read_text().strip().split("\n")[1:]]
    level = {int(r[0]): int(r[3]) for r in rows}
    comp = {int(r[0]): int(r[4]) for r in rows}
    _, forest = strip_forest(STRIP)
    checked = 0
    for v, w in forest.jump.items():
        assert level[v] - level[w] == 1
        assert comp[v] == comp[w]
        checked += 1
    assert checked > 0


def test_export_levels_twenty_level_roundtrip(tmp_path):
    payload = dict(STRIP, levels=20)
    payload["model"] = dict(STRIP["model"], box=[[0, 60], [0, 8]])
    rc, csv = export(tmp_path, payload, "a")
    assert rc == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "point_id,t,x,level_index,component_id"
    rows = [line.split(",") for line in lines[1:]]
    assert rows
    for r in rows:
        int(r[0]), float(r[1]), float(r[2])
        assert 0 <= int(r[3]) < 20
        int(r[4])
    rc2, csv2 = export(tmp_path, payload, "b")
    assert rc2 == 0
    assert csv2.read_bytes() == csv.read_bytes()


def test_export_levels_rejects_non_strip(tmp_path, capsys):
    payload = {
        "model": {"model": "nguyen", "dimension": 2, "box": [[-4, 4], [-4, 4]]},
        "seed": 1,
    }
    rc, _ = export(tmp_path, payload, "a")
    assert rc == 2
    assert "strip" in capsys.readouterr().err


# -- schema faults: every one exits 2 and names its field -------------------------


def nguyen_with(probe):
    return {
        "model": {"model": "nguyen", "dimension": 2, "box": [[-3, 3], [-3, 0]]},
        "probes": [probe],
        "seed": 1,
    }


def lattice_with(**model):
    return {
        "model": {"model": "lattice", "box": [[0, 6], [0, 6]], **model},
        "probes": [{"probe": "in-degree-profile"}],
        "seed": 1,
    }


SCHEMA_FAULTS = {
    "k-string": (nguyen_with({"probe": "count-components", "k": "x"}), "k"),
    "one-endedness-zero-trials": (nguyen_with({"probe": "one-endedness", "trials": 0}), "trials"),
    "count-components-zero-trials": (
        nguyen_with({"probe": "count-components", "trials": 0}), "trials"),
    "min-size-string": (nguyen_with({"probe": "component-survey", "min_size": "a"}), "min_size"),
    "distances-string": (
        nguyen_with({"probe": "connectivity-decay", "distances": "abc"}), "distances"),
    "nguyen-dimension-one": (
        {"model": {"model": "nguyen", "dimension": 1, "box": [[0, 4]]},
         "probes": [{"probe": "in-degree-profile"}], "seed": 1},
        "dimension",
    ),
    "weights-not-a-law": (lattice_with(support=[[1]], weights=[0.5], box=[[0, 6]]), "weights"),
    "even-wrap-off-lattice": (
        lattice_with(support=[[1, 1], [1, -1]], lattice="even", wrap=[7, 7]), "wrap"),
    "box-axes-mismatch": (
        {"model": {"model": "nguyen", "dimension": 3, "box": [[-3, 3], [-3, 0]]},
         "probes": [{"probe": "in-degree-profile"}], "seed": 1},
        "box",
    ),
    "atom-off-lattice": (lattice_with(support=[[1, 0], [0, 1]], lattice="even"), "support"),
    "out-dir-number": (dict(minimal_config(), out_dir=5), "out_dir"),
}


@pytest.mark.parametrize("payload, field", SCHEMA_FAULTS.values(), ids=SCHEMA_FAULTS.keys())
def test_schema_fault_exit_2_names_field(tmp_path, capsys, payload, field):
    config = write_config(tmp_path, payload)
    rc = main(["run", str(config), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert field in err
    assert not (tmp_path / "out" / "manifest.txt").exists()


def test_export_levels_string_seed_exit_2(tmp_path, capsys):
    rc, _ = export(tmp_path, dict(STRIP, seed="abc"), "a")
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_check_kernel_atom_off_lattice_exit_2(capsys):
    rc = main(["check-kernel", "--support", "1,0;0,1", "--lattice", "even"])
    assert rc == 2
    assert "support" in capsys.readouterr().err


# -- fuzz: one model or probe field broken at a time -------------------------------

# Small valid configs that together use every model and every probe.
FUZZ_BASES = [
    {"model": {"model": "nguyen", "dimension": 2, "box": [[-3, 3], [-3, 0]]},
     "probes": [{"probe": "count-components", "k": 2, "budget": 50, "trials": 10},
                {"probe": "component-survey"}]},
    {"model": {"model": "variant", "box": [[-3, 3], [-6, 0]]},
     "probes": [{"probe": "one-endedness", "n_list": [2, 4], "trials": 10},
                {"probe": "in-degree-profile"}]},
    {"model": {"model": "renewal", "support": [2], "box": [[0, 20]]},
     "probes": [{"probe": "connectivity-decay", "distances": [0, 1], "trials": 10, "budget": 50},
                {"probe": "nested-parity", "start": 0, "n_max": 2}]},
    {"model": {"model": "lattice", "support": [[1, 1], [1, -1]], "lattice": "even",
               "box": [[0, 5], [0, 5]], "wrap": [6, 6]},
     "probes": [{"probe": "cluster-frequency", "walk_steps": 200},
                {"probe": "in-degree-profile"}]},
    {"model": {"model": "strip", "intensity": 1.0, "half_width": 1.0, "box": [[0, 8], [0, 4]],
               "time_axis": 0},
     "probes": [{"probe": "component-survey", "statistic": "height-range-per-size",
                 "min_size": 1},
                {"probe": "nested-parity"}]},
    {"model": {"model": "discrete-strip", "p": 0.5, "box": [[0, 8], [0, 4]]},
     "probes": [{"probe": "in-degree-profile"}]},
    {"model": {"model": "howard", "p": 0.5, "box": [[0, 6], [0, 4]]},
     "probes": [{"probe": "component-survey"}]},
    {"model": {"model": "canopy", "depth": 3},
     "probes": [{"probe": "canopy-demo"}, {"probe": "in-degree-profile"}]},
]

# A value of the right type but outside the allowed range, per field.
OUT_OF_RANGE = {
    "dimension": 1, "box": [[3, 1]], "support": [], "weights": [2], "lattice": "odd",
    "wrap": [0], "intensity": -0.5, "half_width": 0, "time_axis": -1, "p": 0, "depth": 0,
    "statistic": "median", "min_size": 0, "component_id": -1, "walk_steps": 99, "start": [],
    "n_max": -1, "origin": [], "distances": [-1], "trials": 0, "budget": -1, "k": 0,
    "n_list": [-2],
}
WRONG_TYPES = ["x", {"a": 1}, True, [["x"]]]
REQUIRED = {
    "nguyen": {"dimension", "box"}, "variant": {"box"}, "renewal": {"support", "box"},
    "lattice": {"support", "box"}, "strip": {"intensity", "half_width", "box"},
    "discrete-strip": {"p", "box"}, "howard": {"p", "box"}, "canopy": {"depth"},
}


def test_fuzz_bases_cover_every_model_and_probe():
    assert {b["model"]["model"] for b in FUZZ_BASES} == set(MODELS) == set(REQUIRED)
    assert {p["probe"] for b in FUZZ_BASES for p in b["probes"]} == set(PROBES)
    fields = {f for table in (MODELS, PROBES) for entry in table.values() for f in entry.fields}
    assert fields == set(OUT_OF_RANGE)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.data())
def test_fuzz_one_field_exit_contract(data):
    payload = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    payload["seed"] = 3
    blocks = [("model.", payload["model"], MODELS[payload["model"]["model"]])]
    blocks += [(f"probes[{i}].", p, PROBES[p["probe"]]) for i, p in enumerate(payload["probes"])]
    where, block, entry = data.draw(st.sampled_from([b for b in blocks if b[2].fields]))
    field = data.draw(st.sampled_from(sorted(entry.fields)))
    how = data.draw(st.sampled_from(["wrong-type", "out-of-range", "missing"]))
    if how == "missing":
        block.pop(field, None)
        breaks = where == "model." and field in REQUIRED[payload["model"]["model"]]
    else:
        block[field] = (data.draw(st.sampled_from(WRONG_TYPES)) if how == "wrong-type"
                        else OUT_OF_RANGE[field])
        breaks = True
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["run", str(config), "--out-dir", str(Path(tmp) / "out")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if breaks:
        assert rc == 2, (where + field, how, err.getvalue())
        assert field in err.getvalue()
