"""The benchmark's span table names live functions, and the package's
public surface stays whole.

`perfbench/spans.py` traces public functions by (module, attribute path);
a renamed or deleted function would otherwise fail only the benchmark run.
The file is loaded by path, without writing bytecode next to it. A traced
run rebinds functions only in modules already loaded, so importing the CLI
must load every module the table names.
"""

import ast
import importlib
import importlib.util
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import cmtforest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_name_resolves_to_a_callable():
    traced = load_spans().TRACED
    assert traced
    for name, (module, path) in traced.items():
        assert module.startswith("cmtforest."), name
        target = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(target, part), f"{name}: {module} has no {path}"
            target = getattr(target, part)
        assert callable(target), f"{name}: {module}.{path} is not callable"


def test_cli_import_loads_every_traced_module(child):
    code = "import json, sys, cmtforest.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(child(["-c", code])))
    missing = {module for module, _ in load_spans().TRACED.values()} - loaded
    assert not missing, f"import cmtforest.cli leaves {sorted(missing)} unloaded"


PUBLIC = """
    ConfigError CyclicComponent EmptyWindow ForestWindow JumpDistribution StripConfig
    ancestral_line build_forest canopy_cmt canopy_distinguishability_demo check_cycle_free
    check_model_conditions check_weak_aperiodicity check_weak_irreducibility
    classify_component cluster_frequency coalescing_mc coalescing_srw
    component_statistic_survey components conditional_wilson connectivity_decay_probe
    count_components_probe covering_coupling_check derive_seed descendants discrete_strip
    dump_forest even_sublattice green_function green_table height howard_model
    in_degree_profile integer_lattice kernel_power lerw level_csv level_set
    level_set_bijection load_forest meet_and_stick_coupling nested_level_average
    nguyen_model nguyen_variant one_endedness_probe path_collision_estimate renewal_model
    reverse_jump rng_for sample_bernoulli sample_lattice_cmt sample_poisson shift_coupling
    spanning_trees strip_point_map tv_consecutive tv_profile uniform_jumps voter_stationary
    wilson_ust wired_ball wusf_window
""".split()


def test_public_names_are_pinned_and_resolve():
    assert cmtforest.__all__ == PUBLIC and len(PUBLIC) == 63
    for name in PUBLIC:
        assert getattr(cmtforest, name).__module__.startswith("cmtforest."), name
    star = {}
    exec("from cmtforest import *", star)
    assert set(PUBLIC) <= set(star)
    assert cmtforest.forest.build_forest is cmtforest.build_forest


def test_stream_roles_are_distinct():
    # two samplers seeded with one role would draw correlated streams
    roles = {}
    for info in pkgutil.iter_modules(cmtforest.__path__):
        module = importlib.import_module(f"cmtforest.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_ROLE_"):
                roles.setdefault(value, []).append(f"{info.name}.{name}")
    seeding = {"analysis", "chains", "cli", "lattice", "models", "points", "wusf"}
    assert seeding <= {n.split(".")[0] for names in roles.values() for n in names}
    shared = {hex(v): names for v, names in roles.items() if len(names) > 1}
    assert not shared, f"stream roles used twice: {shared}"


def package_nodes():
    """(module, top-level name, node) for every AST node of the package."""
    for path in sorted(Path(cmtforest.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                yield path.stem, getattr(top, "name", None), node


def defined_names():
    """(module, name) for every function, class and assigned name of the package."""
    return {(module, node.id if isinstance(node, ast.Name) else node.name)
            for module, _, node in package_nodes()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def callers_of(name):
    return [(module, top) for module, top, node in package_nodes()
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_lattice_spec_inverts_a_basis():
    # every membership and coordinate question reads the frame LatticeSpec computes once
    assert callers_of("_det_and_adjugate") == [("lattice", "LatticeSpec")]


def test_one_exact_elimination():
    # the basis inverse, the grading solve and the simplex share one Gauss-Jordan pivot,
    # and the Fourier-Motzkin decider lives on only as a test oracle
    assert sorted(callers_of("_pivot")) == [
        ("lattice", "_det_and_adjugate"), ("lattice", "_gordan"), ("lattice", "_grading")]
    assert "_fourier_motzkin" not in {top for _, top, _ in package_nodes()}


def test_one_kernel_power_sweep():
    # every exact kernel power, Green sum and TV distance steps one sweep, which keys
    # each power in its last power's box, so no per-power place values are computed
    assert sorted(callers_of("_power_numerators")) == [
        ("chains", "_green_sums"), ("chains", "kernel_power"), ("chains", "tv_profile")]
    assert "_strides" not in {name for _, name in defined_names()}


def test_only_the_jump_law_builds_an_atom_cdf():
    # a law's cdf and difference kernel are its cached tables, which every sampler and
    # coupling reads; coalescing_mc's rows are a graph chain's kernel, not a jump law
    assert set(callers_of("atom_cdf")) == {("lattice", "JumpDistribution"),
                                           ("models", "coalescing_mc")}


def test_atom_draws_have_one_reader():
    # every atom index drawn from a cdf reads lattice.atom_index, which counts or searches
    # by its size rule; the other searches look up sorted keys, not draws
    assert sorted(callers_of("atom_index")) == [
        ("analysis", "LatticeChainModel"), ("analysis", "one_endedness_probe"),
        ("chains", "_cross_collision_once"), ("chains", "_pair_steps"),
        ("chains", "meet_and_stick_coupling"), ("lattice", "sample_lattice_cmt"),
        ("models", "coalescing_mc")]
    assert sorted(set(callers_of("searchsorted"))) == [
        ("analysis", "level_set_bijection"), ("chains", "_Power"), ("lattice", "atom_index"),
        ("points", "_strip_successors")]
    assert callers_of("bisect_right") == []


def test_points_have_one_reader():
    # every point and atom is read by errors._point; chains._vec, which truncated, is gone
    defined = defined_names()
    assert not {name for _, name in defined} & {"_vec"}
    assert ("errors", "_point") in defined and ("errors", "_is_int") in defined


def test_runtime_imports_are_the_standard_library_and_numpy():
    # networkx and the other third-party packages are test-only oracles
    allowed = set(sys.stdlib_module_names) | {"numpy", "cmtforest"}
    for module, _, node in package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:  # a relative import is the package itself
            continue
        for name in names:
            assert name.split(".")[0] in allowed, f"{module} imports {name}"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9_.-]+", r).group() for r in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "networkx" in names(project["optional-dependencies"]["test"])
