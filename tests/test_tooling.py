"""The benchmark's span table names live functions, and the package's
public surface stays whole.

`perfbench/spans.py` traces public functions by (module, attribute path);
a renamed or deleted function would otherwise fail only the benchmark run.
The file is loaded by path, without writing bytecode next to it. A traced
run rebinds functions only in modules already loaded, so importing the CLI
must load every module the table names.
"""

import importlib
import importlib.util
import json
import pkgutil
import sys
from pathlib import Path

import cmtforest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
