"""Coalescing-trajectory forests on lattices and point clouds, with
exact kernel diagnostics and Monte-Carlo structure probes.

Importing the package loads no submodule and no numpy: each public name,
and each submodule, is loaded on first access."""

import importlib
import os

__version__ = "0.1.0"

# each submodule and the public names it defines; __all__ is read from here
_NAMES = {
    "errors": "CyclicComponent EmptyWindow ConfigError",
    "forest": """ForestWindow ancestral_line build_forest classify_component components
                 descendants dump_forest height level_set load_forest reverse_jump""",
    "lattice": """JumpDistribution check_cycle_free check_model_conditions
                  check_weak_aperiodicity check_weak_irreducibility even_sublattice
                  integer_lattice sample_lattice_cmt uniform_jumps""",
    "models": """canopy_cmt coalescing_mc coalescing_srw nguyen_model nguyen_variant
                 renewal_model voter_stationary""",
    "chains": """green_function green_table kernel_power meet_and_stick_coupling
                 path_collision_estimate shift_coupling tv_consecutive tv_profile""",
    "points": """StripConfig discrete_strip howard_model level_csv sample_bernoulli
                 sample_poisson strip_point_map""",
    "wusf": """conditional_wilson covering_coupling_check lerw spanning_trees wilson_ust
               wired_ball wusf_window""",
    "analysis": """canopy_distinguishability_demo cluster_frequency component_statistic_survey
                   connectivity_decay_probe count_components_probe in_degree_profile
                   level_set_bijection nested_level_average one_endedness_probe""",
    "seeds": "derive_seed rng_for",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
_SUBMODULES = {*_NAMES, "cli", "graphs"}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


def _cli_process():
    """The CLI's process default: OpenBLAS on one thread, unless the user set a
    count. The package does no float BLAS work, and OpenBLAS's idle worker
    threads cost CPU time at every start. Call it before numpy loads."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _console_main():
    """The `cmtforest` console script: sets the CLI's process default, then runs it."""
    _cli_process()
    from .cli import main
    return main()
