"""Coalescing-trajectory forests on lattices and point clouds, with
exact kernel diagnostics and Monte-Carlo structure probes."""

from .errors import CyclicComponent, EmptyWindow, ConfigError
from .forest import (
    ForestWindow,
    ancestral_line,
    build_forest,
    classify_component,
    components,
    descendants,
    dump_forest,
    height,
    level_set,
    load_forest,
    reverse_jump,
)
from .lattice import (
    JumpDistribution,
    check_cycle_free,
    check_model_conditions,
    check_weak_aperiodicity,
    check_weak_irreducibility,
    even_sublattice,
    integer_lattice,
    sample_lattice_cmt,
    uniform_jumps,
)
from .models import (
    canopy_cmt,
    coalescing_mc,
    coalescing_srw,
    nguyen_model,
    nguyen_variant,
    renewal_model,
    voter_stationary,
)
from .chains import (
    green_function,
    green_table,
    kernel_power,
    meet_and_stick_coupling,
    path_collision_estimate,
    shift_coupling,
    tv_consecutive,
    tv_profile,
)
from .points import (
    StripConfig,
    discrete_strip,
    howard_model,
    level_csv,
    sample_bernoulli,
    sample_poisson,
    strip_point_map,
)
from .wusf import (
    conditional_wilson,
    covering_coupling_check,
    lerw,
    spanning_trees,
    wilson_ust,
    wired_ball,
    wusf_window,
)
from .analysis import (
    canopy_distinguishability_demo,
    cluster_frequency,
    component_statistic_survey,
    connectivity_decay_probe,
    count_components_probe,
    in_degree_profile,
    level_set_bijection,
    nested_level_average,
    one_endedness_probe,
)
from .seeds import derive_seed, rng_for

__version__ = "0.1.0"

# every public name imported above from a submodule, so the list cannot drift
__all__ = sorted(name for name, obj in globals().items()
                 if getattr(obj, "__module__", "").startswith(__name__ + "."))
