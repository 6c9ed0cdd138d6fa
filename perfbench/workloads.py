"""The three benchmark workloads, built from a seed.

A workload is a list of steps run in order. A CLI step is one
``cmtforest`` command; a library step is a batch of calls to public
library functions. The seed fixes every input: config files, config seeds
and library-call arguments. Sizes are fixed per size class, so two seeds
give inputs of the same shape with different random draws.

Each step carries the checks that hold at any seed, and a digest of its
output that is compared with the golden digest at the default seed.

Why these workloads:

- ``lattice-survey``: the lattice sampler, the forest core (build,
  reverse map, components) and the forest probes, with replicate fan-out
  at ``--threads 1`` and ``--threads nproc``. The torus window has only
  cyclic components and no exits.
- ``strip-levels``: the point-cloud samplers (the O(n^2) strip scan and
  the Python cell loop of the discrete strip) and per-component heights
  on int point-id vertices. No lattice sampler and no chains.
- ``trial-batch``: many small seeded trials in the chain probes, the
  couplings, the exact TV sweep and Wilson's algorithm, with per-trial
  Generator set-up. The forest, lattice and points layers are almost
  unused, so a forest-core change should not move it.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1

# Exact TV(K^100, K^101) of the uniform {1, 2} renewal kernel.
TV_100 = Fraction(4698371437170881552356464333, 39614081257132168796771975168)

SIZES = {
    "full": {
        "nguyen_box": [[-5, 5], [-5, 5], [-5, 5], [-24, 0]],
        "torus_side": 140,
        "strip_box": [[0, 40], [0, 200]],
        "discrete_box": [[0, 199], [0, 399]],
        "chain_trials": 1000,
        "chain_budget": 500,
        "k4_trees": 10000,
        "torus_graph_side": 24,
        "torus_trees": 50,
        "lerw_walks": 50,
        "meet_trials": 1000,
        "shift_trials": 200,
        "tv_n": 400,
    },
    "tiny": {
        "nguyen_box": [[-2, 2], [-2, 2], [-2, 2], [-6, 0]],
        "torus_side": 20,
        "strip_box": [[0, 10], [0, 30]],
        "discrete_box": [[0, 19], [0, 29]],
        "chain_trials": 50,
        "chain_budget": 100,
        "k4_trees": 100,
        "torus_graph_side": 6,
        "torus_trees": 5,
        "lerw_walks": 5,
        "meet_trials": 20,
        "shift_trials": 10,
        "tv_n": 120,
    },
}


@dataclass
class Outcome:
    """What one step produced: an exit code and output directory for a CLI
    step, a result for a library step, and an error text if it failed."""

    returncode: int = 0
    error: str = ""
    out_dir: Path = None
    result: object = None


@dataclass
class Step:
    name: str
    items: int
    argv: tuple = ()          # CLI step: arguments after the program name
    call: Callable = None     # library step: returns the result
    check: Callable = None    # Outcome -> list of problems, beyond the exit code
                              # and, for `run`, the manifest
    digest: Callable = None   # Outcome -> hex digest, compared with the golden one
    twin: str = None          # the --threads 1 step whose bytes this one must repeat

    @property
    def is_cli(self):
        return self.call is None


@dataclass
class Plan:
    item_label: str
    inputs: dict              # path relative to the work dir -> text
    steps: list

    def write_inputs(self, work):
        for rel, text in self.inputs.items():
            path = work / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_json(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _draw_seed(rng):
    return rng.randrange(1 << 32)


# -- CLI outputs ----------------------------------------------------------------


def read_manifest(out_dir):
    """{artifact name: sha256} from a run's manifest, config hash excluded."""
    entries = {}
    for line in (Path(out_dir) / "manifest.txt").read_text().splitlines()[1:]:
        sha, name = line.split("  ", 1)
        entries[name] = sha
    return entries


def manifest_problems(out):
    """The manifest exists and lists the true digest of every artifact."""
    path = out.out_dir / "manifest.txt"
    if not path.is_file():
        return ["no manifest.txt"]
    bad = [name for name, sha in read_manifest(out.out_dir).items()
           if sha256_file(out.out_dir / name) != sha]
    return [f"manifest digest wrong for {name}" for name in bad]


def read_probe_csv(path):
    """Rows of a probe CSV as (unit, value, half_width, trials) strings."""
    lines = Path(path).read_text().splitlines()[1:]
    return [tuple(line.split(",")) for line in lines]


def in_degree_histograms(out_dir):
    """{artifact: {in-degree: vertex count}} of every in-degree CSV."""
    out = {}
    for path in sorted(Path(out_dir).glob("*-in-degree-profile-r*.csv")):
        out[path.name] = {int(u): int(float(v)) for u, v, _, _ in read_probe_csv(path)}
    return out


def chain_trial_counts(out_dirs):
    """(trials merged within budget, trials attempted) over the
    count-components and connectivity-decay artifacts in out_dirs."""
    merged = attempted = Fraction(0)
    for out_dir in out_dirs:
        for path in sorted(Path(out_dir).glob("*.json")):
            report = json.loads(path.read_text())
            if report["probe"] not in ("count-components", "connectivity-decay"):
                continue
            rows = read_probe_csv(path.with_suffix(".csv"))
            trials = sum(int(t) for u, _, _, t in rows
                         if report["probe"] == "count-components" or int(u) > 0)
            unresolved = Fraction(report["truncation_fraction"]) * trials
            attempted += trials
            merged += trials - unresolved
    return float(merged), float(attempted)


def _run_steps(name, config_rel, work, items, nproc, check):
    """A `cmtforest run` step at --threads 1 and its twin at --threads nproc."""
    serial, pooled = f"{name}-t1", f"{name}-tN"
    return [
        Step(
            name=tag,
            items=items,
            argv=("run", str(work / config_rel), "--out-dir", str(work / "out" / tag),
                  "--threads", str(threads)),
            check=check,
            digest=(lambda out: sha256_file(out.out_dir / "manifest.txt")) if twin is None else None,
            twin=twin,
        )
        for tag, threads, twin in ((serial, 1, None), (pooled, nproc, serial))
    ]


# -- lattice-survey -----------------------------------------------------------------


def _even_sites(box):
    """Number of points with even coordinate sum in an integer box."""
    even, odd = 1, 0  # points of the empty product, by coordinate-sum parity
    for lo, hi in box:
        e = sum(1 for c in range(lo, hi + 1) if c % 2 == 0)
        o = hi - lo + 1 - e
        even, odd = even * e + odd * o, even * o + odd * e
    return even


def lattice_survey(seed, size, work, nproc):
    p = SIZES[size]
    rng = random.Random(f"lattice-survey/{seed}")
    side = p["torus_side"]
    nguyen_sites = _even_sites(p["nguyen_box"])
    torus_sites = side * side
    replicates = 2
    nguyen = {
        "model": {"model": "nguyen", "dimension": 4, "box": p["nguyen_box"]},
        "probes": [
            {"probe": "component-survey", "statistic": "leaf-fraction"},
            {"probe": "component-survey", "statistic": "height-range-per-size"},
            {"probe": "in-degree-profile"},
            {"probe": "nested-parity"},
        ],
        "seed": _draw_seed(rng),
        "replicates": replicates,
    }
    torus = {
        "model": {
            "model": "lattice",
            "support": [[1, 1], [1, -1], [1, 0]],
            "box": [[0, side - 1], [0, side - 1]],
            "wrap": [side, side],
        },
        "probes": [
            {"probe": "in-degree-profile"},
            {"probe": "component-survey", "statistic": "mean-in-degree"},
        ],
        "seed": _draw_seed(rng),
        "replicates": replicates,
    }

    def window_size(sites):
        def check(out):
            hists = in_degree_histograms(out.out_dir)
            if len(hists) != replicates:
                return [f"expected {replicates} in-degree profiles, found {len(hists)}"]
            return [f"{name}: window has {sum(h.values())} sites, expected {sites}"
                    for name, h in hists.items() if sum(h.values()) != sites]
        return check

    def torus_check(out):
        problems = window_size(torus_sites)(out)
        for name, h in in_degree_histograms(out.out_dir).items():
            mean = Fraction(sum(k * n for k, n in h.items()), sum(h.values()))
            if mean != 1:
                problems.append(f"{name}: torus mean in-degree {mean}, expected 1")
        return problems

    return Plan(
        item_label="lattice sites sampled (window sites x replicates x runs)",
        inputs={"inputs/nguyen.json": json.dumps(nguyen), "inputs/torus.json": json.dumps(torus)},
        steps=_run_steps("nguyen", "inputs/nguyen.json", work, nguyen_sites * replicates,
                         nproc, window_size(nguyen_sites))
        + _run_steps("torus", "inputs/torus.json", work, torus_sites * replicates,
                     nproc, torus_check),
    )


# -- strip-levels -------------------------------------------------------------------


def strip_levels(seed, size, work, nproc):
    from cmtforest import points

    p = SIZES[size]
    rng = random.Random(f"strip-levels/{seed}")
    strip_model = {"model": "strip", "intensity": 1.0, "half_width": 1.0, "box": p["strip_box"]}
    strip = {"model": strip_model, "seed": _draw_seed(rng)}
    (t_lo, t_hi), (x_lo, x_hi) = p["discrete_box"]
    cells = (t_hi - t_lo + 1) * (x_hi - x_lo + 1)
    discrete = {
        "model": {"model": "discrete-strip", "p": 0.3, "box": p["discrete_box"]},
        "probes": [{"probe": "in-degree-profile"}, {"probe": "component-survey"}],
        "seed": _draw_seed(rng),
        "replicates": 1,
    }
    # The cloud is sampled once here, outside any timed region, to know how
    # many rows levels.csv must have.
    cloud_points = len(points.sample_poisson(1.0, strip_model["box"], strip["seed"]))

    def levels_check(out):
        path = out.out_dir / "levels.csv"
        if not path.is_file():
            return ["no levels.csv"]
        lines = path.read_text().splitlines()
        if lines[0] != "point_id,t,x,level_index,component_id":
            return [f"levels.csv header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        problems = []
        if len(rows) != cloud_points:
            problems.append(f"levels.csv has {len(rows)} rows for {cloud_points} points")
        if [int(r[0]) for r in rows] != list(range(len(rows))):
            problems.append("levels.csv point ids are not 0..n-1 in order")
        if any(int(r[3]) < 0 for r in rows):
            problems.append("levels.csv has a negative level_index")
        return problems

    def discrete_check(out):
        hists = in_degree_histograms(out.out_dir)
        if not hists:
            return ["no in-degree profile"]
        return [f"{name}: window has {sum(h.values())} cells, expected {cells}"
                for name, h in hists.items() if sum(h.values()) != cells]

    levels_dir = work / "out" / "levels"
    return Plan(
        item_label="cloud points in the strip window plus discrete-strip cells per run",
        inputs={"inputs/strip.json": json.dumps(strip), "inputs/discrete.json": json.dumps(discrete)},
        steps=[Step(
            name="levels",
            items=cloud_points,
            argv=("export-levels", str(work / "inputs/strip.json"), "--out-dir", str(levels_dir)),
            check=levels_check,
            digest=lambda out: sha256_file(out.out_dir / "levels.csv"),
        )] + _run_steps("discrete", "inputs/discrete.json", work, cells, nproc, discrete_check),
    )


# -- trial-batch --------------------------------------------------------------------


def _tree_problems(graph, tree, root):
    """n-1 arcs, each an edge of the graph, and every vertex reaches root."""
    n = len(graph.vertices)
    if len(tree.parent) != n - 1 or tree.roots != frozenset([root]):
        return [f"tree has {len(tree.parent)} arcs and roots {set(tree.roots)}"]
    if any(b not in graph.neighbors(a) for a, b in tree.parent.items()):
        return ["tree arc is not a graph edge"]
    for v in graph.vertices:
        for _ in range(n):
            if v == root:
                break
            v = tree.parent[v]
        if v != root:
            return ["tree vertex does not reach the root"]
    return []


def _tree_rows(tree):
    return sorted([repr(v), repr(p)] for v, p in tree.parent.items())


def trial_batch(seed, size, work, nproc):
    from cmtforest import chains, graphs, lattice, wusf

    p = SIZES[size]
    rng = random.Random(f"trial-batch/{seed}")
    trials, budget = p["chain_trials"], p["chain_budget"]
    config = {
        "model": {"model": "nguyen", "dimension": 2, "box": [[-4, 4], [-4, 0]]},
        "probes": [
            {"probe": "count-components", "k": 4, "budget": budget, "trials": trials},
            {"probe": "connectivity-decay", "distances": [1, 2, 4, 8], "budget": budget,
             "trials": trials},
            {"probe": "one-endedness", "n_list": [10, 50, 200], "trials": trials},
        ],
        "seed": _draw_seed(rng),
    }
    side = p["torus_graph_side"]
    torus_vertices = list(product(range(side), repeat=2))
    args = {
        "k4_seed": _draw_seed(rng),
        "torus_root": list(rng.choice(torus_vertices)),
        "torus_seed": _draw_seed(rng),
        "conditional_seed": _draw_seed(rng),
        "lerw_start": list(rng.choice(torus_vertices[1:])),
        "lerw_seed": _draw_seed(rng),
        "meet_gaps": [rng.randint(1, 20) for _ in range(p["meet_trials"])],
        "meet_seed": _draw_seed(rng),
        "shift_gaps": [rng.randint(1, 20) for _ in range(p["shift_trials"])],
        "shift_seed": _draw_seed(rng),
    }
    k4 = graphs.complete_graph(4)
    torus = graphs.torus_graph(side, 2)
    renewal = lattice.uniform_jumps([(1,), (2,)])
    line = lattice.integer_lattice(1)
    torus_root = tuple(args["torus_root"])
    path = [(i, 0) for i in range(6)]
    lerw_start = tuple(args["lerw_start"])
    meet_budget, shift_budget = 10000, 1000

    def k4_trees():
        return [wusf.wilson_ust(k4, 0, args["k4_seed"] + i) for i in range(p["k4_trees"])]

    def torus_trees():
        return [wusf.wilson_ust(torus, torus_root, args["torus_seed"] + i)
                for i in range(p["torus_trees"])]

    def conditional_trees():
        return [wusf.conditional_wilson(torus, path, args["conditional_seed"] + i)
                for i in range(p["torus_trees"])]

    def lerw_paths():
        return [wusf.lerw(torus, lerw_start, {(0, 0)}, args["lerw_seed"] + i)
                for i in range(p["lerw_walks"])]

    def meets():
        return [chains.meet_and_stick_coupling(renewal, 0, gap, meet_budget, args["meet_seed"] + i)
                for i, gap in enumerate(args["meet_gaps"])]

    def shifts():
        return [chains.shift_coupling(renewal, line, 0, gap, shift_budget, args["shift_seed"] + i)
                for i, gap in enumerate(args["shift_gaps"])]

    def tv():
        return chains.tv_profile(renewal, p["tv_n"])

    def trees_check(graph, root, prefix=()):
        def check(out):
            problems = []
            for tree in out.result:
                problems += _tree_problems(graph, tree, root)
                if any(tree.parent.get(a) != b for a, b in zip(prefix, prefix[1:])):
                    problems.append("conditional tree lost its initial path")
            return sorted(set(problems))
        return check

    def lerw_check(out):
        for walk in out.result:
            simple = len(set(walk)) == len(walk)
            linked = all(b in torus.neighbors(a) for a, b in zip(walk, walk[1:]))
            if walk[0] != lerw_start or walk[-1] != (0, 0) or not simple or not linked:
                return ["loop-erased walk is not a simple path from start to stop"]
        return []

    def couplings_check(budget):
        def check(out):
            late = [r for r in out.result
                    if r.success and not 0 <= r.coupling_time <= budget]
            return ["coupling time outside the budget"] if late else []
        return check

    def tv_check(out):
        profile = out.result
        problems = []
        if chains.tv_consecutive(renewal, 100) != TV_100 or profile[99] != TV_100:
            problems.append("tv(100, 1) differs from its exact value")
        if any(b > a for a, b in zip(profile, profile[1:])) or not 0 <= profile[-1] <= 1:
            problems.append("tv profile is not non-increasing within [0, 1]")
        return problems

    def coupling_rows(out):
        return sha256_json([[r.success, r.coupling_time, r.shift] for r in out.result])

    def tree_digest(out):
        return sha256_json([_tree_rows(t) for t in out.result])

    chain_items = trials * (1 + 4 + 3)
    return Plan(
        item_label="completed trials (chain-probe trials, spanning trees, walks, couplings)",
        inputs={"inputs/chains.json": json.dumps(config), "inputs/library-args.json": json.dumps(args)},
        steps=_run_steps("chains", "inputs/chains.json", work, chain_items, nproc, None)
        + [
            Step("wilson-k4", p["k4_trees"], call=k4_trees, check=trees_check(k4, 0),
                 digest=tree_digest),
            Step("wilson-torus", p["torus_trees"], call=torus_trees,
                 check=trees_check(torus, torus_root), digest=tree_digest),
            Step("conditional-wilson", p["torus_trees"], call=conditional_trees,
                 check=trees_check(torus, path[-1], path), digest=tree_digest),
            Step("lerw", p["lerw_walks"], call=lerw_paths, check=lerw_check,
                 digest=lambda out: sha256_json([repr(w) for w in out.result])),
            Step("meet-and-stick", p["meet_trials"], call=meets,
                 check=couplings_check(meet_budget), digest=coupling_rows),
            Step("shift", p["shift_trials"], call=shifts, check=couplings_check(shift_budget),
                 digest=coupling_rows),
            Step("tv-profile", 0, call=tv, check=tv_check,
                 digest=lambda out: sha256_json([str(x) for x in out.result])),
        ],
    )


WORKLOADS = {
    "lattice-survey": lattice_survey,
    "strip-levels": strip_levels,
    "trial-batch": trial_batch,
}
