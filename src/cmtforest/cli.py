"""Batch front end: run experiment configs, print kernel condition
verdicts, and export level-set CSVs for plotting.

Exit codes are a stable contract: 0 success, 1 runtime probe failure,
2 config or schema error. Every output byte is a function of the config
plus the seed; there is no entropy default anywhere, so a run without a
seed (in the config or via --seed) is a config error.

Each model and probe is one row of MODELS or PROBES: its fields, each with a
kind (type and range) and a default, and how it samples or runs. Rows call the
library through this module's global names, so rebinding one (as span tracing
does) reaches every call.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

if __name__ == "__main__":  # the CLI is the program: set its process default before numpy loads
    from . import _cli_process
    _cli_process()

from . import wusf  # noqa: F401  (unused here; loaded so that span tracing finds it)
from .errors import ConfigError, CyclicComponent, Empty, _is_int
from .analysis import (
    SURVEY_STATISTICS, LatticeChainModel, ProbeReport, _config_digest,
    canopy_distinguishability_demo, cluster_frequency, component_statistic_survey,
    connectivity_decay_probe, count_components_probe, in_degree_profile, nested_level_average,
    one_endedness_probe, probe_csv, probe_json,
)
from .forest import coords, vertex
from .lattice import (
    JumpDistribution, check_model_conditions, even_sublattice, in_lattice, integer_lattice,
    sample_lattice_cmt, uniform_jumps,
)
from .models import (
    canopy_cmt, nguyen_atoms, nguyen_model, nguyen_variant, renewal_model, variant_atoms,
)
from .points import (
    StripConfig, discrete_strip, howard_model, level_csv, sample_poisson, strip_point_map,
)
from .seeds import derive_seed

_ROLE_MODEL = 0xC10
_ROLE_PROBE = 0xC11


class ProbeFailure(Exception):
    """A probe raised; the message names the probe and the error."""


# -- field kinds: (test, description) -----------------------------------------------

_REQUIRED = object()


def _is_num(v):
    return _is_int(v) or isinstance(v, float) and math.isfinite(v)


def _int(lo):
    return (lambda v: _is_int(v) and v >= lo), f"an integer >= {lo}"


def _list_of(test, text, min_len=0):
    return (lambda v: isinstance(v, list) and len(v) >= min_len and all(map(test, v))), text


def _choice(options):
    return (lambda v: v in options), "one of " + ", ".join(map(repr, options))


def _optional(kind):
    return (lambda v: v is None or kind[0](v)), f"{kind[1]}, or null"


def _box(coord, strict=False, axes=(1, None)):
    """[lo, hi] pairs, lo < hi when strict else lo <= hi, axes (min, max)."""
    def pair(p):
        return (isinstance(p, list) and len(p) == 2 and coord(p[0]) and coord(p[1])
                and (p[0] < p[1] or not strict and p[0] == p[1]))

    lo, hi = axes
    return (
        lambda v: _list_of(pair, "", lo)[0](v) and len(v) <= (hi or len(v)),
        f"a list of {lo if lo == hi else f'at least {lo}'} [lo, hi] pairs of "
        f"{'integers' if coord is _is_int else 'numbers'} with lo {'<' if strict else '<='} hi",
    )


_OBJECT = (lambda v: isinstance(v, dict)), "an object"
_STRING = (lambda v: isinstance(v, str)), "a string"
_INTS = _list_of(_is_int, "a non-empty list of integers", 1)
_VERTEX = (lambda v: _is_int(v) or _INTS[0](v)), "an integer or a list of integers"
_BOX = _box(_is_int)
_PROB = (lambda v: _is_num(v) and 0 < v <= 1), "a number in (0, 1]"
_KERNEL_FIELDS = {
    "support": (_list_of(_VERTEX[0], "a non-empty list of integers or lists of integers", 1),
                _REQUIRED),
    "weights": (_list_of(lambda w: _is_num(w) or isinstance(w, str),
                         "a list of numbers or fraction strings"), None),
    "box": (_BOX, _REQUIRED),
}


# -- models -------------------------------------------------------------------------


class Model(NamedTuple):
    fields: dict  # field -> (kind, default or _REQUIRED)
    build: Callable  # (checked model, seed) -> ForestWindow
    jumps: Callable = None  # checked model -> JumpDistribution, for kernel models
    levels: Callable = None  # (checked model, seed) -> levels.csv text, for point clouds


LATTICES = {"integer": lambda d: integer_lattice(d), "even": lambda d: even_sublattice(d)}


def _jump_law(m):
    """The jump law of support and weights, all atoms on the model's lattice."""
    if m["weights"] is None:
        jumps = uniform_jumps(m["support"])
    else:
        jumps = JumpDistribution(m["support"], tuple(str(w) for w in m["weights"]))
    name = m.get("lattice", "integer")
    lattice = LATTICES[name](jumps.dimension)
    for a in jumps.atoms:
        if not in_lattice(lattice, a):
            raise ValueError(f"atom {a} is not a point of the {name} lattice")
    return jumps


def _strip_window(m, seed):
    cloud = sample_poisson(m["intensity"], m["box"], seed)
    return cloud, strip_point_map(cloud, StripConfig(m["half_width"], m["time_axis"]))


MODELS = {
    "nguyen": Model({"dimension": (_int(2), _REQUIRED), "box": (_BOX, _REQUIRED)},
                    lambda m, s: nguyen_model(m["dimension"], m["box"], s),
                    jumps=lambda m: uniform_jumps(nguyen_atoms(m["dimension"]))),
    "variant": Model({"box": (_BOX, _REQUIRED)}, lambda m, s: nguyen_variant(m["box"], s),
                     jumps=lambda m: uniform_jumps(variant_atoms())),
    "renewal": Model(
        dict(_KERNEL_FIELDS, support=(_list_of(
            lambda a: _int(1)[0](a[0] if isinstance(a, list) and len(a) == 1 else a),
            "a non-empty list of positive integers", 1), _REQUIRED)),
        lambda m, s: renewal_model(m["jumps"], m["box"][0], s),
        jumps=_jump_law,
    ),
    "lattice": Model(
        dict(_KERNEL_FIELDS,
             lattice=(_choice(tuple(LATTICES)), "integer"),
             wrap=(_optional(_list_of(lambda n: n is None or _is_int(n) and n >= 1,
                                      "a list of positive integers or nulls")), None)),
        lambda m, s: sample_lattice_cmt(
            LATTICES[m["lattice"]](m["jumps"].dimension), m["jumps"], m["box"], s, wrap=m["wrap"]
        ),
        jumps=_jump_law,
    ),
    "strip": Model(
        {
            "intensity": (((lambda v: _is_num(v) and v >= 0), "a number >= 0"), _REQUIRED),
            "half_width": (((lambda v: _is_num(v) and v > 0), "a number > 0"), _REQUIRED),
            "box": (_box(_is_num, strict=True), _REQUIRED),
            "time_axis": (_int(0), 0),
        },
        lambda m, s: _strip_window(m, s)[1],
        levels=lambda m, s: level_csv(*_strip_window(m, s)),
    ),
    "discrete-strip": Model(
        {"p": (_PROB, _REQUIRED), "box": (_box(_is_int, axes=(2, 2)), _REQUIRED)},
        lambda m, s: discrete_strip(m["p"], m["box"], s)),
    "howard": Model(
        {"p": (_PROB, _REQUIRED), "box": (_box(_is_int, axes=(2, None)), _REQUIRED)},
        lambda m, s: howard_model(m["p"], m["box"], s)),
    "canopy": Model({"depth": (_int(1), _REQUIRED)}, lambda m, s: canopy_cmt(m["depth"], s)[0]),
}


# -- probes -------------------------------------------------------------------------


class Probe(NamedTuple):
    fields: dict  # field -> (kind, default or _REQUIRED)
    run: Callable  # (checked probe, checked model, window, seed) -> ProbeReport
    reads: str = None  # checked-model key the probe runs on instead of a sampled window
    chains: Callable = None  # checked probe -> whether it runs lockstep chains, which
                             # need a cycle-free, level-graded kernel


def _in_degree_report(forest):
    prof = in_degree_profile(forest)
    units = tuple(sorted(prof.histogram))
    return ProbeReport(
        probe="in-degree-profile",
        units=units,
        values=tuple(float(prof.histogram[k]) for k in units),
        half_widths=(0.0,) * len(units),
        trials=(prof.region_size,) * len(units),
        truncation_fraction=0.0,
        details={"mean": str(prof.mean), "region_size": prof.region_size},
    )


def _nested_parity(p, forest):
    start = p["start"]
    if start is None:  # the first interior row, or row 0 (argmax of no True): rows are sorted
        if not len(forest.coords):
            raise Empty("the window is empty: no vertex to start from")
        start = forest.verts[forest.is_interior.argmax()]
    else:  # an int is one coordinate
        start = start if isinstance(start, list) else [start]
        if len(start) != forest.coords.shape[1]:
            raise ConfigError(f"field 'start' has {len(start)} coordinates; "
                              f"the window's vertices have {forest.coords.shape[1]}")
        start = vertex(start)
    out = nested_level_average(forest, lambda v: coords(v)[0] % 2, start, p["n_max"])
    return ProbeReport(
        probe="nested-parity",
        units=tuple(a.n for a in out),
        values=tuple(a.value for a in out),
        half_widths=tuple(4 * 0.5 / math.sqrt(a.count) for a in out),
        trials=tuple(a.count for a in out),
        truncation_fraction=sum(a.truncated for a in out) / len(out) if out else 0.0,
        details={"start": str(start), "n_max": p["n_max"]},
    )


def _origin(p, m):
    d = m["jumps"].dimension
    if p["origin"] is not None and len(p["origin"]) != d:
        raise ConfigError(f"field 'origin' needs {d} coordinates, one per jump coordinate")
    return (0,) * d if p["origin"] is None else tuple(p["origin"])


PROBES = {
    "in-degree-profile": Probe({}, lambda p, m, w, s: _in_degree_report(w)),
    "component-survey": Probe(
        {"statistic": (_choice(SURVEY_STATISTICS), "leaf-fraction"), "min_size": (_int(1), 1)},
        lambda p, m, w, s: component_statistic_survey(w, p["statistic"], p["min_size"]),
    ),
    "cluster-frequency": Probe(
        {"component_id": (_int(0), 0), "walk_steps": (_int(100), 10000)},
        lambda p, m, w, s: cluster_frequency(w, p["component_id"], p["walk_steps"], s),
    ),
    "nested-parity": Probe(
        {"start": (_optional(_VERTEX), None), "n_max": (_int(0), 8)},
        lambda p, m, w, s: _nested_parity(p, w),
    ),
    "connectivity-decay": Probe(
        {"origin": (_optional(_INTS), None),
         "distances": (_list_of(_int(0)[0], "a list of integers >= 0"), (1, 2, 3)),
         "trials": (_int(1), 200), "budget": (_int(0), 2000)},
        lambda p, m, w, s: connectivity_decay_probe(m["jumps"], _origin(p, m), p["distances"],
                                                    p["trials"], p["budget"], s),
        reads="jumps", chains=lambda p: True,
    ),
    "count-components": Probe(
        {"k": (_int(1), 2), "budget": (_int(0), 2000), "trials": (_int(1), 200)},
        lambda p, m, w, s: count_components_probe(m["jumps"], p["k"], p["budget"], p["trials"], s),
        reads="jumps", chains=lambda p: p["k"] > 1,  # one chain is one component
    ),
    "one-endedness": Probe(
        {"n_list": (_list_of(_int(0)[0], "a list of integers >= 0"), (10, 50)),
         "trials": (_int(1), 400)},
        lambda p, m, w, s: one_endedness_probe(m["jumps"], p["n_list"], p["trials"], s),
        reads="jumps",
    ),
    "canopy-demo": Probe(
        {}, lambda p, m, w, s: canopy_distinguishability_demo(m["depth"], s), reads="depth"
    ),
}


# -- validation ---------------------------------------------------------------------


def _get(block, field, kind, label):
    if field not in block:
        raise ConfigError(f"missing field '{label}'")
    if not kind[0](block[field]):
        raise ConfigError(f"field '{label}' must be {kind[1]}")
    return block[field]


def _checked(block, fields, where=""):
    """The values of one block's fields, defaults filled in."""
    return {f: _get(block, f, kind, where + f) if default is _REQUIRED or f in block else default
            for f, (kind, default) in fields.items()}


def _validate(raw, seed_override, fields):
    """Checked values of the model block, the seed and the top-level fields."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    block = _get(raw, "model", _OBJECT, "model")
    name = _get(block, "model", _STRING, "model.model")
    if name not in MODELS:
        raise ConfigError(f"unknown model '{name}'")
    entry = MODELS[name]
    model = _checked(block, entry.fields, "model.")
    if entry.jumps is not None:
        try:
            model["jumps"] = entry.jumps(model)
        except ValueError as e:
            raise ConfigError(f"fields 'model.support' and 'model.weights': {e}")
        if len(model["box"]) != model["jumps"].dimension:
            raise ConfigError(f"field 'model.box' needs {model['jumps'].dimension} axes, "
                              "one per jump coordinate")
    seed = raw.get("seed") if seed_override is None else seed_override
    if not _is_int(seed):
        raise ConfigError("field 'seed' must be an integer; there is no entropy default, "
                          "so set it in the config or pass --seed")
    return dict(_checked(raw, fields), name=name, model=model, seed=seed)


def _validate_run(raw, seed_override):
    """_validate plus each probe's checked values. The config digest is
    taken over the raw config, never over these."""
    run = _validate(raw, seed_override, {"replicates": (_int(1), 1), "out_dir": (_STRING, ".")})
    run["probes"] = []
    specs = _get(raw, "probes", _list_of(_OBJECT[0], "a list of objects"), "probes")
    for i, spec in enumerate(specs):
        pname = _get(spec, "probe", _STRING, f"probes[{i}].probe")
        if pname not in PROBES:
            raise ConfigError(f"unknown probe '{pname}'")
        entry = PROBES[pname]
        if entry.reads is not None and entry.reads not in run["model"]:
            raise ConfigError(f"probe '{pname}' needs the {entry.reads} of its model, "
                              f"which '{run['name']}' does not have")
        params = _checked(spec, entry.fields, f"probes[{i}].")
        run["probes"].append((pname, params))
        if entry.chains is not None and entry.chains(params):
            try:
                LatticeChainModel(run["model"]["jumps"])
            except (ConfigError, CyclicComponent) as e:
                raise ConfigError(f"field 'probes[{i}].probe': '{pname}' cannot run on "
                                  f"the kernel of '{run['name']}': {e}")
    return run


def _load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {str(path)!r}: {e.strerror or e}")
    except UnicodeDecodeError:
        raise ConfigError(f"config {str(path)!r} is not UTF-8 text")
    if not text.strip():
        return {}
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON: {e}")


# -- commands -----------------------------------------------------------------------


def _replicate_artifacts(run, rep):
    """All (filename, text) artifacts of one replicate."""
    seed, model = run["seed"], run["model"]
    model_seed = derive_seed(seed, _ROLE_MODEL, rep)
    needs_window = any(PROBES[p].reads is None for p, _ in run["probes"])
    forest = MODELS[run["name"]].build(model, model_seed) if needs_window else None
    files = []
    for i, (pname, params) in enumerate(run["probes"]):
        probe_seed = derive_seed(seed, _ROLE_PROBE, rep, i)
        try:
            report = PROBES[pname].run(params, model, forest, probe_seed)
        except ConfigError:
            raise
        except Exception as e:
            raise ProbeFailure(f"probe '{pname}' failed: {type(e).__name__}: {e}")
        stem = f"{i:02d}-{pname}-r{rep:03d}"
        files.append((f"{stem}.csv", probe_csv(report)))
        files.append((f"{stem}.json", probe_json(report) + "\n"))
    return files


def _cmd_run(args):
    raw = _load_json(args.config)
    run = _validate_run(raw, args.seed)
    out_dir = Path(args.out_dir or run["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    # no more workers than replicates, and no pool for one worker
    workers = min(args.threads, run["replicates"])

    reps = range(run["replicates"])
    try:
        if workers == 1:
            batches = [_replicate_artifacts(run, r) for r in reps]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                batches = list(pool.map(lambda r: _replicate_artifacts(run, r), reps))
    except ConfigError:
        raise
    except ProbeFailure as e:
        print(e, file=sys.stderr)
        return 1
    except Exception as e:
        print(f"model build failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1

    files = [f for batch in batches for f in batch]
    digest = _config_digest(dict(raw, seed=run["seed"], replicates=run["replicates"]))[:16]
    manifest = [f"config-hash: {digest}"]
    for fname, text in sorted(files):
        (out_dir / fname).write_text(text)
        sha = hashlib.sha256(text.encode()).hexdigest()
        manifest.append(f"{sha}  {fname}")
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n")
    print(f"manifest {out_dir / 'manifest.txt'}")
    return 0


def _cmd_check_kernel(args):
    support = []
    for part in args.support.split(";"):
        if part.strip():
            try:
                support.append([int(c) for c in part.split(",")])
            except ValueError:
                raise ConfigError(f"bad atom '{part.strip()}' in --support")
    if not support:
        raise ConfigError("--support lists no atoms")
    weights = [w.strip() for w in args.weights.split(",")] if args.weights else None
    try:
        jumps = _jump_law({"support": support, "weights": weights, "lattice": args.lattice})
    except ValueError as e:
        raise ConfigError(f"bad --support or --weights: {e}")
    report = check_model_conditions(jumps, LATTICES[args.lattice](jumps.dimension))
    for cond in ("cycle_free", "weakly_irreducible", "weakly_aperiodic"):
        print(f"{cond}: {str(getattr(report, cond)).lower()}")
    for cond, witness in sorted(report.witnesses.items()):
        if witness is not None:
            print(f"witness {cond}: {witness}")
    return 0


def _cmd_export_levels(args):
    raw = _load_json(args.config)
    run = _validate(raw, args.seed, {"levels": (_optional(_int(1)), None),
                                     "out_dir": (_STRING, ".")})
    export = MODELS[run["name"]].levels
    if export is None:
        clouds = ", ".join(n for n, e in MODELS.items() if e.levels is not None)
        raise ConfigError(f"export-levels needs a point-cloud model ({clouds}), "
                          f"not '{run['name']}'")
    text = export(run["model"], run["seed"])
    if run["levels"] is not None:
        head, *rows = text.strip().split("\n")
        kept = [row for row in rows if int(row.split(",")[3]) < run["levels"]]
        text = "\n".join([head, *kept]) + "\n"
    out_dir = Path(args.out_dir or run["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "levels.csv"
    path.write_text(text)
    print(f"wrote {path}")
    return 0


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"needs an integer >= 1, not {text!r}")
    return n


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cmtforest",
        description="Sample coalescing-trajectory forests and run statistical probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("config")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out-dir", default=None)
    run.add_argument("--threads", type=_positive_int, default=1)
    run.set_defaults(func=_cmd_run)

    ck = sub.add_parser("check-kernel", help="print kernel condition verdicts")
    ck.add_argument("--support", required=True, help="atoms, e.g. '1,-1;-1,-1'")
    ck.add_argument("--weights", default=None, help="comma-separated weights")
    ck.add_argument("--lattice", default="integer", choices=tuple(LATTICES))
    ck.set_defaults(func=_cmd_check_kernel)

    ex = sub.add_parser("export-levels", help="CSV of point, level index, component")
    ex.add_argument("config")
    ex.add_argument("--seed", type=int, default=None)
    ex.add_argument("--out-dir", default=None)
    ex.set_defaults(func=_cmd_export_levels)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
