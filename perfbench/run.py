"""cmtforest benchmark: one seeded workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload lattice-survey --seed 1 --seconds 40 --trace 0

Run from a source checkout; the program under test is ``src/cmtforest``,
imported from source (no install step). The seed fixes every input. The
workload's steps run as passes, back to back, until ``--seconds`` is used
up (at least three passes); every figure is the median over passes. Each
pass's outputs are checked, and a step whose exit code, invariant or golden
digest is wrong counts as failed. ``golden.json`` holds the digests at the
default seed; when a change alters the outputs on purpose, copy the new ones
by hand from the ``digests`` field of the seed-1 results file.

``--trace 0`` runs each CLI step as its own ``python -m cmtforest.cli``
process, as a user runs it, and reports the end-to-end metrics:

- ``setup_s``: a fresh interpreter until ``import cmtforest.cli`` is done,
  plus writing the workload inputs; sampled three times before every pass.
- ``cpu_s``: the median over passes of the CPU time (user plus system) that
  the pass's processes used, this one and its children. On a shared virtual
  machine the wall time of a pass drifts by a fifth or more over minutes,
  as other tenants come and go (seen on a 2-vCPU Xeon VM); time spent
  waiting for a CPU is not CPU time, so this figure stays steady where
  wall seconds do not.
- ``items_per_cpu_s``: items per pass over ``cpu_s``; the item is stated
  per workload.
- ``peak_rss_mb``: peak RSS of the largest process, this one or a child.
- ``fanout_speedup``: total time of the ``--threads 1`` runs over total
  time of the same runs at ``--threads nproc``, over all passes (a ratio
  of sums, which is steadier than a median of per-pass ratios).

The pass wall time ``wall_s``, from the first step's start to the last
step's end, and ``items_per_s`` are printed and recorded too. The error
rate is ``failed / attempted`` in the last line.

``--trace 1`` runs the same steps in this process, through
``cmtforest.cli.main(argv)`` at ``--threads 1``, alternating an untraced
pass and a pass with the public functions of every module wrapped in
spans, and reports per-layer self times, call counts, window counters and
the tracing overhead.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record,
with the machine, goes to ``.perfbench_out/results/``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import monotonic, perf_counter

from spans import TRACED, Tracer, instrument
from workloads import (DEFAULT_SEED, SIZES, WORKLOADS, Outcome, chain_trial_counts,
                       manifest_problems)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

SETUP_PER_PASS = 3
IMPORT_REPEATS = 3
MIN_PASSES = 3
STEP_TIMEOUT_S = 120

# The probes print their own clock when the imports are done. CLOCK_MONOTONIC
# is shared by all processes, so the parent can subtract its spawn time.
SETUP_PROBE = "import time, cmtforest.cli; print(time.monotonic())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cmtforest.cli; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "items_per_cpu_s": "items/cpu-s",
    "peak_rss_mb": "MB",
    "fanout_speedup": "ratio",
}

# Printed and recorded, but not in BENCHMARK.json: on a shared machine
# whose speed drifts they spread too widely from run to run.
RAW_UNITS = {"wall_s": "s", "items_per_s": "items/s"}

CALL_COUNTS = (
    "cli.main",
    "forest.components",
    "forest.reverse_jump",
    "forest.height",
    "chains.meet_and_stick_coupling",
    "chains.shift_coupling",
    "wusf.wilson_ust",
    "seeds.rng_for",
    "seeds.derive_seed",
)

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "wusf.networkx_import_s": "s",
    **{f"{name}.self_s": "s" for name in TRACED},
    **{f"{name}.calls": "count" for name in CALL_COUNTS},
    "forest.window_vertices": "count",
    "forest.window_exits": "count",
    "forest.interior_frac": "ratio",
    "forest.component_count": "count",
    "forest.cyclic_component_count": "count",
    "points.cloud_points": "count",
    "analysis.chain_resolved_frac": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def median(values):
    return statistics.median(values) if values else 0.0


# -- set-up ---------------------------------------------------------------------


def start_seconds(env, probe):
    """A fresh interpreter's start plus the imports of a probe."""
    spawned = monotonic()
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    return float(out.stdout.split()[-1]) - spawned


def setup_seconds(plan, work, env):
    imported = start_seconds(env, SETUP_PROBE)
    t = perf_counter()
    plan.write_inputs(work)
    return imported + perf_counter() - t


def measure_imports(env):
    """(import cmtforest.cli, cumulative networkx import) in seconds, as
    medians over fresh interpreters. ``-X importtime`` logs every module it
    loads, which slows the import, so it is used only for networkx's share."""
    cli_s, nx_s = [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
        cli_s.append(float(out.stdout.split()[-1]))
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                             env=env, check=True, capture_output=True, text=True,
                             timeout=STEP_TIMEOUT_S)
        for line in out.stderr.splitlines():
            fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
            if len(fields) == 3 and fields[2] == "networkx":
                nx_s.append(int(fields[1]) / 1e6)
    return median(cli_s), median(nx_s)


# -- passes ---------------------------------------------------------------------


def out_dir(step):
    return Path(step.argv[step.argv.index("--out-dir") + 1]) if step.is_cli else None


def execute(step, env, in_process):
    """Run one step; failures become an Outcome, never an exception."""
    out = Outcome(out_dir=out_dir(step))
    try:
        if not step.is_cli:
            out.result = step.call()
        elif in_process:
            import cmtforest.cli

            with contextlib.redirect_stdout(io.StringIO()):
                out.returncode = cmtforest.cli.main(list(step.argv))
        else:
            proc = subprocess.run([sys.executable, "-m", "cmtforest.cli", *step.argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=STEP_TIMEOUT_S)
            out.returncode = proc.returncode
            out.error = proc.stderr.strip()[-500:] if proc.returncode else ""
    except subprocess.TimeoutExpired:
        out.returncode, out.error = -1, f"timed out after {STEP_TIMEOUT_S} s"
    except Exception:  # the step failed; count it and keep measuring
        out.returncode, out.error = -1, traceback.format_exc(limit=3)[-500:]
    return out


def cpu_seconds():
    """CPU time of this process and of its children that have been waited for."""
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_pass(steps, env, in_process, tracer=None):
    """(wall seconds, CPU seconds, {step: wall seconds}, {step: Outcome})
    for one pass."""
    for step in steps:
        if step.is_cli:
            shutil.rmtree(out_dir(step), ignore_errors=True)
    times, outcomes = {}, {}
    first, first_cpu = perf_counter(), cpu_seconds()
    for step in steps:
        if tracer is not None:
            tracer.op = step.name
        t = perf_counter()
        outcomes[step.name] = execute(step, env, in_process)
        times[step.name] = perf_counter() - t
    return perf_counter() - first, cpu_seconds() - first_cpu, times, outcomes


def pass_order(steps, pass_no):
    """Odd passes run each --threads nproc twin before its --threads 1 step,
    so that a steady drift of the machine's speed cancels in the fan-out
    ratio."""
    order = list(steps)
    if pass_no % 2:
        for i, step in enumerate(order):
            if step.twin:
                j = next(k for k, s in enumerate(order) if s.name == step.twin)
                order[i], order[j] = order[j], order[i]
    return order


def step_problems(step, out, outcomes, golden, digests):
    if out.returncode != 0 or out.error:
        return [f"exit {out.returncode}: {out.error}"]
    problems = []
    try:
        if step.is_cli and step.argv[0] == "run":
            problems += manifest_problems(out)
        if step.check:
            problems += step.check(out)
        if step.twin:
            twin_dir = outcomes[step.twin].out_dir
            names = sorted(p.name for p in twin_dir.iterdir())
            if names != sorted(p.name for p in out.out_dir.iterdir()) or any(
                    (twin_dir / n).read_bytes() != (out.out_dir / n).read_bytes() for n in names):
                problems.append(f"output bytes differ from {step.twin}")
        if step.digest:
            digests[step.name] = step.digest(out)
            if golden is not None and golden.get(step.name) != digests[step.name]:
                problems.append(f"digest {digests[step.name]} is not the golden one")
    except Exception:  # a malformed output is a failed step
        problems.append("check failed: " + traceback.format_exc(limit=2)[-300:])
    return problems


def check_pass(steps, outcomes, golden, digests, failures, label):
    """Record each failed step of a pass under "<label> <step>"."""
    for step in steps:
        problems = step_problems(step, outcomes[step.name], outcomes, golden, digests)
        if problems:
            failures[f"{label} {step.name}"] = problems


def keep_going(passes, started, seconds, pass_cost):
    """Another pass fits in the run, or too few have run yet."""
    if passes < MIN_PASSES:
        return True
    return perf_counter() - started + pass_cost <= seconds


# -- the two kinds of run -------------------------------------------------------


def timed_run(plan, work, env, args, golden, digests, failures):
    walls, cpus, step_times = [], [], {s.name: [] for s in plan.steps}
    setup = []
    started = perf_counter()
    cost = 0.0
    while keep_going(len(walls), started, args.seconds, cost):
        t = perf_counter()
        # Set-up samples are spread over the run, next to the passes, so
        # that they see the same spells of a drifting machine.
        setup += [setup_seconds(plan, work, env) for _ in range(SETUP_PER_PASS)]
        wall, cpu, times, outcomes = run_pass(pass_order(plan.steps, len(walls)), env,
                                              in_process=False)
        check_pass(plan.steps, outcomes, golden, digests, failures, f"pass {len(walls)}")
        cost = max(cost, perf_counter() - t)
        walls.append(wall)
        cpus.append(cpu)
        for name, seconds in times.items():
            step_times[name].append(seconds)
    pooled = [s for s in plan.steps if s.twin]
    items = sum(s.items for s in plan.steps)
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {
        "setup_s": median(setup),
        "cpu_s": median(cpus),
        "items_per_cpu_s": items / median(cpus),
        "peak_rss_mb": rss_kb / 1024,
        "fanout_speedup": sum(sum(step_times[s.twin]) for s in pooled)
        / sum(sum(step_times[s.name]) for s in pooled),
    }
    raw = {"wall_s": median(walls), "items_per_s": median([items / w for w in walls])}
    extra = {"raw": raw, "passes": len(walls), "walls": walls, "cpus": cpus,
             "setup_samples_s": setup, "items_per_pass": items, "step_s": step_times}
    return metrics, len(walls) * len(plan.steps), extra


def window_counters(tracer):
    from cmtforest.forest import components

    windows = tracer.results["forest.build_forest"]
    comps = [components(w) for w in windows]
    vertices = sum(len(w.vertices) for w in windows)
    return {
        "forest.window_vertices": vertices,
        "forest.window_exits": sum(len(w.exits) for w in windows),
        "forest.interior_frac": sum(len(w.interior) for w in windows) / vertices if vertices else 0.0,
        "forest.component_count": sum(len(c) for c in comps),
        "forest.cyclic_component_count": sum(x.cycle_count for c in comps for x in c),
        "points.cloud_points": sum(len(c) for c in tracer.results["points.sample_poisson"]),
    }


def traced_run(plan, work, env, args, golden, digests, failures):
    import cmtforest.cli  # noqa: F401  (loads every module before rebinding)

    steps = [s for s in plan.steps if s.twin is None]
    plain_walls, traced_walls, summaries, tracers = [], [], [], []
    counters = None
    started = perf_counter()
    cli_import_s, nx_import_s = measure_imports(env)
    cost = 0.0
    while keep_going(len(traced_walls), started, args.seconds, cost):
        t = perf_counter()
        wall, _, _, outcomes = run_pass(steps, env, in_process=True)
        check_pass(steps, outcomes, golden, digests, failures, f"untraced pass {len(plain_walls)}")
        plain_walls.append(wall)

        tracer = Tracer()
        with instrument(tracer):
            wall, _, times, outcomes = run_pass(steps, env, in_process=True, tracer=tracer)
        check_pass(steps, outcomes, golden, digests, failures, f"traced pass {len(traced_walls)}")
        traced_walls.append(wall)
        # Self times sum to the root spans' total, which lies inside the wall
        # by construction; tracer.problems() checks what can go wrong.
        problems = tracer.problems(times)
        self_sum = sum(tracer.self_times())
        if self_sum > wall:
            problems.append(f"self times sum to {self_sum} s, over the traced wall {wall} s")
        if problems:
            failures[f"traced pass {len(traced_walls) - 1} spans"] = problems[:5]
        if counters is None:
            counters = window_counters(tracer)
        tracer.results.clear()
        summaries.append(tracer.summary())
        tracers.append(tracer)
        cost = max(cost, perf_counter() - t)

    merged, attempted = chain_trial_counts([out_dir(s) for s in steps if s.is_cli])
    metrics = {"cli.import_s": cli_import_s, "wusf.networkx_import_s": nx_import_s}
    for name in TRACED:
        metrics[f"{name}.self_s"] = median([s[name][1] for s in summaries])
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = summaries[0][name][0]
    metrics.update(counters)
    metrics["analysis.chain_resolved_frac"] = merged / attempted if attempted else 0.0
    metrics["trace.wall_s"] = median(traced_walls)
    metrics["trace.untraced_wall_s"] = median(plain_walls)
    metrics["trace.overhead_s"] = median([a - b for a, b in zip(traced_walls, plain_walls)])
    extra = {"passes": len(traced_walls), "traced_walls": traced_walls,
             "untraced_walls": plain_walls, "tracers": tracers}
    return metrics, 2 * len(traced_walls) * len(steps), extra


# -- machine and results --------------------------------------------------------


def machine():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True, timeout=30).stdout.strip()
    versions = {}
    for dist in ("numpy", "networkx"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "cmtforest").glob("*.py"))),
    }


def write_spans(path, tracers):
    with path.open("w") as fh:
        fh.write("pass,op,span,name,start_s,end_s,parent\n")
        for pass_no, tracer in enumerate(tracers):
            for i, (name, start, end, parent, op) in enumerate(tracer.spans):
                fh.write(f"{pass_no},{op},{i},{name},{start!r},{end!r},{parent}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "cmtforest" / "cli.py").is_file():
        print(f"no cmtforest sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = child_env()
    nproc = len(os.sched_getaffinity(0))
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = WORKLOADS[args.workload](args.seed, args.size, work, nproc)

    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text()).get(args.size, {}).get(args.workload, {})
    digests, failures = {}, {}

    plan.write_inputs(work)
    start_seconds(env, SETUP_PROBE)  # fills the bytecode cache, as any earlier use would
    run = traced_run if args.trace else timed_run
    metrics, attempted, extra = run(plan, work, env, args, golden, digests, failures)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = len(failures)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    tracers = extra.pop("tracers", [])
    if tracers:
        write_spans(results / f"{stem}-spans.csv", tracers)
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "machine": machine(),
        "items": plan.item_label, "digests": digests,
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": metrics, **extra,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for key in ("cpu", "nproc", "python", "numpy", "networkx", "git_sha", "src_lines"):
        print(f"machine {key}: {record['machine'][key]}")
    print(f"workload {args.workload} ({args.size}, seed {args.seed}): "
          f"{extra['passes']} passes; an item is {plan.item_label}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    for name, value in extra.get("raw", {}).items():
        print(f"{name} {value} {RAW_UNITS[name]}")
    print(f"error_rate {failed / attempted} ratio ({failed} of {attempted} operations failed)")
    for where, problems in list(failures.items())[:20]:
        print(f"FAILED {where}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
