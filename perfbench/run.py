"""Run one coopgrid benchmark workload, check its outputs, print its metrics.

From the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics with tracing off.  Both
timings are taken at the reference speed (see ``speed.py``), which
removes most of the drift of a shared machine's speed:

* ``setup_s``: median over fresh interpreters of the time to import
  coopgrid, build the workload's scenarios and validate them, each scaled
  by the reference work timed in the same interpreter right after;
* ``run_s``: median time of one repetition, which is ``sim.run`` plus
  ``report.write_reports`` for every world of the workload, timed slice
  by slice by a ``speed.Pacer``; repetitions are repeated for
  ``--seconds`` (at least one is always made), and every one that returns
  is a sample, whether or not its outputs pass the checks.  The summary
  line has the sample count and the plain wall-time median;
* ``peak_rss_mb``: peak resident memory of this process plus the largest
  of its waited-for child processes, read before the set-up probes start.

``--trace 1`` makes one untraced and one traced repetition and reports
the per-layer metrics derived from the spans (see ``tracing.py``).  It
fails loudly when a layer the workload must exercise recorded no calls,
or when the layers' self times do not add up to the traced run time.

Every repetition is checked (``checks.py``), and report digests must be
identical across repetitions and across runs of the same inputs in this
checkout.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the run context, the samples and ``error_rate``.
OpenBLAS is held to one thread (see below).
Reports, spans and per-run records are written under ``perfbench/out/``.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

# One BLAS thread, for this process and the set-up probes it starts: the
# program's matrix products are far below OpenBLAS's threading threshold,
# and starting its thread pool at import adds a varying ~0.1 s to setup_s.
# It must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy  # noqa: E402

import checks
from speed import Pacer, at_reference_speed
from tracing import END, LAYERS, NAME, PARENT, START, CoverageError, Tracer
from workloads import (DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, build_worlds,
                       import_coopgrid, sim_config)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BASELINE = ROOT / "tests" / "data" / "baseline_reference.json"
DECLARED = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 11
SELF_TIME_TOLERANCE = 0.05


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def repetition(coopgrid, worlds, config, out_dir: Path):
    """The timed unit: run and report every world once."""
    traces, manifests = [], []
    cpu0, start = cpu_seconds(), time.perf_counter()
    for label, world in worlds:
        trace = coopgrid.sim.run(world, config)
        manifests.append(coopgrid.report.write_reports(
            [trace], out_dir / label, scenario_source=label))
        traces.append(trace)
    return time.perf_counter() - start, cpu_seconds() - cpu0, traces, manifests


def attempt(coopgrid, worlds, config, baseline, out_dir, session=None):
    """One checked repetition.

    Returns ``(wall_s, cpu_s, problems, digests)``; ``wall_s`` is None when
    the program raised.  ``session`` wraps only the timed part.
    """
    try:
        with session or contextlib.nullcontext():
            wall, cpu, traces, manifests = repetition(coopgrid, worlds, config, out_dir)
    except Exception:
        return None, None, [traceback.format_exc()], None
    problems = []
    for (label, world), trace in zip(worlds, traces):
        problems += [f"{label}: {p}"
                     for p in checks.check_trace(world, trace, config.loss_weight)]
    if baseline is not None:
        problems += checks.check_baseline(coopgrid.report, traces[0], baseline)
    return wall, cpu, problems, [m.digests for m in manifests]


class Attempts:
    """Tallies checked repetitions; digests must agree across all of them."""

    def __init__(self, key: str):
        self.key = key
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests = None

    def add(self, wall, problems, digests) -> None:
        self.attempted += 1
        if digests is not None:
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems = problems + ["report digests differ between repetitions"]
        self.problems += problems
        self.failed += wall is None or bool(problems)

    def compare_with_record(self) -> None:
        """Outputs of the same inputs must also match earlier runs in this checkout."""
        if self.digests is None:
            return
        path = OUT / "digests.json"
        record = json.loads(path.read_text()) if path.exists() else {}
        if self.key not in record:
            record[self.key] = self.digests
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
            os.replace(tmp, path)
        elif record[self.key] != self.digests:
            self.problems.append("report digests differ from an earlier run of the same inputs")
            self.failed = self.attempted


def measure(coopgrid, workload, seed, seconds, baseline):
    """End-to-end metrics with tracing off."""
    worlds = build_worlds(coopgrid, workload, seed)
    config = sim_config(coopgrid, workload)
    tally = Attempts(workload.params(seed))
    pacer = Pacer()
    start = time.perf_counter()
    while True:
        wall, _, problems, digests = attempt(coopgrid, worlds, config, baseline,
                                             OUT / workload.name, session=pacer.timed())
        tally.add(wall, problems, digests)
        # start another repetition only if it should end within the budget
        last = pacer.samples[-1][0] if wall is not None else time.perf_counter() - start
        if time.perf_counter() + last > start + seconds:
            break
    tally.compare_with_record()
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    probes = [tuple(map(float, subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), str(ROOT), workload.name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True).stdout.split()[-2:]))
        for _ in range(SETUP_SAMPLES)]
    setup = [at_reference_speed(wall, reference) for wall, reference in probes]
    samples = [scaled for _, scaled in pacer.samples]
    walls = [wall for wall, _ in pacer.samples]
    metrics = {}
    if samples:
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "run_s": (statistics.median(samples), "s"),
                   "peak_rss_mb": (usage / 1024.0, "MiB")}
    details = {"run_s_count": len(samples), "run_s_samples": samples,
               "run_s_wall_median": statistics.median(walls) if walls else None,
               "reference_s_median": statistics.median(pacer.references),
               "setup_s_samples": setup,
               "setup_s_wall_median": statistics.median(wall for wall, _ in probes)}
    return tally, metrics, details


class LayerProbe:
    """Counters kept at layer boundaries through tracer hooks."""

    def __init__(self):
        self.tracer = Tracer(hooks={
            "lp.solve_lp": self._solve_lp,
            "dispatch.coalition_value": self._coalition_value,
            "dispatch.solve_individual_dispatch": self._individual,
            "game.characteristic_function": self._sweep,
            "sim.step": self._step,
        })
        self.lp_vars: list[int] = []
        self.lp_rows: list[int] = []
        self.non_optimal = 0
        self.pricings: Counter = Counter()  # (step span, members) -> solves
        self.steps: dict[int, tuple] = {}   # step span -> (run span, step, partition)
        self.sweeps: list[tuple] = []       # (step span, characteristic function)

    def _solve_lp(self, span, args, kwargs, result):
        program = args[0] if args else kwargs["problem"]
        self.lp_vars.append(program.n_vars)
        self.lp_rows.append(len(program.eq_rhs) + len(program.ub_rhs))
        self.non_optimal += result.status.value != "optimal"

    def _coalition_value(self, span, args, kwargs, result):
        self.pricings[(self.tracer.enclosing("sim.step"), result[1].members)] += 1

    def _individual(self, span, args, kwargs, result):
        self.pricings[(self.tracer.enclosing("sim.step"), result.members)] += 1

    def _sweep(self, span, args, kwargs, result):
        self.sweeps.append((self.tracer.enclosing("sim.step"), result))

    def _step(self, span, args, kwargs, result):
        res = result[0]
        self.steps[span] = (self.tracer.enclosing("sim.run"), res.step, res.partition)

    def greedy_gaps(self, formation) -> list[dict]:
        """Greedy partition cost minus the optimal structure's, per re-forming step."""
        gaps = []
        for step_span, cf in self.sweeps:
            run_span, k, partition = self.steps[step_span]
            greedy = formation.structure_value(partition, cf).value
            best = formation.optimal_structure(cf).value
            gaps.append({"run_span": run_span, "step": k, "greedy": greedy,
                         "optimal": best, "gap": greedy - best})
        return gaps


def layer_metrics(probe, first_run_span, traced_wall, traced_cpu, untraced_wall,
                  report_bytes, gaps) -> dict:
    spans = probe.tracer.spans
    own = probe.tracer.self_times()
    durations = defaultdict(list)
    own_by_name = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    load = 0.0
    block_pricings = 0
    for i, row in enumerate(spans):
        duration = row[END] - row[START]
        if i < first_run_span:
            load += duration if row[PARENT] < 0 else 0.0
            continue
        durations[row[NAME]].append(duration)
        own_by_name[row[NAME]] += own[i]
        layer_self[row[NAME].split(".")[0]] += own[i]
        if (row[NAME] == "dispatch.coalition_value" and row[PARENT] >= 0
                and spans[row[PARENT]][NAME] == "sim.step"):
            block_pricings += 1

    def calls(*names):
        return sum(len(durations[n]) for n in names)

    def total(*names):
        return sum(sum(durations[n]) for n in names)

    steps = list(probe.steps.values())
    blocks = sum(len(p.blocks) for _, _, p in steps)
    agents = sum(len(p.agents) for _, _, p in steps)
    self_sum = sum(layer_self.values())
    metrics = {
        "scenario.load_s": (load, "s"),
        "scenario.slice_calls": (calls("scenario.slice_horizon"), "count"),
        "scenario.slice_s": (total("scenario.slice_horizon"), "s"),
        "lp.solves": (calls("lp.solve_lp"), "count"),
        "lp.solve_s": (total("lp.solve_lp"), "s"),
        "lp.solve_ms_p50": (1e3 * percentile(durations["lp.solve_lp"], 0.50), "ms"),
        "lp.solve_ms_p99": (1e3 * percentile(durations["lp.solve_lp"], 0.99), "ms"),
        "lp.vars_mean": (statistics.fmean(probe.lp_vars) if probe.lp_vars else 0.0, "count"),
        "lp.constraints_mean": (statistics.fmean(probe.lp_rows) if probe.lp_rows else 0.0,
                                "count"),
        "lp.non_optimal": (probe.non_optimal, "count"),
        "dispatch.coalition_value_calls": (calls("dispatch.coalition_value"), "count"),
        "dispatch.coalition_value_self_s": (own_by_name["dispatch.coalition_value"], "s"),
        "dispatch.build_lp_calls": (calls("dispatch.build_individual_lp",
                                          "dispatch.build_coalition_lp"), "count"),
        "dispatch.build_lp_s": (total("dispatch.build_individual_lp",
                                      "dispatch.build_coalition_lp"), "s"),
        "dispatch.individual_solves": (calls("dispatch.solve_individual_dispatch"), "count"),
        "dispatch.pricings": (sum(probe.pricings.values()), "count"),
        "dispatch.repeat_pricings": (sum(c > 1 for c in probe.pricings.values()), "count"),
        "game.sweeps": (calls("game.characteristic_function"), "count"),
        "game.sweep_s": (total("game.characteristic_function"), "s"),
        "game.payoff_map_s": (total("game.payoff_map"), "s"),
        "game.shapley_calls": (calls("game.shapley_value"), "count"),
        "formation.form_calls": (calls("formation.form_partition"), "count"),
        "formation.form_s": (total("formation.form_partition"), "s"),
        "formation.mean_block_size": (agents / blocks if blocks else 0.0, "count"),
        "formation.greedy_gap_max": (max((g["gap"] for g in gaps), default=0.0), "CU"),
        "sim.steps": (calls("sim.step"), "count"),
        "sim.step_ms_p50": (1e3 * percentile(durations["sim.step"], 0.50), "ms"),
        "sim.step_ms_max": (1e3 * max(durations["sim.step"], default=0.0), "ms"),
        "sim.block_pricings": (block_pricings, "count"),
        "sim.settle_calls": (calls("sim.settle_step"), "count"),
        "sim.settle_s": (total("sim.settle_step"), "s"),
        "sim.cpu_s": (traced_cpu, "s"),
        "report.writes": (calls("report.write_reports"), "count"),
        "report.write_s": (total("report.write_reports"), "s"),
        "report.bytes": (report_bytes, "bytes"),
        "trace.run_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.self_share": (self_sum / traced_wall, "ratio"),
        "trace.spans": (len(spans) - first_run_span, "count"),
    }
    metrics.update({f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS})
    return metrics


def trace_layers(coopgrid, workload, seed, baseline):
    """Per-layer metrics from one traced repetition, next to an untraced one."""
    probe = LayerProbe()
    tracer = probe.tracer
    with tracer.session():
        worlds = build_worlds(coopgrid, workload, seed)
    first_run_span = len(tracer.spans)
    config = sim_config(coopgrid, workload)
    out_dir = OUT / workload.name
    tally = Attempts(workload.params(seed))
    untraced_wall, _, problems, digests = attempt(coopgrid, worlds, config, baseline, out_dir)
    tally.add(untraced_wall, problems, digests)
    wall, cpu, problems, digests = attempt(coopgrid, worlds, config, baseline, out_dir,
                                           session=tracer.session())
    tally.add(wall, problems, digests)
    tally.compare_with_record()
    if untraced_wall is None or wall is None:
        return tally, {}, {}
    report_bytes = sum(f.stat().st_size for label, _ in worlds
                       for f in (out_dir / label).iterdir())
    gaps = probe.greedy_gaps(coopgrid.formation)
    metrics = layer_metrics(probe, first_run_span, wall, cpu, untraced_wall,
                            report_bytes, gaps)

    zero = [name for name in workload.required if not metrics[name][0]]
    if zero:
        raise CoverageError(f"{workload.name}: no calls recorded for {zero}")
    share = metrics["trace.self_share"][0]
    if abs(share - 1.0) > SELF_TIME_TOLERANCE:
        raise CoverageError(f"layer self times cover {share:.3f} of the traced run time")
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.json",
                 {"greedy_gap": gaps, "first_run_span": first_run_span})
    return tally, metrics, {"untraced_run_s": untraced_wall}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    load_at_start = os.getloadavg()
    workload = WORKLOADS[args.workload]

    baseline = None
    if not workload.worlds:
        if not BASELINE.is_file():
            print(f"error: recorded baseline {BASELINE} not found", file=sys.stderr)
            return 2
        baseline = json.loads(BASELINE.read_text())
    try:
        coopgrid = import_coopgrid(ROOT)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.trace:
        tally, metrics, details = trace_layers(coopgrid, workload, args.seed, baseline)
    else:
        tally, metrics, details = measure(coopgrid, workload, args.seed, args.seconds,
                                          baseline)
    if not metrics:
        print("error: no repetition completed; " + "\n".join(tally.problems),
              file=sys.stderr)
        return 1

    declared = json.loads(DECLARED.read_text())["per_layer" if args.trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in declared} != {k: u for k, (_, u) in metrics.items()}:
        print(f"error: metrics do not match their declaration in {DECLARED}", file=sys.stderr)
        return 1

    summary = {
        "workload": workload.name, "params": workload.params(args.seed),
        "seed": args.seed, "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "seconds": args.seconds,
        "error_rate": tally.failed / tally.attempted,
        "context": {"nproc": os.cpu_count(), "loadavg_at_start": load_at_start,
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "commit": git_commit()},
        **details, "problems": tally.problems,
    }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "result": result}, indent=1) + "\n")
    for problem in tally.problems:
        print(problem, file=sys.stderr)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
