"""Command-line front end.

Loads or synthesizes a scenario, runs one or more simulation
configurations, and writes the CSV reports plus a digest manifest.
Exit codes: 0 success, 1 usage error, 2 input error, 3 runtime failure.
"""

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dispatch import coalition_value
from .errors import CoopGridError, ScenarioError
from .formation import optimal_structure
from .game import MAX_SWEEP_AGENTS, shapley_value
from .lp import LpStatus, solve_lp
from .oracles import (best_partition_by_enumeration, brute_force_lp,
                      lexicographic_pooled_levels, permutation_shapley,
                      pooled_market_cost, random_box_lp, random_cost_game)
from .report import trace_label, write_reports
from .scenario import (generate_synthetic_scenario, load_scenario,
                       reference_scenario, slice_horizon)
from .sim import SimConfig, SimMode, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3

_MODE_NAMES = {m.value: m for m in SimMode}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coopgrid-simulate",
        description="Simulate coalitional dispatch on a prosumer microgrid "
                    "and write CSV reports.",
        add_help=True,
    )
    # argparse < 3.13 takes "-1e-5" or "-inf" for an option; no option here starts with
    # "-" and a digit, or with "inf" or "nan", which float() reads in any letter case
    parser._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    src = parser.add_argument_group("scenario source")
    src.add_argument("--scenario", metavar="PATH", help="scenario document to load")
    src.add_argument("--generate", action="store_true",
                     help="synthesize a scenario instead of loading one")
    src.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    src.add_argument("--nodes", type=int, default=8, help="generated node count (default 8)")
    src.add_argument("--steps", type=int, default=17, help="generated step count (default 17)")

    runcfg = parser.add_argument_group("run configuration")
    runcfg.add_argument("--mode", default="coalitional",
                        help="grid-only | grid-storage | coalitional "
                             "(comma-separated list runs several baselines)")
    runcfg.add_argument("--rho", metavar="LIST", default="1e-5",
                        help="comma-separated transfer-loss weights; coalitional "
                             "mode runs once per weight (default 1e-5)")
    runcfg.add_argument("--horizon", type=int, default=5,
                        help="prediction horizon in steps (default 5)")
    runcfg.add_argument("--reform-period", type=int, default=1,
                        help="steps between partition re-evaluations (default 1)")

    parser.add_argument("--out", metavar="DIR", help="report output directory")
    parser.add_argument("--oracle-check", action="store_true",
                        help="run the oracle self-checks and exit")
    return parser


def _oracle_check() -> int:
    # every comparison is written `not diff <= tol`, so a NaN on either side fails it
    rng = np.random.default_rng(20240917)
    for trial in range(100):
        prog = random_box_lp(rng)
        got = solve_lp(prog)
        want = brute_force_lp(prog)
        if got.status is not want.status:
            print(f"oracle-check FAIL: lp trial {trial} status "
                  f"{got.status.value} vs {want.status.value}")
            return EXIT_RUNTIME
        if got.status is LpStatus.OPTIMAL:
            tol = 1e-8 * max(1.0, abs(want.objective_value))
            if not abs(got.objective_value - want.objective_value) <= tol:
                print(f"oracle-check FAIL: lp trial {trial} objective "
                      f"{got.objective_value} vs {want.objective_value}")
                return EXIT_RUNTIME
    print("oracle-check: lp solver matches vertex enumeration on 100 instances")

    for trial in range(30):
        n = int(rng.integers(2, 6))
        game = random_cost_game(rng, n)
        members = tuple(range(n))
        got = shapley_value(game, members)
        want = permutation_shapley(game, members)
        if not np.max(np.abs(got - want)) <= 1e-9:
            print(f"oracle-check FAIL: shapley trial {trial}")
            return EXIT_RUNTIME
    print("oracle-check: shapley shares match the all-orderings average on 30 games")

    for trial in range(20):
        n = int(rng.integers(2, 6))
        game = random_cost_game(rng, n)
        best = optimal_structure(game)
        blocks, value = best_partition_by_enumeration(game, n)
        if best.partition.blocks != blocks or not abs(best.value - value) <= 1e-12:
            print(f"oracle-check FAIL: structure trial {trial}")
            return EXIT_RUNTIME
    print("oracle-check: structure search matches independent enumeration on 20 games")

    ref = reference_scenario()
    window = slice_horizon(ref, 0, SimConfig().horizon)
    members = tuple(range(ref.n_nodes))
    plan = coalition_value(members, ref.storage_init, ref, window, 0.0)[1]
    want = plan.market_cost
    got = pooled_market_cost(members, ref.storage_init, ref, window)
    if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
        print(f"oracle-check FAIL: pooled market cost {got} vs grand coalition {want}")
        return EXIT_RUNTIME
    print("oracle-check: pooled program matches the grand coalition's market cost "
          "at reference step 0")

    caps = ref.storage_capacities
    money, least = lexicographic_pooled_levels(window, ref.storage_init, caps)
    gap = float(np.max(np.abs(plan.storage_level.sum(axis=0) - least)))
    if not (gap <= 1e-9 * caps.sum() and abs(money - want) <= 1e-9 * max(1.0, abs(want))):
        print(f"oracle-check FAIL: grand coalition's levels are {gap} from the "
              f"lexicographic plan's, market cost {want} vs {money}")
        return EXIT_RUNTIME
    print("oracle-check: the grand coalition's plan at reference step 0 is the "
          "lexicographic least-cost plan of the per-member program")
    return EXIT_OK


def _parse_modes(text: str) -> list[SimMode]:
    modes = []
    for token in text.split(","):
        token = token.strip()
        if token not in _MODE_NAMES:
            raise UsageError(f"unknown mode {token!r}; expected one of "
                             f"{sorted(_MODE_NAMES)}")
        modes.append(_MODE_NAMES[token])
    _refuse_repeats("--mode", [m.value for m in modes])
    return modes


def _refuse_repeats(flag: str, values: list) -> None:
    """Each configuration is one report label; a repeat would duplicate its rows."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise UsageError(f"{flag} lists {value!r} more than once")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not args.oracle_check:
            if bool(args.scenario) == bool(args.generate):
                raise UsageError("exactly one of --scenario or --generate is required")
            if not args.out:
                raise UsageError("--out DIR is required when running a simulation")
        modes = _parse_modes(args.mode)
        try:
            rhos = [float(tok) for tok in args.rho.split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --rho value ({exc})") from exc
        if not rhos:
            raise UsageError("--rho needs at least one value")
        _refuse_repeats("--rho", rhos)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return _oracle_check() if args.oracle_check else _simulate(args, modes, rhos)
    except MemoryError as exc:  # a world or a horizon too large for this machine
        print(f"runtime error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME


def _simulate(args, modes: list[SimMode], rhos: list[float]) -> int:
    """Load or generate the scenario, run each configuration and write the
    reports; returns the exit code."""
    # refuse an output path that cannot become a directory before any run starts
    out = Path(args.out)
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        print(f"input error: --out {out}: {blocker} exists and is not a directory",
              file=sys.stderr)
        return EXIT_INPUT

    try:
        if args.scenario:
            path = Path(args.scenario)
            try:
                text = path.read_text()
            except OSError as exc:
                print(f"input error: cannot read scenario file {path}: {exc}",
                      file=sys.stderr)
                return EXIT_INPUT
            scenario = load_scenario(text)
            source = str(path)
        else:
            scenario = generate_synthetic_scenario(args.seed, args.nodes, args.steps)
            source = f"generated(seed={args.seed},nodes={args.nodes},steps={args.steps})"
    except (ScenarioError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        # grid modes price singletons, which carry no loss cost: one run each
        weighted = [SimConfig(mode=SimMode.COALITIONAL, horizon=args.horizon,
                              loss_weight=rho, reform_period=args.reform_period)
                    for rho in rhos]
        configs = [cfg for mode in modes
                   for cfg in (weighted if mode is SimMode.COALITIONAL
                               else [replace(weighted[0], mode=mode)])]
        if scenario.n_nodes > MAX_SWEEP_AGENTS and SimMode.COALITIONAL in modes:
            raise ValueError(f"coalitional mode supports at most {MAX_SWEEP_AGENTS} "
                             f"nodes, the scenario has {scenario.n_nodes}")
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        traces = [run(scenario, cfg) for cfg in configs]
        manifest = write_reports(traces, args.out, scenario_source=source)
    except (CoopGridError, OSError, ArithmeticError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    for trace in traces:
        total = float(np.sum(trace.cumulative_costs))
        print(f"ran {trace_label(trace)}: {len(trace.steps)} steps, "
              f"total settled cost {total:.6g} CU")
    print(f"wrote {', '.join(sorted(manifest.digests))} and manifest.json to {args.out}")
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
