"""One SHA-256 per simulation configuration, to compare two trees bit for bit.

Each digest covers every LP the run solves (status, point and objective
bytes, per-phase pivot counts), every ``StepResult`` field a report or a
caller reads (replay counters excepted: they describe how a solve was
done, not its result), ``report.summarize_prices`` and the report file
digests.  Before the runs, one line per generated world carries a
SHA-256 of what the generator made (``helpers.world_digest``: every
series' bytes, positions and storage limits).  The configurations are
the 355 used to check the solver's bitwise neutrality: the reference
day coalitional at rho 5e-3 / 5e-4 / 1e-4 / 1e-5, grid-only and
grid-storage; the 64-node 48-step ``grid-storage-wide`` world; the 48
``reform-mixed`` worlds of seeds 1 and 2; and 300 generated 4-node 8-step
worlds (seeds 1000-1019 x rho 0 / 1e-5 / 1e-4 / 5e-4 / 5e-3 x reform
periods 1-3, horizon 2 + seed % 4).

Every configuration is run twice in one process: a cold pass that starts
with an empty phase-1/phase-2 path memo, then a warm pass that finds the
paths the cold pass left.  Comparing two trees is one ``diff``::

    PYTHONPATH=src python tests/config_digests.py > change.txt
    (cd ../parent && PYTHONPATH=src python ../repo/tests/config_digests.py) > parent.txt
    diff parent.txt change.txt

``--generated-only`` runs the 300 generated worlds alone, ``--label``
(repeatable) runs only the configurations with that label, as printed,
and ``--check`` exits 1 unless every warm digest equals its cold one::

    PYTHONPATH=src python tests/config_digests.py --label "grid-storage-wide seed1" --check
"""

import argparse
import hashlib
import sys
import tempfile

import numpy as np

from helpers import world_digest

from coopgrid import dispatch
from coopgrid.report import summarize_prices, write_reports
from coopgrid.scenario import generate_synthetic_scenario, reference_scenario
from coopgrid.sim import SimConfig, SimMode, run

STEP_FIELDS = ("step", "grid_buy", "grid_sell", "coal_buy", "coal_sell", "storage_delta",
               "storage_after", "charges", "lp_programs", "phase1_pivots", "phase2_pivots")


def configurations(generated_only: bool):
    """``(label, world, SimConfig)`` for every configuration; ``world`` is the
    ``(seed, nodes, steps)`` of a generated world, or None for the reference."""
    coalitional = SimMode.COALITIONAL
    if not generated_only:
        for rho in (5e-3, 5e-4, 1e-4, 1e-5):
            yield f"reference rho={rho}", None, SimConfig(coalitional, loss_weight=rho)
        for mode in (SimMode.GRID_ONLY, SimMode.GRID_STORAGE):
            yield f"reference {mode.value}", None, SimConfig(mode)
        yield "grid-storage-wide seed1", (1, 64, 48), SimConfig(SimMode.GRID_STORAGE)
        for world in [*range(24, 48), *range(48, 72)]:  # reform-mixed, seeds 1 and 2
            yield (f"reform-mixed world{world}", (world, 6, 6),
                   SimConfig(coalitional, loss_weight=2e-3, reform_period=3))
    for seed in range(1000, 1020):
        for rho in (0.0, 1e-5, 1e-4, 5e-4, 5e-3):
            for period in (1, 2, 3):
                yield (f"generated seed{seed} rho={rho} reform={period}", (seed, 4, 8),
                       SimConfig(coalitional, horizon=2 + seed % 4, loss_weight=rho,
                                 reform_period=period))


def scenario_of(world):
    return reference_scenario() if world is None else generate_synthetic_scenario(*world)


def _floats(h, values) -> None:
    h.update(np.asarray(values, dtype=float).tobytes())


def digest(scenario, config: SimConfig) -> str:
    h = hashlib.sha256()
    solve = dispatch.solve_lp

    def hashed_solve(problem):
        sol = solve(problem)
        h.update(f"{sol.status.value} {sol.phase1_pivots} {sol.phase2_pivots}".encode())
        if sol.point is not None:
            _floats(h, sol.point)
            _floats(h, sol.objective_value)
        return sol

    dispatch.solve_lp = hashed_solve
    try:
        trace = run(scenario, config)
    finally:
        dispatch.solve_lp = solve
    for res in trace.steps:
        h.update(repr(res.partition.blocks).encode())
        for name in STEP_FIELDS:
            _floats(h, getattr(res, name))
        for mask, value in sorted(res.coalition_values.items()):
            h.update(f"{mask} {float(value).hex()}".encode())
        if res.payoffs is not None:
            h.update(f"{res.payoffs.n_agents}".encode())
            for mask, value in sorted(res.payoffs.potentials.items()):
                h.update(f"{mask} {float(value).hex()}".encode())
    _floats(h, trace.cumulative_costs)
    _floats(h, trace.final_storage)
    h.update(repr(sorted(summarize_prices(trace).items())).encode())
    with tempfile.TemporaryDirectory() as out:
        h.update(repr(sorted(write_reports([trace], out).digests.items())).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--generated-only", action="store_true",
                        help="run the 300 generated 4-node worlds alone")
    parser.add_argument("--label", action="append",
                        help="run only the configuration with this label (repeatable)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every warm digest equals its cold one")
    args = parser.parse_args(argv)
    configs = [config for config in configurations(args.generated_only)
               if args.label is None or config[0] in args.label]
    if not configs:
        parser.error(f"no configuration has a label among {args.label}")
    for world in dict.fromkeys(world for _, world, _ in configs if world is not None):
        print("world", world_digest(scenario_of(world)),
              "seed{} nodes={} steps={}".format(*world), flush=True)
    passes = {}
    for name in ("cold", "warm"):
        passes[name] = []
        for label, world, config in configs:
            passes[name].append(digest(scenario_of(world), config))
            print(name, passes[name][-1], label, flush=True)
    differ = [label for (label, _, _), cold, warm in zip(configs, passes["cold"], passes["warm"])
              if cold != warm]
    if args.check and differ:
        print(f"{len(differ)} configurations differ between the cold and the warm pass, "
              f"first: {differ[0]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
