"""The benchmark's workloads, how their inputs are built, and the set-up probe.

Every workload is a closed loop with one client, the benchmark process: it
runs ``sim.run`` and then ``report.write_reports`` for each of its worlds,
and starts the next repetition only after the previous one finished.

Synthetic worlds come from ``scenario.generate_synthetic_scenario``; the
benchmark's ``--seed`` picks the generator seeds, and the program sees
only the generated ``Scenario``.  ``DEFAULT_SEED`` is the seed to develop
against; a claim of a gain must also hold on ``HELD_OUT_SEED``.

Run as a script (``python3 perfbench/workloads.py ROOT WORKLOAD SEED``) it
times one cold set-up in a fresh interpreter and prints the seconds taken,
then the median time of three runs of ``speed.reference_work`` made right
after it.
"""

import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    loss_weight: float = 1e-5
    reform_period: int = 1
    worlds: int = 0      # generated worlds per repetition; 0 = the bundled reference
    nodes: int = 0
    steps: int = 0
    # per-layer counts that must be nonzero, or a wrapper has stopped seeing calls
    required: tuple[str, ...] = ()

    def world_seeds(self, seed: int) -> list[int]:
        return [seed * self.worlds + i for i in range(self.worlds)]

    def params(self, seed: int) -> str:
        """Everything that fixes this workload's inputs, as one string."""
        seeds = self.world_seeds(seed) if self.worlds else "reference"
        return (f"{self.name} mode={self.mode} rho={self.loss_weight} "
                f"reform={self.reform_period} nodes={self.nodes} "
                f"steps={self.steps} seeds={seeds}")


_COMMON = ("lp.solves", "scenario.slice_calls", "sim.steps", "sim.settle_calls",
           "game.shapley_calls", "report.writes")
_COALITIONAL = ("dispatch.coalition_value_calls", "dispatch.build_lp_calls",
                "game.sweeps", "formation.form_calls")

# Why each workload exists is stated in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="ref-day-coalitional",
        mode="coalitional", loss_weight=1e-5, reform_period=1,
        required=_COMMON + _COALITIONAL),
    Workload(
        name="grid-storage-wide",
        mode="grid-storage", worlds=1, nodes=64, steps=48,
        required=_COMMON + ("dispatch.individual_solves",)),
    Workload(
        name="reform-mixed",
        mode="coalitional", loss_weight=2e-3, reform_period=3, worlds=24,
        nodes=6, steps=6,
        required=_COMMON + _COALITIONAL + ("dispatch.individual_solves",
                                           "sim.block_pricings")),
)}


def import_coopgrid(root: Path):
    """Import coopgrid from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "coopgrid" / "__init__.py").is_file():
        raise FileNotFoundError(f"no coopgrid package under {src}")
    sys.path.insert(0, str(src))
    coopgrid = importlib.import_module("coopgrid")
    if Path(coopgrid.__file__).resolve().parent != src / "coopgrid":
        raise ImportError(f"coopgrid was imported from {coopgrid.__file__}, not {src}")
    return coopgrid


def build_worlds(coopgrid, workload: Workload, seed: int) -> list:
    """The workload's scenarios as ``(label, Scenario)``, each validated."""
    scenario = coopgrid.scenario
    if workload.worlds:
        worlds = [(f"seed{s}", scenario.generate_synthetic_scenario(
            s, n_nodes=workload.nodes, n_steps=workload.steps))
            for s in workload.world_seeds(seed)]
    else:
        worlds = [("reference", scenario.reference_scenario())]
    for label, world in worlds:
        issues = scenario.validate_scenario(world)
        if issues:
            raise ValueError(f"{label}: " + "; ".join(issues))
    return worlds


def sim_config(coopgrid, workload: Workload):
    sim = coopgrid.sim
    return sim.SimConfig(mode=sim.SimMode(workload.mode),
                         loss_weight=workload.loss_weight,
                         reform_period=workload.reform_period)


def timed_setup(root: Path, workload: Workload, seed: int) -> float:
    """Seconds to import coopgrid, build the workload's scenarios and validate them."""
    start = time.perf_counter()
    coopgrid = import_coopgrid(root)
    build_worlds(coopgrid, workload, seed)
    return time.perf_counter() - start


if __name__ == "__main__":
    root_arg, name_arg, seed_arg = sys.argv[1:4]
    setup_s = timed_setup(Path(root_arg), WORKLOADS[name_arg], int(seed_arg))
    # imported only now: numpy's import belongs to the timed set-up
    import statistics
    from speed import reference_work
    print(setup_s, statistics.median(reference_work() for _ in range(3)))
