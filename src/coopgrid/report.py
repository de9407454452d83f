"""Machine-readable reports for simulation traces.

Four CSV files mirror the quantities a study of this system cares about:
per-step partition membership, per-agent cumulative costs, per-agent
average buyer prices, and the applied flows.  Numbers are written with 17
significant digits so downstream comparisons are lossless, and rows are
emitted in a fixed order so re-running the same configuration produces
byte-identical files.  A manifest with content digests accompanies them.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .game import PRICE_ENERGY_FLOOR, equivalent_price
from .sim import SimMode, SimulationTrace


@dataclass
class RunManifest:
    scenario_source: str
    configs: list[str]
    out_dir: str
    digests: dict[str, str]

    def to_json(self) -> str:
        doc = {
            "scenario_source": self.scenario_source,
            "configs": self.configs,
            "out_dir": self.out_dir,
            "files": self.digests,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def verify(self) -> list[str]:
        """Check that every listed file still exists with matching digest."""
        problems = []
        for name, digest in self.digests.items():
            path = Path(self.out_dir) / name
            if not path.is_file():
                problems.append(f"missing report file {name}")
                continue
            actual = hashlib.sha256(path.read_bytes()).hexdigest()
            if actual != digest:
                problems.append(f"digest mismatch for {name}")
        return problems


def trace_label(trace: SimulationTrace) -> str:
    cfg = trace.config
    if cfg.mode is not SimMode.COALITIONAL:
        return cfg.mode.value
    label = f"coalitional(rho={cfg.loss_weight}"
    if cfg.reform_period != 1:
        label += f",reform={cfg.reform_period}"
    return label + ")"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def summarize_prices(trace: SimulationTrace) -> dict[int, float | None]:
    """Per-agent mean equivalent price (settled charge over net energy bought,
    grid and coalition flows alike) over the steps where the agent was a net
    buyer; None for agents that never bought."""
    if not trace.steps:
        raise ValueError("trace has no steps")
    samples: list[list[float]] = [[] for _ in range(trace.n_agents)]
    for res in trace.steps:
        net = res.grid_buy - res.grid_sell + res.coal_buy - res.coal_sell
        for agent, energy in enumerate(net.tolist()):
            if energy > PRICE_ENERGY_FLOOR:
                samples[agent].append(equivalent_price(float(res.charges[agent]), energy))
    return {agent: sum(s) / len(s) if s else None for agent, s in enumerate(samples)}


def write_reports(traces: list[SimulationTrace], out_dir,
                  scenario_source: str = "") -> RunManifest:
    """Emit partitions.csv, costs.csv, prices.csv, flows.csv and manifest.json.

    Rows are keyed by trace label, so traces with the same label are refused
    before anything is written.
    """
    if not traces:
        raise ValueError("need at least one trace to report on")
    labels = [trace_label(t) for t in traces]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"traces repeat the labels {repeated}: every (agent, label) "
                         f"report row would be written more than once")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = ["step,agent,block_id,label"]
    for label, trace in zip(labels, traces):
        for res in trace.steps:
            block_index = {}
            for bid, block in enumerate(res.partition.blocks):
                for agent in block:
                    block_index[agent] = bid
            for agent in range(trace.n_agents):
                lines.append(f"{res.step},{agent},{block_index[agent]},{label}")
    partitions_csv = "\n".join(lines) + "\n"

    lines = ["agent,label,cumulative_cost"]
    for label, trace in zip(labels, traces):
        for agent in range(trace.n_agents):
            lines.append(f"{agent},{label},{_fmt(trace.cumulative_costs[agent])}")
    costs_csv = "\n".join(lines) + "\n"

    lines = ["agent,label,avg_buy_price"]
    for label, trace in zip(labels, traces):
        averages = summarize_prices(trace)
        for agent in range(trace.n_agents):
            avg = averages[agent]
            lines.append(f"{agent},{label}," + (_fmt(avg) if avg is not None else ""))
    prices_csv = "\n".join(lines) + "\n"

    lines = ["step,agent,grid_buy_kwh,grid_sell_kwh,coal_buy_kwh,coal_sell_kwh,"
             "storage_delta_kwh,storage_kwh,label"]
    for label, trace in zip(labels, traces):
        for res in trace.steps:
            for agent in range(trace.n_agents):
                lines.append(",".join([
                    str(res.step), str(agent),
                    _fmt(res.grid_buy[agent]), _fmt(res.grid_sell[agent]),
                    _fmt(res.coal_buy[agent]), _fmt(res.coal_sell[agent]),
                    _fmt(res.storage_delta[agent]), _fmt(res.storage_after[agent]),
                    label,
                ]))
    flows_csv = "\n".join(lines) + "\n"

    files = {
        "partitions.csv": partitions_csv,
        "costs.csv": costs_csv,
        "prices.csv": prices_csv,
        "flows.csv": flows_csv,
    }
    digests = {}
    for name, text in files.items():
        data = text.encode()
        (out / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()

    manifest = RunManifest(
        scenario_source=scenario_source,
        configs=labels,
        out_dir=str(out),
        digests=digests,
    )
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest
