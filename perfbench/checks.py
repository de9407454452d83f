"""Correctness checks applied to every measured repetition.

The checks recompute what they verify from the scenario and the applied
flows rather than from the program's own intermediate values:

* budget balance: inside each block, the settled charges add up to the
  block's realized one-step cost (grid money at the step's tariffs plus
  the transfer-loss charge on coalition purchases);
* storage bounds: every storage level stays in ``[0, capacity]`` and moves
  by the applied storage delta;
* on the bundled reference, cumulative costs and average buyer prices
  match ``tests/data/baseline_reference.json`` at rel 1e-9, as criterion
  c07 of the acceptance tests does.
"""

import math

BALANCE_RTOL = 1e-9
STORAGE_TOL = 1e-8   # the simulator's own drift tolerance before it clips
BASELINE_RTOL = 1e-9
BASELINE_ATOL = 1e-12


def _mean_distance(positions) -> float:
    pairs = [(a, b) for i, a in enumerate(positions) for b in positions[i + 1:]]
    return sum(math.dist(a, b) for a, b in pairs) / len(pairs)


def check_trace(scenario, trace, loss_weight: float) -> list[str]:
    """Budget balance per block and storage bounds at every step."""
    problems = []
    caps = [nd.storage_capacity for nd in scenario.nodes]
    if trace.config.mode.value == "grid-only":
        storage = [0.0] * len(caps)
    else:
        storage = [nd.storage_init for nd in scenario.nodes]
    for res in trace.steps:
        k = res.step
        for block in res.partition.blocks:
            terms = [scenario.nodes[a].buy_price[k] * res.grid_buy[a]
                     - scenario.nodes[a].sell_price[k] * res.grid_sell[a] for a in block]
            if len(block) > 1 and loss_weight:
                r_hat = _mean_distance([scenario.nodes[a].position for a in block])
                terms.append(loss_weight * r_hat * sum(res.coal_buy[a] ** 2 for a in block))
            charged = sum(res.charges[a] for a in block)
            scale = max(1.0, sum(abs(t) for t in terms))
            if abs(charged - sum(terms)) > BALANCE_RTOL * scale:
                problems.append(f"step {k}, block {block}: charges {charged!r} "
                                f"!= realized cost {sum(terms)!r}")
        for a, cap in enumerate(caps):
            level = res.storage_after[a]
            if not 0.0 <= level <= cap:
                problems.append(f"step {k}, node {a}: storage {level!r} outside [0, {cap}]")
            if abs(level - (storage[a] + res.storage_delta[a])) > STORAGE_TOL:
                problems.append(f"step {k}, node {a}: storage moved by "
                                f"{level - storage[a]!r}, delta {res.storage_delta[a]!r}")
        storage = list(res.storage_after)
    return problems


def check_baseline(report, trace, baseline: dict) -> list[str]:
    """Compare a trace with its recorded entry in the baseline document."""
    label = report.trace_label(trace)
    if label not in baseline:
        return [f"no recorded baseline for {label}"]
    recorded = baseline[label]
    problems = []

    def compare(what, agent, value, expected):
        if expected is None or value is None:
            if expected is not value:
                problems.append(f"{label} {what}[{agent}]: {value!r} != {expected!r}")
        elif abs(value - expected) > max(BASELINE_RTOL * abs(expected), BASELINE_ATOL):
            problems.append(f"{label} {what}[{agent}]: {value!r} != {expected!r}")

    prices = report.summarize_prices(trace)
    for key, expected in recorded["avg_buy_price"].items():
        compare("avg_buy_price", key, prices[int(key)], expected)
    for key, expected in recorded["cumulative_cost"].items():
        compare("cumulative_cost", key, float(trace.cumulative_costs[int(key)]), expected)
    return problems
