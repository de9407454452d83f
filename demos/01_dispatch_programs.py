"""Dispatch programs, from one prosumer to a trading pair.

Walks through the numerical core: a grid-only dispatch for a single node
with storage, then the joint program for a surplus/deficit pair showing
how internal transfers eliminate the buy/sell spread loss.
"""

import numpy as np

from coopgrid import (NodeProfile, Scenario, coalition_value, slice_horizon,
                      solve_coalition_dispatch, solve_individual_dispatch)

# one node: cheap power now, expensive in two hours, a 2 kWh battery
node = NodeProfile(
    node_id=0,
    position=(0.0, 0.0),
    storage_capacity=2.0,
    storage_init=0.0,
    demand=np.array([1.0, 1.0, 2.0]),
    generation=np.array([0.0, 0.0, 0.0]),
    buy_price=np.array([0.06, 0.08, 0.12]),
    sell_price=np.array([0.04, 0.05, 0.07]),
)
scenario = Scenario(nodes=[node])

window = slice_horizon(scenario, 0, 3).select((0,))
plain = solve_individual_dispatch(window, 0.0, 0.0)
stored = solve_individual_dispatch(window, 0.0, node.storage_capacity)

print("single node, 3-hour window, prices 0.06 / 0.08 / 0.12")
print(f"  no storage:   buys {plain.grid_buy[0]}, cost {plain.market_cost:.4f} CU")
print(f"  2 kWh battery: buys {np.round(stored.grid_buy[0], 3)}, "
      f"stores {np.round(stored.storage_delta[0], 3)}, cost {stored.market_cost:.4f} CU")

# a pair 0.5 km apart: node 0 has 3 kWh to spare, node 1 needs 3 kWh
maker = NodeProfile(0, (0.0, 0.0), 0.0, 0.0, np.zeros(1), np.array([3.0]),
                    np.array([0.10]), np.array([0.05]))
taker = NodeProfile(1, (0.5, 0.0), 0.0, 0.0, np.array([3.0]), np.zeros(1),
                    np.array([0.10]), np.array([0.05]))
pair = Scenario(nodes=[maker, taker])

hs = slice_horizon(pair, 0, 1)
solo_a = solve_individual_dispatch(hs.select((0,)), 0.0, 0.0)
solo_b = solve_individual_dispatch(hs.select((1,)), 0.0, 0.0)
joint = solve_coalition_dispatch(hs, [0.0, 0.0], [0.0, 0.0])

print("\nsurplus/deficit pair (3 kWh each way, 0.5 km apart)")
print(f"  apart:  seller earns {-solo_a.market_cost:.2f}, buyer pays "
      f"{solo_b.market_cost:.2f}, net {solo_a.market_cost + solo_b.market_cost:.2f} CU")
print(f"  joined: internal transfer {joint.coal_buy[1, 0]:.1f} kWh, "
      f"grid cost {joint.market_cost:.2f} CU")

for rho in (0.0, 1e-4, 5e-3):
    breakdown, _ = coalition_value((0, 1), np.zeros(2), pair, hs, rho)
    print(f"  loss weight {rho:g}: market {breakdown.market_cost:.4f} + "
          f"losses {breakdown.loss_cost:.6f} -> value {breakdown.total:.6f} CU")
print("(the pair is worth forming whenever its value stays below 0.15 CU)")
