"""Coalition pricing and Shapley cost sharing on a small scenario.

Prices every coalition of a 4-node synthetic world, splits each
coalition's cost with the Shapley rule, and shows the payoff map shares
that drive every agent's coalition preference.
"""

import numpy as np

from coopgrid import (characteristic_function, coalition_members,
                      equivalent_price, generate_synthetic_scenario, payoff_map,
                      slice_horizon)

scenario = generate_synthetic_scenario(seed=7, n_nodes=4, n_steps=8)
storage = np.zeros(4)

cf = characteristic_function(storage, scenario, slice_horizon(scenario, 0, 5),
                             loss_weight=1e-4)
print(f"characteristic function over {len(cf.entries)} coalitions (4 agents)\n")

print("coalition               market    losses     value")
for mask in sorted(cf.entries, key=lambda m: (bin(m).count('1'), m)):
    b, _plan = cf.entries[mask]
    members = coalition_members(mask)
    print(f"  {str(members):20s} {b.market_cost:9.4f} {b.loss_cost:9.6f} {b.total:9.4f}")

pm = payoff_map(cf)
grand = range(4)
shares = [pm.share(agent, grand) for agent in grand]
print("\nShapley split of the grand coalition:")
for agent in grand:
    standalone = pm.standalone(agent)
    print(f"  agent {agent}: share {shares[agent]:8.4f} CU vs alone "
          f"{standalone:8.4f} CU  ({'joins' if shares[agent] <= standalone else 'refuses'})")
print(f"  shares sum to {sum(shares):.6f} = grand value {cf[0b1111]:.6f}")

# the implied internal price: share divided by the net energy drawn
print("\nimplied prices if each agent drew 2 kWh net:")
for agent in grand:
    price = equivalent_price(shares[agent], 2.0)
    print(f"  agent {agent}: {price:.4f} CU/kWh")
