"""How the loss weight shapes the partition of the bundled 8-node world.

Forms the partition at one step of the reference scenario for each loss
weight, then checks the greedy outcome against the cheapest partition
of the 8 agents, found by dynamic programming over subsets.
"""

import numpy as np

from coopgrid import (characteristic_function, form_partition, optimal_structure,
                      payoff_map, reference_scenario, slice_horizon, structure_value)

scenario = reference_scenario()
storage = np.zeros(8)
k = 9  # early evening: demand is climbing, solar is fading

for rho in (5e-3, 5e-4, 1e-4, 1e-5):
    cf = characteristic_function(storage, scenario, slice_horizon(scenario, k, 5),
                                 loss_weight=rho)
    partition = form_partition(payoff_map(cf))
    formed = structure_value(partition, cf).value
    best = optimal_structure(cf)
    gap = formed - best.value
    print(f"rho={rho:7g}: formed {partition.blocks}")
    print(f"             cost {formed:.4f} CU, exhaustive optimum "
          f"{best.value:.4f} CU, gap {gap:.2e}")
print("\nsmaller loss weights let transfers travel further, so blocks grow")
