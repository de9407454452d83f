"""Loop reference for the first-step costs that settlement splits.

This is the function that turned every priced coalition's
``(breakdown, plan)`` into its realized cost at the first step, one
coalition at a time, kept as the reference the table's ``first_step``
costs must match bit for bit (``float.hex``): the batch's arrays for
coalitions of two or more members, and the costs computed where each
member alone is priced.
"""

import numpy as np

from coopgrid.dispatch import CoalitionValueBreakdown, DispatchSolution
from coopgrid.scenario import HorizonSlice


def one_step_cost(breakdown: CoalitionValueBreakdown, sol: DispatchSolution,
                  hs: HorizonSlice, loss_weight: float) -> float:
    """Realized cost of a priced dispatch at its first step: grid money plus
    the transfer-loss charge on the applied coalition purchases."""
    cost = 0.0
    for row, agent in enumerate(sol.members):
        cost += float(hs.buy_price[agent, 0] * sol.grid_buy[row, 0]
                      - hs.sell_price[agent, 0] * sol.grid_sell[row, 0])
    if loss_weight:
        cost += (loss_weight * breakdown.mean_distance
                 * float(np.sum(sol.coal_buy[:, 0] ** 2)))
    return cost


def assert_same_first_steps(table, hs: HorizonSlice, loss_weight: float) -> int:
    """Every first-step cost of the table, to the bit, against
    :func:`one_step_cost` of the coalition's ``(breakdown, plan)``; returns
    how many were compared."""
    assert set(table.first_step) == set(table)
    for mask in table:
        want = one_step_cost(*table.pricing(mask), hs, loss_weight)
        assert float(table.first_step[mask]).hex() == want.hex(), mask
    return len(table)
