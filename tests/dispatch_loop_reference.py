"""Loop reference for :func:`coopgrid.dispatch.build_coalition_lp`.

This is the builder that filled the dispatch program one member-step at a
time, through :func:`coopgrid.lp.make_program`, kept as the reference the
vectorized builder must match byte for byte: the same objective, equality
matrix and rhs, and bounds (``-0.0`` lower bounds of zero-capacity members
included), with the same shapes.
"""

import numpy as np

from coopgrid.dispatch import TRANSFER_REG
from coopgrid.lp import LinearProgram, make_program
from coopgrid.scenario import HorizonSlice


def build_coalition_lp(slice_: HorizonSlice, storage_init, storage_cap) -> LinearProgram:
    ids = slice_.node_ids
    nm = len(ids)
    if nm < 1:
        raise ValueError("coalition needs at least one member")
    s0 = np.asarray(storage_init, dtype=float).reshape(nm)
    caps = np.asarray(storage_cap, dtype=float).reshape(nm)
    for m in range(nm):
        if not 0.0 <= s0[m] <= caps[m]:
            raise ValueError(f"node {ids[m]}: storage_init {s0[m]} outside [0, {caps[m]}]")
    h = slice_.horizon
    market = nm > 1
    width = 6 if market else 4  # variables per member-step

    n = width * nm * h
    cost = np.zeros(n)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    aeq = np.zeros((2 * nm * h + (h if market else 0), n))
    beq = np.zeros(aeq.shape[0])
    for m in range(nm):
        for t in range(h):
            base = width * (m * h + t)
            i_ds, i_s, i_buy, i_sell = range(base, base + 4)
            cost[i_buy] = slice_.buy_price[m, t]
            cost[i_sell] = -slice_.sell_price[m, t]
            lower[i_ds] = -caps[m]
            upper[i_ds] = caps[m]
            upper[i_s] = caps[m]
            # storage recursion: s(t+1) - s(t) - delta(t) = 0
            r = 2 * (m * h + t)
            aeq[r, i_s] = 1.0
            aeq[r, i_ds] = -1.0
            if t == 0:
                beq[r] = s0[m]
            else:
                aeq[r, i_s - width] = -1.0
            # energy balance: delta + sell - buy (+ coal_sell - coal_buy) = generation - demand
            aeq[r + 1, i_ds] = 1.0
            aeq[r + 1, i_sell] = 1.0
            aeq[r + 1, i_buy] = -1.0
            beq[r + 1] = slice_.generation[m, t] - slice_.demand[m, t]
            if market:
                i_cbuy, i_csell = base + 4, base + 5
                cost[i_cbuy] = TRANSFER_REG
                cost[i_csell] = TRANSFER_REG
                aeq[r + 1, i_csell] = 1.0
                aeq[r + 1, i_cbuy] = -1.0
                # internal market clears at every step
                aeq[2 * nm * h + t, i_csell] = 1.0
                aeq[2 * nm * h + t, i_cbuy] = -1.0
    return make_program(cost, aeq, beq, lower=lower, upper=upper)
