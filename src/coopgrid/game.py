"""Cooperative-game layer: coalition values, Shapley shares, prices.

Coalitions are encoded as bit masks over agent ids (bit ``i`` set means
agent ``i`` is a member).  All values are costs: lower is better, and a
negative share is money earned.

The sweep and ``sim.step``'s repricing of retained blocks share one loop
over the subsets of blocks, on the step's horizon slice.  That loop
builds the step's one table of priced coalitions: mask -> the
``(breakdown, plan)`` pair ``coalition_value`` returned.

Every coalition-cost table is a mask -> cost mapping, a plain dict or a
:class:`CharacteristicFunction`; a whole game's agent count is read off
its largest mask.

Every Shapley share is a difference of Hart–Mas-Colell potentials
(Econometrica 57(3), 1989): P(0) = 0, P(S) = (v(S) + sum over i in S of
P(S - i)) / |S|, and agent i's share in S is P(S) - P(S - i).  A
:class:`PayoffMap` is that potential table.
"""

from collections.abc import Mapping
from dataclasses import dataclass
import numpy as np

from .dispatch import CoalitionValueBreakdown, DispatchSolution, coalition_value
from .errors import DispatchError, MissingCoalitionError
from .scenario import HorizonSlice, Scenario

# below this net energy (kWh) a per-kWh price is meaningless and left undefined
PRICE_ENERGY_FLOOR = 1e-6
# the exhaustive sweep prices 2^n - 1 coalitions; beyond this it is out of reach
MAX_SWEEP_AGENTS = 16


def coalition_mask(members) -> int:
    """Bit mask for a collection of agent ids."""
    mask = 0
    for i in members:
        mask |= 1 << int(i)
    return mask


def coalition_members(mask: int) -> tuple[int, ...]:
    """Sorted agent ids present in a mask."""
    out = []
    while mask:
        low = mask & -mask  # the lowest set bit
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass
class CharacteristicFunction(Mapping):
    """Coalition mask -> cost, read-only; ``entries`` keeps each coalition's
    ``(breakdown, plan)`` pair, as ``coalition_value`` returned it."""

    entries: dict[int, tuple[CoalitionValueBreakdown, DispatchSolution]]

    def __getitem__(self, mask: int) -> float:
        return self.entries[mask][0].total

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class PayoffMap:
    """Shapley share of every agent in every coalition, as the potential table."""

    n_agents: int
    potentials: dict[int, float]

    def share(self, agent: int, members) -> float:
        mask = coalition_mask(members)
        if not mask >> agent & 1:
            raise KeyError(f"agent {agent} not in coalition {coalition_members(mask)}")
        return self.potentials[mask] - self.potentials[mask ^ 1 << agent]

    def standalone(self, agent: int) -> float:
        return self.share(agent, (agent,))


def _price_subsets(blocks, storage_levels, scenario: Scenario, slice_: HorizonSlice,
                   loss_weight: float
                   ) -> dict[int, tuple[CoalitionValueBreakdown, DispatchSolution]]:
    """Price every nonempty subset of each block.  Private, as the tracer in
    ``perfbench/`` counts pricings by the public function that calls them."""
    entries = {}
    for block in blocks:
        full = coalition_mask(block)
        sub = 0
        while sub != full:
            sub = (sub - full) & full  # next submask of full, in increasing order
            members = coalition_members(sub)
            try:
                entries[sub] = coalition_value(members, storage_levels, scenario,
                                               slice_, loss_weight)
            except DispatchError as exc:
                raise DispatchError(f"coalition {members}: {exc}") from exc
    return entries


def characteristic_function(storage_levels, scenario: Scenario, slice_: HorizonSlice,
                            loss_weight: float) -> CharacteristicFunction:
    """Price every nonempty coalition over one step's horizon slice."""
    n = scenario.n_nodes
    if n > MAX_SWEEP_AGENTS:
        raise ValueError(f"exhaustive coalition sweep not supported for {n} agents")
    return CharacteristicFunction(_price_subsets(
        [range(n)], storage_levels, scenario, slice_, loss_weight))


def _cost(values, mask: int) -> float:
    """``values[mask]``; a missing coalition raises :class:`MissingCoalitionError`."""
    try:
        return values[mask]
    except KeyError:
        raise MissingCoalitionError(
            f"no value for coalition {coalition_members(mask)}") from None


def _potentials(values, full: int) -> dict[int, float]:
    """Potential P(S) of every submask S of ``full``, filled in increasing
    order so that each P(S - i) is in place before P(S) needs it."""
    pot = {0: 0.0}
    sub = 0
    while sub != full:
        sub = (sub - full) & full  # next submask of full, in increasing order
        total = _cost(values, sub)
        rest = sub
        while rest:
            bit = rest & -rest
            total += pot[sub ^ bit]
            rest ^= bit
        pot[sub] = total / bin(sub).count("1")
    return pot


def shapley_value(values, members) -> np.ndarray:
    """Shapley cost shares for the coalition ``members``.

    ``values`` maps coalition masks to costs (a dict or a
    :class:`CharacteristicFunction`) and must cover every nonempty subset
    of ``members``; the empty coalition is worth 0.  Agent i's share is
    the drop in the Hart–Mas-Colell potential, P(S) - P(S - i), where
    P(0) = 0 and P(S) = (v(S) + sum over i in S of P(S - i)) / |S|.
    Returns shares aligned with the sorted member tuple; they sum to the
    coalition's own value.
    """
    full = coalition_mask(members)
    if not full:
        raise ValueError("coalition must be nonempty")
    pot = _potentials(values, full)
    return np.array([pot[full] - pot[full ^ 1 << i] for i in coalition_members(full)])


def payoff_map(values) -> PayoffMap:
    """Shapley shares inside every coalition: the potential table of a
    mask -> cost mapping over agents 0..n-1, n read off its largest mask."""
    n = max(values).bit_length()
    return PayoffMap(n_agents=n, potentials=_potentials(values, (1 << n) - 1))


def equivalent_price(charge: float, net_energy: float) -> float | None:
    """Implied per-kWh price of a settled charge; None when the net energy is
    too small for a ratio to mean anything."""
    if abs(net_energy) <= PRICE_ENERGY_FLOOR:
        return None
    return charge / net_energy
