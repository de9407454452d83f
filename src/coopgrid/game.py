"""Cooperative-game layer: coalition values, Shapley shares, prices.

Coalitions are encoded as bit masks over agent ids (bit ``i`` set means
agent ``i`` is a member).  All values are costs: lower is better, and a
negative share is money earned.
"""

import math
from dataclasses import dataclass
import numpy as np

from .dispatch import (DEFAULT_TRANSFER_REG, CoalitionValueBreakdown, DispatchSolution,
                       coalition_value)
from .errors import DispatchError, MissingCoalitionError
from .scenario import Scenario, slice_horizon

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
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@dataclass
class CoalitionEntry:
    breakdown: CoalitionValueBreakdown
    solution: DispatchSolution

    @property
    def value(self) -> float:
        return self.breakdown.total


@dataclass
class CharacteristicFunction:
    """Coalition -> cost map with the pricing breakdown and planned dispatch
    cached per coalition."""

    n_agents: int
    entries: dict[int, CoalitionEntry]

    @property
    def values(self) -> dict[int, float]:
        return {mask: entry.value for mask, entry in self.entries.items()}

    def value(self, coalition) -> float:
        mask = coalition if isinstance(coalition, int) else coalition_mask(coalition)
        try:
            return self.entries[mask].value
        except KeyError:
            raise MissingCoalitionError(
                f"no value for coalition {coalition_members(mask)}") from None

    @property
    def complete(self) -> bool:
        return len(self.entries) == (1 << self.n_agents) - 1


@dataclass
class PayoffMap:
    """Shapley share of every agent inside every coalition it could join."""

    n_agents: int
    entries: dict[int, np.ndarray]  # mask -> shares aligned with sorted members

    def share(self, agent: int, coalition) -> float:
        mask = coalition if isinstance(coalition, int) else coalition_mask(coalition)
        members = coalition_members(mask)
        if agent not in members:
            raise KeyError(f"agent {agent} not in coalition {members}")
        try:
            shares = self.entries[mask]
        except KeyError:
            raise MissingCoalitionError(
                f"no payoff entry for coalition {members}") from None
        return float(shares[members.index(agent)])

    def standalone(self, agent: int) -> float:
        return self.share(agent, 1 << agent)


@dataclass(frozen=True)
class PriceRecord:
    """Settled charge of one agent at one step and the implied per-kWh price."""

    agent: int
    step: int
    charge: float
    net_energy: float
    price: float | None


def characteristic_function(storage_levels, scenario: Scenario, k: int,
                            horizon: int, loss_weight: float,
                            transfer_reg: float = DEFAULT_TRANSFER_REG,
                            ) -> CharacteristicFunction:
    """Price every nonempty coalition at step ``k`` over one horizon slice."""
    n = scenario.n_nodes
    if n > MAX_SWEEP_AGENTS:
        raise ValueError(f"exhaustive coalition sweep not supported for {n} agents")
    hs = slice_horizon(scenario, k, horizon)
    entries: dict[int, CoalitionEntry] = {}
    for mask in range(1, 1 << n):
        members = coalition_members(mask)
        try:
            breakdown, sol = coalition_value(members, storage_levels, scenario, hs,
                                             loss_weight, transfer_reg)
        except DispatchError as exc:
            raise DispatchError(f"coalition {members}: {exc}") from exc
        entries[mask] = CoalitionEntry(breakdown, sol)
    return CharacteristicFunction(n_agents=n, entries=entries)


def _value_getter(values):
    if isinstance(values, CharacteristicFunction):
        return values.value
    def get(mask: int) -> float:
        try:
            return values[mask]
        except KeyError:
            raise MissingCoalitionError(
                f"no value for coalition {coalition_members(mask)}") from None
    return get


def shapley_value(values, members) -> np.ndarray:
    """Shapley cost shares for the coalition ``members``.

    ``values`` maps coalition masks to costs (a dict or a
    :class:`CharacteristicFunction`) and must cover every nonempty subset
    of ``members``; the empty coalition is worth 0.  The weighted-subset
    form is used: each subset C not containing agent i contributes
    ``|C|! (m-|C|-1)! / m!`` times the marginal cost of i joining C.
    Returns shares aligned with the sorted member tuple; they sum to the
    coalition's own value.
    """
    members = tuple(sorted(members))
    m = len(members)
    if m == 0:
        raise ValueError("coalition must be nonempty")
    get = _value_getter(values)
    fact = [math.factorial(j) for j in range(m + 1)]
    full = coalition_mask(members)
    shares = np.zeros(m)

    sub = full
    while True:  # iterate every submask of full, including 0
        sub = (sub - 1) & full
        v_sub = get(sub) if sub else 0.0
        size = bin(sub).count("1")
        weight = fact[size] * fact[m - size - 1] / fact[m]
        for pos, agent in enumerate(members):
            bit = 1 << agent
            if not sub & bit:
                shares[pos] += weight * (get(sub | bit) - v_sub)
        if sub == 0:
            break
    return shares


def payoff_map(cf: CharacteristicFunction) -> PayoffMap:
    """Shapley shares inside every possible coalition of the full agent set."""
    entries = {}
    for mask in range(1, 1 << cf.n_agents):
        entries[mask] = shapley_value(cf, coalition_members(mask))
    return PayoffMap(n_agents=cf.n_agents, entries=entries)


def equivalent_price(charge: float, net_energy: float,
                     floor: float = PRICE_ENERGY_FLOOR) -> float | None:
    """Implied per-kWh price of a settled charge; None when the net energy is
    too small for a ratio to mean anything."""
    if abs(net_energy) <= floor:
        return None
    return charge / net_energy
