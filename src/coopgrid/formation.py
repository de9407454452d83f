"""Partition formation and exact coalition-structure search.

``form_partition`` turns a payoff map into a partition of the agents by a
greedy top-coalition procedure: at each round, among the agents not yet
assigned, only coalitions in which every member weakly prefers its share
to going alone are considered, and the one with the greatest aggregate
improvement is locked in.  Ties go to smaller coalitions, then to the
lexicographically smallest member tuple, so the outcome is deterministic.

``optimal_structure`` finds the cheapest structure by dynamic programming
over subsets, the benchmark the greedy rule is compared against.
"""

from dataclasses import dataclass

from .game import MAX_SWEEP_AGENTS, PayoffMap, _cost, coalition_mask, coalition_members


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks; canonical order (by smallest member) enforced."""

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, blocks) -> "Partition":
        canon = tuple(sorted((tuple(sorted(int(i) for i in b)) for b in blocks),
                             key=lambda b: b[0] if b else -1))
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            if seen.intersection(block):
                raise ValueError(f"partition blocks overlap at {sorted(seen.intersection(block))}")
            seen.update(block)
        return cls(blocks=canon)

    @property
    def agents(self) -> tuple[int, ...]:
        return tuple(sorted(i for b in self.blocks for i in b))

    def covers(self, n_agents: int) -> bool:
        return self.agents == tuple(range(n_agents))

    def block_of(self, agent: int) -> tuple[int, ...]:
        for block in self.blocks:
            if agent in block:
                return block
        raise KeyError(f"agent {agent} not in partition")


@dataclass(frozen=True)
class StructureValue:
    partition: Partition
    value: float


def form_partition(pm: PayoffMap) -> Partition:
    """Greedy top-coalition formation from the payoff map.

    The result is individually rational: no agent is assigned a block in
    which its share exceeds its standalone cost.  Singletons are always
    admissible, so the procedure terminates in at most ``n_agents`` rounds.
    """
    n = pm.n_agents
    pot = pm.potentials
    standalone = [pm.standalone(i) for i in range(n)]
    remaining = (1 << n) - 1
    blocks: list[tuple[int, ...]] = []
    while remaining:
        best_key = None
        best_members = None
        sub = remaining
        while sub:
            members = coalition_members(sub)
            improvement = 0.0
            rational = True
            for agent in members:
                delta = pot[sub] - pot[sub ^ 1 << agent] - standalone[agent]
                if delta > 0.0:
                    rational = False
                    break
                improvement += delta
            if rational:
                key = (improvement, len(members), members)
                if best_key is None or key < best_key:
                    best_key = key
                    best_members = members
            sub = (sub - 1) & remaining
        blocks.append(best_members)
        remaining &= ~coalition_mask(best_members)
    return Partition.from_blocks(blocks)


def structure_value(partition: Partition, values) -> StructureValue:
    """Aggregate cost of a partition: the sum of its block values in the
    mask -> cost mapping ``values``."""
    total = 0.0
    for block in partition.blocks:
        total += _cost(values, coalition_mask(block))
    return StructureValue(partition=partition, value=total)


def optimal_structure(values) -> StructureValue:
    """Minimum-cost coalition structure of a mask -> cost mapping over
    agents 0..n-1, n read off its largest mask.

    For every mask M in increasing order, best(M) is the least of
    v(B) + best(M - B) over the blocks B within M that hold M's lowest
    agent, O(3^n) in all; on a tie the smallest B in mask order wins.  The
    value returned is the chosen partition's :func:`structure_value`, summed
    in block order like any other partition's, so a greedy partition that is
    optimal is exactly as costly.
    """
    n = max(values).bit_length()
    if n > MAX_SWEEP_AGENTS:
        raise ValueError(f"structure search not supported for {n} agents")
    cost = [0.0] + [_cost(values, mask) for mask in range(1, 1 << n)]
    best = [0.0] * (1 << n)
    chosen = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        block, least = low, cost[low] + best[rest]
        sub = 0
        while sub != rest:
            sub = (sub - rest) & rest  # the submasks of rest, in increasing order
            total = cost[low | sub] + best[rest ^ sub]
            if total < least:
                block, least = low | sub, total
        best[mask], chosen[mask] = least, block
    blocks = []
    mask = (1 << n) - 1
    while mask:
        blocks.append(coalition_members(chosen[mask]))
        mask ^= chosen[mask]
    return structure_value(Partition.from_blocks(blocks), values)
