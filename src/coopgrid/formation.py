"""Partition formation and exhaustive coalition-structure search.

``form_partition`` turns a payoff map into a partition of the agents by a
greedy top-coalition procedure: at each round, among the agents not yet
assigned, only coalitions in which every member weakly prefers its share
to going alone are considered, and the one with the greatest aggregate
improvement is locked in.  Ties go to smaller coalitions, then to the
lexicographically smallest member tuple, so the outcome is deterministic.

``enumerate_partitions`` streams every set partition via restricted
growth strings; ``optimal_structure`` scans them all for the cheapest
structure, which serves as the benchmark the greedy rule is compared
against.
"""

from dataclasses import dataclass
from typing import Iterator

from .game import PayoffMap, _cost, coalition_mask, coalition_members


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


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Every set partition of 0..n-1 exactly once, in lexicographic order of
    the restricted growth strings that encode them."""
    if n < 1:
        raise ValueError("need at least one agent")
    labels = [0] * n

    def emit() -> Partition:
        blocks: list[list[int]] = []
        for i, lab in enumerate(labels):
            if lab == len(blocks):
                blocks.append([i])
            else:
                blocks[lab].append(i)
        return Partition(blocks=tuple(tuple(b) for b in blocks))

    def rec(i: int, max_label: int) -> Iterator[Partition]:
        if i == n:
            yield emit()
            return
        for lab in range(max_label + 2):
            labels[i] = lab
            yield from rec(i + 1, max(max_label, lab))

    yield from rec(1, 0)


def structure_value(partition: Partition, values) -> StructureValue:
    """Aggregate cost of a partition: the sum of its block values in the
    mask -> cost mapping ``values``."""
    total = 0.0
    for block in partition.blocks:
        total += _cost(values, coalition_mask(block))
    return StructureValue(partition=partition, value=total)


def optimal_structure(values) -> StructureValue:
    """Exhaustive minimum-cost coalition structure of a mask -> cost mapping
    over agents 0..n-1, n read off its largest mask (first enumerated wins
    ties)."""
    n = max(values).bit_length()
    if n > 10:
        raise ValueError("exhaustive structure search capped at 10 agents")
    best = None
    for partition in enumerate_partitions(n):
        candidate = structure_value(partition, values)
        if best is None or candidate.value < best.value:
            best = candidate
    return best
