import numpy as np
import pytest

from coopgrid.errors import MissingCoalitionError
from coopgrid.formation import Partition, form_partition, optimal_structure, structure_value
from coopgrid.game import MAX_SWEEP_AGENTS, coalition_mask, coalition_members, payoff_map
from coopgrid.oracles import (_partitions_by_insertion, best_partition_by_enumeration,
                              random_cost_game)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def test_partition_canonical_form():
    p = Partition.from_blocks([(3, 1), (0, 2)])
    assert p.blocks == ((0, 2), (1, 3))
    assert p.block_of(3) == (1, 3)
    assert p.covers(4)
    assert not p.covers(5)


def test_partition_rejects_overlap_and_empty():
    with pytest.raises(ValueError, match="overlap"):
        Partition.from_blocks([(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="nonempty"):
        Partition.from_blocks([(), (0,)])


def test_singleton_lovers_stay_alone():
    n = 3
    values = {}
    for mask in range(1, 1 << n):
        members = coalition_members(mask)
        # any merger costs strictly more than going alone
        values[mask] = float(len(members) ** 2)
    assert form_partition(payoff_map(values)).blocks == ((0,), (1,), (2,))


def test_mutual_pair_forms():
    # shares 3 and 5 in the pair beat 4 and 6 alone
    pm = payoff_map({0b01: 4.0, 0b10: 6.0, 0b11: 8.0})
    assert form_partition(pm).blocks == ((0, 1),)


def test_formed_partitions_are_individually_rational():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        values = random_cost_game(rng, n)
        pm = payoff_map(values)
        partition = form_partition(pm)
        assert partition.covers(n)
        for agent in range(n):
            block = partition.block_of(agent)
            assert pm.share(agent, block) <= pm.standalone(agent) + 1e-12


def test_enumerate_partition_counts():
    for n, bell in BELL.items():
        assert sum(1 for _ in _partitions_by_insertion(list(range(n)))) == bell


def test_enumerate_partitions_unique_and_valid():
    seen = set()
    for part in _partitions_by_insertion(list(range(4))):
        p = Partition.from_blocks(part)
        assert p.covers(4)
        assert p.blocks not in seen
        seen.add(p.blocks)
    assert len(seen) == BELL[4]


def test_structure_value_sums_blocks():
    values = random_cost_game(np.random.default_rng(15), 4)
    singles = Partition.from_blocks([(i,) for i in range(4)])
    sv = structure_value(singles, values)
    assert sv.value == pytest.approx(sum(values[1 << i] for i in range(4)))
    grand = Partition.from_blocks([tuple(range(4))])
    assert structure_value(grand, values).value == values[0b1111]
    with pytest.raises(MissingCoalitionError, match=r"\(0, 1\)"):
        structure_value(Partition.from_blocks([(0, 1), (2, 3)]), {})


def test_optimal_structure_extremes():
    n = 4
    # strictly subadditive in cost: merging always helps -> grand coalition
    sub = {mask: -float(len(coalition_members(mask)) ** 2)
           for mask in range(1, 1 << n)}
    best = optimal_structure(sub)
    assert best.partition.blocks == (tuple(range(n)),)
    # strictly superadditive in cost: merging always hurts -> singletons
    sup = {mask: float(len(coalition_members(mask)) ** 2)
           for mask in range(1, 1 << n)}
    best = optimal_structure(sup)
    assert best.partition.blocks == tuple((i,) for i in range(n))


def test_optimal_structure_matches_independent_enumeration():
    rng = np.random.default_rng(16)
    for n in range(2, 9):
        for _ in range(4):
            values = random_cost_game(rng, n)
            got = optimal_structure(values)
            blocks, value = best_partition_by_enumeration(values, n)
            assert got.partition.blocks == blocks
            assert got.value == pytest.approx(value, abs=1e-12)


def test_optimal_structure_on_tied_integer_costs():
    rng = np.random.default_rng(19)
    n = 6
    # few distinct integer costs, so many structures share the least one
    values = {mask: float(rng.integers(-2, 3)) for mask in range(1, 1 << n)}
    got = optimal_structure(values)
    ties = [part for part in _partitions_by_insertion(list(range(n)))
            if sum(values[coalition_mask(b)] for b in part) == got.value]
    assert len(ties) > 1
    assert got.value == best_partition_by_enumeration(values, n)[1]
    assert got.value == structure_value(got.partition, values).value
    assert optimal_structure(values).partition == got.partition
    # all structures tie at zero: the smallest block in mask order, {0}, wins
    # at every mask, so the search returns the singletons
    zeros = dict.fromkeys(range(1, 1 << n), 0.0)
    assert optimal_structure(zeros).partition.blocks == tuple((i,) for i in range(n))


def test_optimal_structure_names_a_missing_coalition():
    values = random_cost_game(np.random.default_rng(20), 3)
    del values[0b101]
    with pytest.raises(MissingCoalitionError, match=r"\(0, 2\)"):
        optimal_structure(values)


def test_optimal_structure_refuses_more_agents_than_a_sweep_before_any_lookup():
    class Unread(dict):
        def __getitem__(self, mask):
            raise AssertionError(f"looked up {mask}")

    with pytest.raises(ValueError, match="not supported"):
        optimal_structure(Unread({1 << MAX_SWEEP_AGENTS: 0.0}))


def test_optimal_structure_of_twelve_agents_is_a_cover_at_its_own_value():
    values = random_cost_game(np.random.default_rng(21), 12)
    got = optimal_structure(values)
    assert got.partition.covers(12)
    assert got.value == structure_value(got.partition, values).value


def test_optimal_structure_value_is_summed_left_to_right():
    # the singletons are cheapest; their sum in block order, 0.1 + 0.2 + 0.3,
    # is one ulp above the 0.6 the recursion adds up from the last block
    values = {0b001: 0.1, 0b010: 0.2, 0b100: 0.3}
    values.update({mask: 1.0 for mask in (0b011, 0b101, 0b110, 0b111)})
    got = optimal_structure(values)
    assert got.partition.blocks == ((0,), (1,), (2,))
    assert got.value == 0.1 + 0.2 + 0.3
    assert got.value != 0.1 + (0.2 + 0.3)


def test_aggregate_never_worse_than_defection():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        values = random_cost_game(rng, n)
        partition = form_partition(payoff_map(values))
        formed = structure_value(partition, values).value
        singles = sum(values[1 << i] for i in range(n))
        assert formed <= singles + 1e-9