import sys

import numpy as np
import pytest
from helpers import surplus_deficit_pair

from coopgrid import dispatch
from coopgrid.errors import MissingCoalitionError
from coopgrid.game import (characteristic_function, coalition_mask,
                           coalition_members, equivalent_price, payoff_map,
                           shapley_value)
from coopgrid.oracles import permutation_shapley, random_cost_game
from coopgrid.scenario import generate_synthetic_scenario, slice_horizon


def test_mask_round_trip():
    assert coalition_mask((0, 3, 5)) == 0b101001
    assert coalition_members(0b101001) == (0, 3, 5)
    assert coalition_members(0) == ()


def test_members_match_a_bit_by_bit_walk():
    def bit_by_bit(mask):
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    rng = np.random.default_rng(5)
    masks = [0, 1, 1 << 62, 1 << 63, 1 << 64, (1 << 64) - 1, (1 << 63) | 1, 0b101001]
    masks += [int(m) for m in rng.integers(0, 1 << 63, 200, dtype=np.int64)]
    masks += [int(m) << 1 | 1 for m in rng.integers(0, 1 << 63, 200, dtype=np.int64)]
    for mask in masks:
        assert coalition_members(mask) == bit_by_bit(mask)
        assert coalition_mask(coalition_members(mask)) == mask


def test_single_agent_sweep():
    sc = generate_synthetic_scenario(2, n_nodes=1, n_steps=6)
    cf = characteristic_function(np.zeros(1), sc, slice_horizon(sc, 0, 5), 1e-4)
    assert set(cf) == set(cf.first_step) == {1}
    breakdown, plan = cf.pricing(1)
    assert plan.members == (0,) and breakdown.total == cf[1]


def test_three_agent_sweep_has_seven_entries():
    sc = generate_synthetic_scenario(2, n_nodes=3, n_steps=6)
    cf = characteristic_function(np.zeros(3), sc, slice_horizon(sc, 0, 5), 1e-4)
    assert len(cf) == 7
    assert set(cf) == set(cf.first_step) == set(range(1, 8))
    assert dict(cf) == {m: cf.pricing(m)[0].total for m in cf}


def test_pair_sweep_shows_merger_gain():
    sc = surplus_deficit_pair()
    cf = characteristic_function(np.zeros(2), sc, slice_horizon(sc, 0, 1), 1e-4)
    assert cf[0b11] < cf[0b01] + cf[0b10]


def test_two_player_closed_form():
    values = {0b01: 4.0, 0b10: 6.0, 0b11: 8.0}
    shares = shapley_value(values, (0, 1))
    assert shares[0] == pytest.approx(3.0, abs=1e-12)
    assert shares[1] == pytest.approx(5.0, abs=1e-12)


def test_singleton_share_is_exact():
    values = {0b1: 0.123456}
    assert shapley_value(values, (0,))[0] == 0.123456


def test_matches_permutation_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        game = random_cost_game(rng, n)
        members = tuple(range(n))
        got = shapley_value(game, members)
        want = permutation_shapley(game, members)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_efficiency_axiom():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        game = random_cost_game(rng, n)
        shares = shapley_value(game, tuple(range(n)))
        assert sum(shares) == pytest.approx(game[(1 << n) - 1], abs=1e-9)


def test_symmetry_axiom():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        # agents 0 and 1 interchangeable: the value depends only on how many
        # of them joined and on the rest of the coalition
        pooled = {}
        game = {}
        for mask in range(1, 1 << n):
            key = ((mask & 1) + (mask >> 1 & 1), mask & ~0b11)
            if key not in pooled:
                pooled[key] = float(rng.uniform(-5.0, 5.0))
            game[mask] = pooled[key]
        shares = shapley_value(game, tuple(range(n)))
        assert shares[0] == pytest.approx(shares[1], abs=1e-9)


def test_dummy_axiom():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        base = random_cost_game(rng, n)
        solo = float(rng.uniform(-2, 2))
        # agent n always contributes exactly `solo`
        game = dict(base)
        game[1 << n] = solo
        for mask, value in base.items():
            game[mask | 1 << n] = value + solo
        shares = shapley_value(game, tuple(range(n + 1)))
        assert shares[n] == pytest.approx(solo, abs=1e-9)


def test_additivity_axiom():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        v = random_cost_game(rng, n)
        w = random_cost_game(rng, n)
        combined = {mask: v[mask] + w[mask] for mask in v}
        members = tuple(range(n))
        got = shapley_value(combined, members)
        want = shapley_value(v, members) + shapley_value(w, members)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_missing_subset_is_named():
    values = {0b01: 1.0, 0b10: 2.0}  # pair value missing
    with pytest.raises(MissingCoalitionError, match=r"\(0, 1\)"):
        shapley_value(values, (0, 1))


def test_payoff_map_efficiency_and_standalone():
    sc = generate_synthetic_scenario(7, n_nodes=4, n_steps=6)
    cf = characteristic_function(np.zeros(4), sc, slice_horizon(sc, 0, 5), 1e-4)
    pm = payoff_map(cf)
    for mask, value in cf.items():
        members = coalition_members(mask)
        shares = [pm.share(i, members) for i in members]
        assert sum(shares) == pytest.approx(value, abs=1e-9 * max(1.0, abs(value)))
    for i in range(4):
        assert pm.standalone(i) == cf[1 << i]  # exact


def test_payoff_map_matches_permutation_oracle():
    rng = np.random.default_rng(12)
    for n in range(2, 7):
        game = random_cost_game(rng, n)
        pm = payoff_map(game)
        assert pm.n_agents == n
        for mask in game:
            members = coalition_members(mask)
            shares = np.array([pm.share(i, members) for i in members])
            assert np.max(np.abs(shares - permutation_shapley(game, members))) <= 1e-9
            # the map and a per-coalition call read the same potentials
            assert np.array_equal(shares, shapley_value(game, members))
        for i in range(n):
            assert pm.standalone(i) == game[1 << i]  # exact


def test_payoff_map_single_agent():
    sc = generate_synthetic_scenario(2, n_nodes=1, n_steps=6)
    cf = characteristic_function(np.zeros(1), sc, slice_horizon(sc, 0, 5), 1e-4)
    pm = payoff_map(cf)
    assert pm.share(0, (0,)) == cf[1]


def test_payoff_map_names_a_missing_grand_coalition():
    game = random_cost_game(np.random.default_rng(13), 3)
    del game[0b111]
    with pytest.raises(MissingCoalitionError, match=r"\(0, 1, 2\)"):
        payoff_map(game)


def test_share_outside_the_coalition_is_refused():
    pm = payoff_map({0b01: 4.0, 0b10: 6.0, 0b11: 8.0})
    with pytest.raises(KeyError, match="agent 1 not in coalition"):
        pm.share(1, (0,))


def test_equivalent_price():
    assert equivalent_price(0.2, 2.5) == pytest.approx(0.08)
    assert equivalent_price(0.5, 0.0) is None
    assert equivalent_price(0.5, 5e-7) is None
    assert equivalent_price(-0.15, -3.0) == pytest.approx(0.05)


def test_every_module_cache_starts_empty():
    # tests/conftest.py empties every functools cache of every coopgrid
    # module before each test, found by its cache_clear
    caches = [value for name, module in sys.modules.items() if name.split(".")[0] == "coopgrid"
              for value in vars(module).values() if hasattr(value, "cache_info")]
    assert coalition_members in caches and dispatch._layout in caches
    assert all(cache.cache_info().currsize == 0 for cache in caches)
    coalition_members(0b101)
    assert coalition_members.cache_info().currsize == 1
