import hashlib
import json
import math

import numpy as np
import pytest
from helpers import make_node, make_scenario, world_digest

from coopgrid.errors import ScenarioError
from coopgrid.scenario import (MIN_PRICE_MARGIN, generate_synthetic_scenario,
                               load_scenario, serialize_scenario, slice_horizon,
                               validate_scenario)
from coopgrid.sim import SimConfig, SimMode, run

MINIMAL_DOC = json.dumps({
    "step_hours": 1.0,
    "start_hour": 7.0,
    "nodes": [{
        "id": 0,
        "position": {"x_km": 0.0, "y_km": 0.0},
        "s_max_kwh": 2.0,
        "s0_kwh": 0.0,
        "demand_kwh": [1.0, 2.0],
        "generation_kwh": [0.0, 0.5],
        "buy_price": [0.08, 0.08],
        "sell_price": [0.05, 0.05],
    }],
})


def test_load_minimal_document():
    scenario = load_scenario(MINIMAL_DOC)
    assert scenario.n_nodes == 1
    assert scenario.n_steps == 2
    assert scenario.nodes[0].buy_price[0] == 0.08


def test_bad_tariff_names_node_and_step():
    scenario = generate_synthetic_scenario(5, n_nodes=4, n_steps=8)
    doc = json.loads(serialize_scenario(scenario))
    doc["nodes"][3]["buy_price"][5] = 0.08
    doc["nodes"][3]["sell_price"][5] = 0.09
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(doc))
    assert "node 3" in str(err.value)
    assert "step 5" in str(err.value)


def test_crossed_tariffs_between_nodes_rejected():
    # each node keeps its own buy > sell, but node 1 sells above node 0's buy
    # price at step 1, so a coalition of the two could trade without bound
    nodes = [make_node(0, [1.0, 1.0], [0.0, 0.0], [0.08, 0.08], [0.05, 0.05]),
             make_node(1, [1.0, 1.0], [0.0, 0.0], [0.12, 0.12], [0.05, 0.09])]
    issues = validate_scenario(make_scenario(nodes))
    assert len(issues) == 1
    assert "step 1" in issues[0]
    assert "node 1" in issues[0] and "node 0" in issues[0]
    with pytest.raises(ScenarioError, match="step 1"):
        run(make_scenario(nodes), SimConfig(mode=SimMode.COALITIONAL))


def test_crossed_tariff_steps_match_pairwise_search():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n, steps = int(rng.integers(2, 6)), 6
        buy = rng.uniform(0.05, 0.15, (n, steps))
        sell = buy * rng.uniform(0.3, 1.05, (n, steps))
        nodes = [make_node(i, [1.0] * steps, [0.0] * steps, buy[i], sell[i])
                 for i in range(n)]
        flagged = {int(issue.split(":")[0].split()[1])
                   for issue in validate_scenario(make_scenario(nodes))}
        crossed = {t for t in range(steps) for i in range(n) for j in range(n)
                   if sell[i, t] >= buy[j, t]}
        assert flagged == crossed


SERIES = ("demand_kwh", "generation_kwh", "buy_price", "sell_price")


@pytest.mark.parametrize("reshape", [
    lambda values: [[v] for v in values],  # nested: still two numbers per series
    lambda values: values[0],              # scalar
], ids=["nested", "scalar"])
def test_series_that_are_not_flat_lists_rejected(reshape):
    doc = json.loads(MINIMAL_DOC)
    for name in SERIES:
        doc["nodes"][0][name] = reshape(doc["nodes"][0][name])
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(doc))
    for name in SERIES:
        assert f"node 0: {name} must be a flat list" in str(err.value)


def test_one_malformed_series_is_reported_alone():
    # node 0's demand is nested 2 x 4; the eleven flat 4-step series are fine
    doc = json.loads(serialize_scenario(generate_synthetic_scenario(3, n_nodes=3, n_steps=4)))
    demand = doc["nodes"][0]["demand_kwh"]
    doc["nodes"][0]["demand_kwh"] = [demand, demand]
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(doc))
    issues = str(err.value).split("; ")
    assert len(issues) == 1
    assert issues[0].startswith("node 0: demand_kwh must be a flat list of 4 numbers")


@pytest.mark.parametrize("field, value", [
    ("id", 1.5),
    ("id", "1"),
    ("id", True),
    ("s_max_kwh", "3"),
    ("step_hours", "1"),
    ("demand_kwh", ["1", "2", "0.5"]),
    ("demand_kwh", [True, False, True]),
])
def test_values_that_are_not_numbers_rejected(field, value):
    # each would otherwise convert to a number: node 1 or 1 h or 3 kWh
    doc = json.loads(serialize_scenario(generate_synthetic_scenario(3, n_nodes=2, n_steps=3)))
    node = doc["nodes"][1]
    (node if field in node else doc)[field] = value
    where = r"nodes\[1\]: .*\b" if field in node else ""
    with pytest.raises(ScenarioError, match=where + f"{field}: .* is not a JSON"):
        load_scenario(json.dumps(doc))


def test_unknown_field_rejected():
    doc = json.loads(MINIMAL_DOC)
    doc["nodes"][0]["color"] = "red"
    with pytest.raises(ScenarioError, match="unknown field"):
        load_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    doc["comment"] = "hi"
    with pytest.raises(ScenarioError, match="unknown top-level field"):
        load_scenario(json.dumps(doc))


def test_missing_field_rejected():
    doc = json.loads(MINIMAL_DOC)
    del doc["nodes"][0]["s0_kwh"]
    with pytest.raises(ScenarioError, match="missing field"):
        load_scenario(json.dumps(doc))


def test_malformed_text_rejected():
    with pytest.raises(ScenarioError, match="malformed"):
        load_scenario("{not json")


def test_number_too_large_for_a_float_rejected():
    doc = json.loads(serialize_scenario(generate_synthetic_scenario(3, n_nodes=2, n_steps=3)))
    doc["nodes"][1]["s_max_kwh"] = 10 ** 400  # a 401-digit JSON integer
    with pytest.raises(ScenarioError, match=r"nodes\[1\]: bad field value .*too large"):
        load_scenario(json.dumps(doc))


def test_crossed_storage_rejected():
    doc = json.loads(MINIMAL_DOC)
    doc["nodes"][0]["s0_kwh"] = 5.0
    with pytest.raises(ScenarioError, match="s0_kwh"):
        load_scenario(json.dumps(doc))


def test_round_trip():
    scenario = generate_synthetic_scenario(9, n_nodes=5, n_steps=12)
    again = load_scenario(serialize_scenario(scenario))
    assert again == scenario


def test_generator_deterministic_in_seed():
    a = generate_synthetic_scenario(1, 8, 17)
    b = generate_synthetic_scenario(1, 8, 17)
    assert a == b
    c = generate_synthetic_scenario(2, 8, 17)
    assert not np.array_equal(a.nodes[0].demand, c.nodes[0].demand)


# world_digest of the benchmark's generated worlds: grid-storage-wide at
# seeds 1 and 2, and the 48 reform-mixed worlds of seeds 1 and 2 in one
# SHA-256 over their digests; any change to a draw or an operation moves them
PINNED_WORLDS = {
    (1, 64, 48): "c9f9d866ab01652a6b4a86a10a4bace634e7d703e00ea8c809f48c89347458cb",
    (2, 64, 48): "32a43488ff596131325797ec6d50ef22a746cb1b4553477fb922acf771937f5d",
}
PINNED_REFORM_WORLDS = "82b5409c35efe2cfbe806fb3a30250666b681d685a0735d06c5a3203202129d8"


def test_generated_benchmark_worlds_are_pinned():
    for (seed, nodes, steps), want in PINNED_WORLDS.items():
        assert world_digest(generate_synthetic_scenario(seed, nodes, steps)) == want
    h = hashlib.sha256()
    for seed in range(24, 72):
        h.update(world_digest(generate_synthetic_scenario(seed, 6, 6)).encode())
    assert h.hexdigest() == PINNED_REFORM_WORLDS


def test_misaligned_node_skips_its_per_step_checks():
    # node 1 has a short series and a NaN; its negative demand and its
    # storage above capacity are not reported, node 2's negative output is
    good = make_node(0, [1.0, 1.0, 1.0], [0.0, 0.5, 0.0], [0.1] * 3, [0.05] * 3)
    bad = make_node(1, [-1.0, 1.0, 1.0], [0.0, 0.5], [0.1, math.nan, 0.1], [0.05] * 3,
                    cap=1.0, s0=2.0)
    negative = make_node(2, [1.0, 1.0, 1.0], [0.0, 0.5, -0.5], [0.1] * 3, [0.05] * 3)
    assert validate_scenario(make_scenario([good, bad, negative])) == [
        "node 1: generation_kwh must be a flat list of 3 numbers, got shape (2,)",
        "node 1: buy_price contains non-finite values",
        "node 2: generation_kwh[2] = -0.5 is negative (step 2)",
    ]


def test_generator_margin_and_validity():
    for seed in range(6):
        scenario = generate_synthetic_scenario(seed, n_nodes=6, n_steps=20)
        assert validate_scenario(scenario) == []
        for node in scenario.nodes:
            assert np.all(node.buy_price - node.sell_price >= MIN_PRICE_MARGIN)


def test_generator_every_node_net_buyer():
    # keeps the Table-3 style price comparison defined for every agent
    for seed in range(4):
        scenario = generate_synthetic_scenario(seed)
        for node in scenario.nodes:
            assert node.demand.sum() > node.generation.sum()


def test_reference_scenario_shape(ref_scenario):
    assert ref_scenario.n_nodes == 8
    assert ref_scenario.n_steps == 17
    assert ref_scenario.start_hour == 7.0
    assert validate_scenario(ref_scenario) == []


def test_slice_copies_within_range(ref_scenario):
    hs = slice_horizon(ref_scenario, 0, 5)
    assert hs.horizon == 5
    assert np.array_equal(hs.demand[2], ref_scenario.nodes[2].demand[0:5])


def test_slice_pads_with_last_value(ref_scenario):
    hs = slice_horizon(ref_scenario, 15, 5)
    node = ref_scenario.nodes[0]
    assert hs.demand[0, 0] == node.demand[15]
    assert hs.demand[0, 1] == node.demand[16]
    assert np.all(hs.demand[0, 2:] == node.demand[16])
    hs = slice_horizon(ref_scenario, 16, 5)
    assert np.all(hs.buy_price[0] == node.buy_price[16])


def test_slice_rejects_out_of_range(ref_scenario):
    with pytest.raises(IndexError):
        slice_horizon(ref_scenario, 17, 5)
    with pytest.raises(IndexError):
        slice_horizon(ref_scenario, -1, 5)


def test_slice_select_subset(ref_scenario):
    hs = slice_horizon(ref_scenario, 3, 4)
    sub = hs.select((2, 5))
    assert sub.node_ids == (2, 5)
    assert np.array_equal(sub.demand[1], hs.demand[5])
