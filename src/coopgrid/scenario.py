"""Prosumer world model: per-node time series, tariffs, storage and geometry.

A scenario fixes everything a simulation run needs: hourly demand and
generation per node, per-node grid tariffs, storage limits and the
planar layout used to price transfer losses.  At every step each node's
sell price must stay strictly below every node's buy price, its own
included; that margin across nodes is what keeps every dispatch program
bounded.

Document format (JSON text): top-level fields ``step_hours``,
``start_hour`` and ``nodes``; each node carries ``id``, ``position``
(``{x_km, y_km}``), ``s_max_kwh``, ``s0_kwh`` and the four equal-length
flat series ``demand_kwh``, ``generation_kwh``, ``buy_price``, ``sell_price``.
Every value is a JSON number (``id`` an integer); strings, booleans and
nulls are rejected, and so are unknown fields.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ScenarioError

# generated tariffs keep at least this buy/sell margin, in CU/kWh
MIN_PRICE_MARGIN = 0.005

_TOP_FIELDS = {"step_hours", "start_hour", "nodes"}
_NODE_FIELDS = {"id", "position", "s_max_kwh", "s0_kwh",
                "demand_kwh", "generation_kwh", "buy_price", "sell_price"}
_POSITION_FIELDS = {"x_km", "y_km"}


@dataclass(eq=False)
class NodeProfile:
    """One prosumer: series are aligned kWh / CU-per-kWh arrays of equal length."""

    node_id: int
    position: tuple[float, float]
    storage_capacity: float
    storage_init: float
    demand: np.ndarray
    generation: np.ndarray
    buy_price: np.ndarray
    sell_price: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, NodeProfile):
            return NotImplemented
        return (self.node_id == other.node_id
                and self.position == other.position
                and self.storage_capacity == other.storage_capacity
                and self.storage_init == other.storage_init
                and np.array_equal(self.demand, other.demand)
                and np.array_equal(self.generation, other.generation)
                and np.array_equal(self.buy_price, other.buy_price)
                and np.array_equal(self.sell_price, other.sell_price))


@dataclass(eq=False)
class Scenario:
    nodes: list[NodeProfile]
    step_hours: float = 1.0
    start_hour: float = 7.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return (self.step_hours == other.step_hours
                and self.start_hour == other.start_hour
                and self.nodes == other.nodes)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_steps(self) -> int:
        return int(self.nodes[0].demand.size) if self.nodes else 0

    @property
    def positions(self) -> np.ndarray:
        return np.array([nd.position for nd in self.nodes], dtype=float)

    @property
    def storage_capacities(self) -> np.ndarray:
        return np.array([nd.storage_capacity for nd in self.nodes], dtype=float)

    @property
    def storage_init(self) -> np.ndarray:
        return np.array([nd.storage_init for nd in self.nodes], dtype=float)


@dataclass(frozen=True)
class HorizonSlice:
    """Per-node forecast windows; every series has exactly ``horizon`` entries."""

    node_ids: tuple[int, ...]
    demand: np.ndarray
    generation: np.ndarray
    buy_price: np.ndarray
    sell_price: np.ndarray

    @property
    def horizon(self) -> int:
        return int(self.demand.shape[1])

    def select(self, node_ids) -> "HorizonSlice":
        """Restrict the slice to the given node ids, in the given order.

        One node's slice is a view of this one's rows; more nodes get copies.
        """
        if len(node_ids) == 1:
            row = self.node_ids.index(node_ids[0])
            rows = slice(row, row + 1)
        else:
            rows = [self.node_ids.index(i) for i in node_ids]
        return HorizonSlice(
            node_ids=tuple(node_ids),
            demand=self.demand[rows],
            generation=self.generation[rows],
            buy_price=self.buy_price[rows],
            sell_price=self.sell_price[rows],
        )


def validate_scenario(scenario: Scenario) -> list[str]:
    """Collect every invariant violation; empty list means the scenario is usable."""
    issues: list[str] = []
    if not scenario.nodes:
        return ["scenario has no nodes"]
    if not (math.isfinite(scenario.step_hours) and scenario.step_hours > 0):
        issues.append(f"step_hours must be positive, got {scenario.step_hours}")
    if not math.isfinite(scenario.start_hour):
        issues.append(f"start_hour must be finite, got {scenario.start_hour}")

    ids = [nd.node_id for nd in scenario.nodes]
    if ids != list(range(len(ids))):
        issues.append(f"node ids must be exactly 0..{len(ids) - 1} in order, got {ids}")

    # expect the length most flat series share, so that one malformed series
    # is reported alone; node 0's demand decides only when no series is flat
    lengths = Counter(arr.size for nd in scenario.nodes
                      for arr in (nd.demand, nd.generation, nd.buy_price, nd.sell_price)
                      if arr.ndim == 1)
    n_steps = lengths.most_common(1)[0][0] if lengths else scenario.nodes[0].demand.size
    if n_steps < 1:
        issues.append("series must have at least one step")
    aligned = []  # nodes whose series pass the length and finiteness checks
    for nd in scenario.nodes:
        tag = f"node {nd.node_id}"
        series = {"demand_kwh": nd.demand, "generation_kwh": nd.generation,
                  "buy_price": nd.buy_price, "sell_price": nd.sell_price}
        n_issues = len(issues)
        for name, arr in series.items():
            if arr.shape != (n_steps,):
                issues.append(f"{tag}: {name} must be a flat list of {n_steps} numbers, "
                              f"got shape {arr.shape}")
            if not np.isfinite(arr).all():
                issues.append(f"{tag}: {name} contains non-finite values")
        if len(issues) > n_issues:
            continue  # per-step checks below assume aligned finite series
        aligned.append(nd)
        for t in np.flatnonzero(nd.demand < 0):
            issues.append(f"{tag}: demand_kwh[{t}] = {nd.demand[t]} is negative (step {t})")
            break
        for t in np.flatnonzero(nd.generation < 0):
            issues.append(f"{tag}: generation_kwh[{t}] = {nd.generation[t]} is negative (step {t})")
            break
        for t in np.flatnonzero(nd.sell_price < 0):
            issues.append(f"{tag}: sell_price[{t}] = {nd.sell_price[t]} is negative (step {t})")
            break
        if not (math.isfinite(nd.storage_capacity) and nd.storage_capacity >= 0):
            issues.append(f"{tag}: s_max_kwh must be nonnegative, got {nd.storage_capacity}")
        if not (0 <= nd.storage_init <= nd.storage_capacity):
            issues.append(f"{tag}: s0_kwh = {nd.storage_init} outside "
                          f"[0, {nd.storage_capacity}]")
        if len(nd.position) != 2 or not all(math.isfinite(v) for v in nd.position):
            issues.append(f"{tag}: position must be two finite coordinates")
    if aligned:
        crossed = crossed_tariffs(np.stack([nd.buy_price for nd in aligned]),
                                  np.stack([nd.sell_price for nd in aligned]),
                                  [nd.node_id for nd in aligned])
        issues += [f"step {t}: {clash}" for t, clash in crossed]
    return issues


def crossed_tariffs(buy_price, sell_price, node_ids) -> list[tuple[int, str]]:
    """Steps where the highest sell price is not below the lowest buy price.

    Internal trades carry no price, so a sell price at or above a buy
    price, one node's own or two nodes', lets a coalition holding both buy
    at one tariff and sell at the other without bound.  ``buy_price`` and
    ``sell_price`` are (nodes, steps) arrays with rows in ``node_ids``
    order; each step comes with a message naming the selling and the
    buying node.
    """
    seller, buyer = np.argmax(sell_price, axis=0), np.argmin(buy_price, axis=0)
    return [(int(t), f"node {node_ids[seller[t]]} sell_price[{t}] = "
                     f"{sell_price[seller[t], t]} must stay below node "
                     f"{node_ids[buyer[t]]} buy_price[{t}] = {buy_price[buyer[t], t]}")
            for t in np.flatnonzero(sell_price.max(axis=0) >= buy_price.min(axis=0))]


def _field(doc: dict, name: str, kinds=(int, float)):
    """``doc[name]`` if it is a JSON number of ``kinds``, or lists of them
    nested at most twice; strings, booleans and nulls are refused."""
    value = doc[name]
    for row in value if isinstance(value, list) else [value]:
        for item in row if isinstance(row, list) else [row]:
            if isinstance(item, bool) or not isinstance(item, kinds):
                raise ScenarioError(f"{name}: {item!r} is not a JSON "
                                    f"{'integer' if kinds is int else 'number'}")
    return value


def _node_from_doc(doc: dict, index: int) -> NodeProfile:
    if not isinstance(doc, dict):
        raise ScenarioError(f"nodes[{index}] must be an object")
    unknown = set(doc) - _NODE_FIELDS
    if unknown:
        raise ScenarioError(f"nodes[{index}]: unknown field(s) {sorted(unknown)}")
    missing = _NODE_FIELDS - set(doc)
    if missing:
        raise ScenarioError(f"nodes[{index}]: missing field(s) {sorted(missing)}")
    pos = doc["position"]
    if not isinstance(pos, dict) or set(pos) != _POSITION_FIELDS:
        raise ScenarioError(f"nodes[{index}]: position must have exactly fields "
                            f"{sorted(_POSITION_FIELDS)}")
    try:
        return NodeProfile(
            node_id=int(_field(doc, "id", int)),
            position=(float(_field(pos, "x_km")), float(_field(pos, "y_km"))),
            storage_capacity=float(_field(doc, "s_max_kwh")),
            storage_init=float(_field(doc, "s0_kwh")),
            demand=np.asarray(_field(doc, "demand_kwh"), dtype=float),
            generation=np.asarray(_field(doc, "generation_kwh"), dtype=float),
            buy_price=np.asarray(_field(doc, "buy_price"), dtype=float),
            sell_price=np.asarray(_field(doc, "sell_price"), dtype=float),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"nodes[{index}]: bad field value ({exc})") from exc


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; raises ScenarioError with the
    offending field, node and step named."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ScenarioError(f"unknown top-level field(s) {sorted(unknown)}")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise ScenarioError(f"missing top-level field(s) {sorted(missing)}")
    if not isinstance(doc["nodes"], list) or not doc["nodes"]:
        raise ScenarioError("nodes must be a nonempty list")
    try:
        step_hours = float(_field(doc, "step_hours"))
        start_hour = float(_field(doc, "start_hour"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"bad step_hours/start_hour value ({exc})") from exc
    nodes = [_node_from_doc(nd, i) for i, nd in enumerate(doc["nodes"])]
    scenario = Scenario(nodes=nodes, step_hours=step_hours, start_hour=start_hour)
    issues = validate_scenario(scenario)
    if issues:
        raise ScenarioError("; ".join(issues))
    return scenario


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to document text; load/serialize round-trips exactly."""
    doc = {
        "step_hours": float(scenario.step_hours),
        "start_hour": float(scenario.start_hour),
        "nodes": [
            {
                "id": nd.node_id,
                "position": {"x_km": nd.position[0], "y_km": nd.position[1]},
                "s_max_kwh": nd.storage_capacity,
                "s0_kwh": nd.storage_init,
                "demand_kwh": [float(v) for v in nd.demand],
                "generation_kwh": [float(v) for v in nd.generation],
                "buy_price": [float(v) for v in nd.buy_price],
                "sell_price": [float(v) for v in nd.sell_price],
            }
            for nd in scenario.nodes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _bump(hours: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((hours - center) / width) ** 2)


def generate_synthetic_scenario(seed: int, n_nodes: int = 8, n_steps: int = 17) -> Scenario:
    """Deterministically synthesize an hourly scenario from a seed, starting at 07:00.

    Demand follows a morning/evening double peak, generation a midday
    bell, and every node sees its own tariff level (so trading access to a
    cheaper tariff is worthwhile, not just surplus/deficit matching).
    Tariffs always keep ``buy - sell >= MIN_PRICE_MARGIN``.  Nodes sit in
    two rows 0.5 km apart with 0.5 km in-row spacing.
    """
    if n_nodes < 1 or n_steps < 1:
        raise ValueError("n_nodes and n_steps must be at least 1")
    rng = np.random.default_rng(seed)
    hours = (7.0 + np.arange(n_steps)) % 24.0
    row_len = math.ceil(n_nodes / 2)
    # the profile shapes depend on the hours alone, so every node shares them;
    # each node's series applies its draws to them in the same operations
    morning_peak = _bump(hours, 8.0, 1.5)
    evening_peak = _bump(hours, 20.0, 2.2)
    midday_sun = _bump(hours, 13.5, 2.5)
    tariff_shape = 0.066 + 0.016 * _bump(hours, 9.0, 2.0) + 0.024 * evening_peak

    nodes = []
    for i in range(n_nodes):
        position = (0.5 * (i % row_len), 0.5 * (i // row_len))
        cap = float(rng.uniform(2.0, 4.0))

        d_scale = rng.uniform(0.8, 1.3)
        morning = rng.uniform(0.7, 1.1)
        evening = rng.uniform(1.1, 1.7)
        d_noise = rng.uniform(0.92, 1.08, n_steps)
        demand = d_scale * (0.35 + morning * morning_peak + evening * evening_peak) * d_noise

        # peak output kept below daily demand so every node stays a net buyer
        g_max = rng.uniform(0.6, 1.7)
        g_noise = rng.uniform(0.9, 1.1, n_steps)
        generation = g_max * midday_sun * g_noise

        tariff_scale = rng.uniform(0.94, 1.06)
        buy = tariff_scale * tariff_shape
        gamma = rng.uniform(0.55, 0.68)
        sell = gamma * buy

        nodes.append(NodeProfile(
            node_id=i,
            position=position,
            storage_capacity=cap,
            storage_init=0.0,
            demand=demand,
            generation=generation,
            buy_price=buy,
            sell_price=sell,
        ))

    scenario = Scenario(nodes=nodes)
    issues = validate_scenario(scenario)
    if issues:  # generator bug, not user error
        raise ScenarioError("generated scenario failed validation: " + "; ".join(issues))
    return scenario


def reference_scenario() -> Scenario:
    """The bundled 8-node, 17-step reference scenario (start hour 7)."""
    text = resources.files("coopgrid").joinpath("data/reference_scenario.json").read_text()
    return load_scenario(text)


def slice_horizon(scenario: Scenario, k: int, horizon: int) -> HorizonSlice:
    """Forecast window of length ``horizon`` starting at step ``k``.

    Entries past the end of the recorded series hold the last available
    value, keeping program dimensions fixed near the end of a run.
    """
    n_steps = scenario.n_steps
    if not 0 <= k < n_steps:
        raise IndexError(f"step {k} outside 0..{n_steps - 1}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    idx = np.minimum(k + np.arange(horizon), n_steps - 1)
    return HorizonSlice(
        node_ids=tuple(range(scenario.n_nodes)),
        demand=np.stack([nd.demand[idx] for nd in scenario.nodes]),
        generation=np.stack([nd.generation[idx] for nd in scenario.nodes]),
        buy_price=np.stack([nd.buy_price[idx] for nd in scenario.nodes]),
        sell_price=np.stack([nd.sell_price[idx] for nd in scenario.nodes]),
    )
