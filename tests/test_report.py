import dataclasses
import json

import numpy as np
import pytest
from helpers import make_node, make_scenario

from coopgrid import cli
from coopgrid.cli import main
from coopgrid.formation import optimal_structure
from coopgrid.lp import solve_lp
from coopgrid.report import summarize_prices, trace_label, write_reports
from coopgrid.scenario import generate_synthetic_scenario, serialize_scenario
from coopgrid.sim import SimConfig, SimMode, run


@pytest.fixture(scope="module")
def small_traces():
    scenario = generate_synthetic_scenario(21, n_nodes=3, n_steps=6)
    configs = [
        SimConfig(mode=SimMode.GRID_ONLY),
        SimConfig(mode=SimMode.GRID_STORAGE),
        SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-5, horizon=3),
    ]
    return scenario, [run(scenario, cfg) for cfg in configs]


def test_labels():
    assert trace_label(run(generate_synthetic_scenario(1, 1, 2),
                           SimConfig(mode=SimMode.GRID_ONLY))) == "grid-only"
    trace = run(generate_synthetic_scenario(1, 1, 2),
                SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-5, horizon=2))
    assert trace_label(trace) == "coalitional(rho=1e-05)"


def test_average_price_matches_buying_steps():
    # one node always buying: average equals the mean spot price of the
    # steps where it bought
    node = make_node(0, [2.0, 1.0, 3.0], [0.0, 0.0, 0.0],
                     [0.08, 0.10, 0.06], [0.05, 0.05, 0.05])
    trace = run(make_scenario([node]), SimConfig(mode=SimMode.GRID_ONLY, horizon=2))
    prices = summarize_prices(trace)
    assert prices[0] == pytest.approx((0.08 + 0.10 + 0.06) / 3, abs=1e-12)


def test_average_price_missing_for_non_buyers():
    node = make_node(0, [1.0, 1.0], [1.0, 1.0], [0.1, 0.1], [0.05, 0.05])
    trace = run(make_scenario([node]), SimConfig(mode=SimMode.GRID_ONLY, horizon=2))
    assert summarize_prices(trace)[0] is None


def test_write_reports_round_trip(tmp_path, small_traces):
    scenario, traces = small_traces
    out = tmp_path / "reports"
    manifest = write_reports(traces, out, scenario_source="unit-test")
    assert manifest.verify() == []
    for name in ("partitions.csv", "costs.csv", "prices.csv", "flows.csv",
                 "manifest.json"):
        assert (out / name).is_file()

    # prices.csv carries one row per agent per trace label (three-column study shape)
    lines = (out / "prices.csv").read_text().splitlines()
    assert lines[0] == "agent,label,avg_buy_price"
    labels = {line.split(",")[1] for line in lines[1:]}
    assert labels == {"grid-only", "grid-storage", "coalitional(rho=1e-05)"}
    assert len(lines) - 1 == 3 * traces[0].n_agents

    # costs.csv regurgitates the trace cumulative costs losslessly
    for line in (out / "costs.csv").read_text().splitlines()[1:]:
        agent, label, value = line.split(",")
        trace = traces[[trace_label(t) for t in traces].index(label)]
        assert float(value) == trace.cumulative_costs[int(agent)]

    doc = json.loads((out / "manifest.json").read_text())
    assert doc["scenario_source"] == "unit-test"
    assert set(doc["files"]) == {"partitions.csv", "costs.csv", "prices.csv",
                                 "flows.csv"}


def test_reports_are_byte_stable(tmp_path, small_traces):
    _, traces = small_traces
    first = write_reports(traces, tmp_path / "a")
    second = write_reports(traces, tmp_path / "b")
    assert first.digests == second.digests


def test_write_reports_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_reports([], tmp_path)
    assert not (tmp_path / "costs.csv").exists()


def test_write_reports_rejects_repeated_labels(tmp_path, small_traces):
    _, traces = small_traces
    with pytest.raises(ValueError, match="repeat the labels"):
        write_reports(traces + traces[:1], tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_cli_generate_run(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--generate", "--seed", "1", "--nodes", "3", "--steps", "4",
                 "--mode", "coalitional", "--rho", "1e-5", "--horizon", "2",
                 "--out", str(out)])
    assert code == 0
    assert (out / "manifest.json").is_file()
    assert "wrote" in capsys.readouterr().out


def test_cli_multi_mode_and_determinism(tmp_path):
    args = ["--generate", "--seed", "2", "--nodes", "3", "--steps", "4",
            "--mode", "grid-only,grid-storage,coalitional", "--horizon", "2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("partitions.csv", "costs.csv", "prices.csv", "flows.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_missing_scenario_file(tmp_path, capsys):
    code = main(["--scenario", str(tmp_path / "missing.file"), "--out",
                 str(tmp_path / "out")])
    assert code == 2
    assert "missing.file" in capsys.readouterr().err


def test_cli_bad_tariff_names_node_and_step(tmp_path, capsys):
    scenario = generate_synthetic_scenario(5, n_nodes=4, n_steps=8)
    doc = json.loads(serialize_scenario(scenario))
    doc["nodes"][1]["buy_price"][2] = 0.03
    path = tmp_path / "bad_tariff.json"
    path.write_text(json.dumps(doc))
    code = main(["--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "node 1" in err and "step 2" in err


def test_cli_nested_series_is_input_error(tmp_path, capsys):
    doc = json.loads(serialize_scenario(generate_synthetic_scenario(5, n_nodes=2, n_steps=4)))
    for node in doc["nodes"]:
        for name in ("demand_kwh", "generation_kwh", "buy_price", "sell_price"):
            node[name] = [[v] for v in node[name]]
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "node 1: sell_price must be a flat list" in err
    assert not out.exists()


def test_cli_number_too_large_for_a_float_is_input_error(tmp_path, capsys):
    doc = json.loads(serialize_scenario(generate_synthetic_scenario(5, n_nodes=2, n_steps=4)))
    doc["nodes"][0]["s_max_kwh"] = 10 ** 400  # a 401-digit JSON integer
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "too large" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("below", [(), ("sub",)])
def test_cli_out_through_a_file_is_input_error(tmp_path, capsys, monkeypatch, below):
    taken = tmp_path / "taken.txt"
    taken.write_text("keep\n")

    def no_run(*args):
        raise AssertionError("a simulation ran before --out was checked")

    monkeypatch.setattr(cli, "run", no_run)
    out = taken.joinpath(*below)
    assert main(["--generate", "--nodes", "2", "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "not a directory" in err
    assert len(err.strip().splitlines()) == 1
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("name", ["generate_synthetic_scenario", "run"])
def test_cli_out_of_memory_is_runtime_error(tmp_path, capsys, monkeypatch, name):
    # a numpy allocation that fails raises a MemoryError subclass, as a world
    # or horizon too large for the machine does; this stand-in allocates nothing
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 596. GiB for an array")

    monkeypatch.setattr(cli, name, out_of_memory)
    out = tmp_path / "out"
    assert main(["--generate", "--nodes", "2", "--steps", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "runtime error: Unable to allocate 596. GiB for an array\n"
    assert not out.exists()


def test_cli_usage_errors(capsys):
    assert main(["--nope"]) == 1
    assert main(["--generate", "--sweep-rho", "1e-5", "--out", "y"]) == 1
    assert main(["--generate"]) == 1  # no --out
    assert main(["--generate", "--scenario", "x", "--out", "y"]) == 1
    assert main(["--generate", "--mode", "sideways", "--out", "y"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["--mode", "grid-only,grid-only"],
    ["--mode", "coalitional,grid-storage,coalitional"],
    ["--rho", "1e-5,5e-3,1e-5"],
    ["--rho", "1e-5,0.00001"],
])
def test_cli_repeated_configuration_is_usage_error(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(["--generate", "--nodes", "3", "--steps", "3", "--out", str(out)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "more than once" in err
    assert not out.exists()  # refused before any run starts


@pytest.mark.parametrize("args", [
    ["--rho", "nan"],
    ["--rho", "inf"],
    ["--rho=-1e-5"],
    ["--rho", "1e-5,inf"],
    ["--mode", "grid-only", "--rho", "1e-5,nan"],
    ["--rho", "-1e-5"],
    ["--rho", "-1e-5,1e-5"],
    ["--rho=-1e-5,1e-5"],
    ["--rho", "-inf"],
    ["--rho", "-Infinity,1e-5"],
])
def test_cli_bad_loss_weight_is_input_error(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(["--generate", "--nodes", "3", "--steps", "3", "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "finite and nonnegative" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--nodes", "0"],
    ["--steps", "0"],
    ["--nodes", "17", "--mode", "coalitional"],
    ["--nodes", "17", "--mode", "grid-only,coalitional"],
])
def test_cli_bad_generated_world_is_input_error(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(["--generate", "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()  # rejected before any run starts


def test_cli_sweep_rho(tmp_path):
    out = tmp_path / "sweep"
    code = main(["--generate", "--seed", "3", "--nodes", "3", "--steps", "3",
                 "--horizon", "2", "--rho", "5e-3,1e-5",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "costs.csv").read_text().splitlines()
    labels = {line.split(",")[1] for line in lines[1:]}
    assert labels == {"coalitional(rho=0.005)", "coalitional(rho=1e-05)"}


def test_cli_rho_list_runs_beside_grid_modes(tmp_path):
    out = tmp_path / "out"
    assert main(["--generate", "--nodes", "3", "--steps", "3",
                 "--mode", "grid-only,coalitional", "--rho", "1e-5,5e-3",
                 "--out", str(out)]) == 0
    configs = json.loads((out / "manifest.json").read_text())["configs"]
    assert configs == ["grid-only", "coalitional(rho=1e-05)", "coalitional(rho=0.005)"]


def test_cli_oracle_check(capsys):
    assert main(["--oracle-check"]) == 0
    out = capsys.readouterr().out
    assert "lp solver matches" in out
    assert "shapley" in out
    assert "structure search matches independent enumeration on the 8-agent game" in out


def _nan_objective(problem):
    sol = solve_lp(problem)
    if sol.objective_value is not None:
        sol.objective_value = float("nan")
    return sol


# the oracle check's stand-ins that answer NaN
_NAN_FAKES = {
    "solve_lp": _nan_objective,
    "shapley_value": lambda game, members: np.full(len(members), np.nan),
    "optimal_structure":
        lambda game: dataclasses.replace(optimal_structure(game), value=float("nan")),
    "pooled_market_cost": lambda *args: float("nan"),
}


@pytest.mark.parametrize("name", _NAN_FAKES)
def test_cli_oracle_check_fails_on_nan(monkeypatch, capsys, name):
    monkeypatch.setattr(cli, name, _NAN_FAKES[name])
    assert main(["--oracle-check"]) == 3
    assert "oracle-check FAIL" in capsys.readouterr().out
