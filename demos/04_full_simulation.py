"""Full rolling-horizon study on the bundled scenario (takes about 1 s).

Runs the three modes of the study (grid only, grid with storage,
coalitional market at rho=1e-5), prints the per-agent average buyer
prices side by side, and writes the CSV reports to demo_out/.
"""

from coopgrid import (SimConfig, SimMode, reference_scenario, run,
                      summarize_prices, trace_label, write_reports)

scenario = reference_scenario()
configs = [
    SimConfig(mode=SimMode.GRID_ONLY),
    SimConfig(mode=SimMode.GRID_STORAGE),
    SimConfig(mode=SimMode.COALITIONAL, loss_weight=1e-5),
]

traces = []
for cfg in configs:
    trace = run(scenario, cfg)
    traces.append(trace)
    print(f"ran {trace_label(trace)}: total settled cost "
          f"{trace.cumulative_costs.sum():.4f} CU")

prices = [summarize_prices(t) for t in traces]
print("\naverage buyer price, CU/kWh (lower is better)")
print("agent   grid-only   w/ storage   coalition(1e-5)")
for agent in range(scenario.n_nodes):
    row = [p[agent] for p in prices]
    print(f"  {agent}     {row[0]:.4f}      {row[1]:.4f}       {row[2]:.4f}")

coalition = traces[-1]
sizes = [len(res.partition.blocks) for res in coalition.steps]
print(f"\ncoalitional run: blocks per step {sizes}")

manifest = write_reports(traces, "demo_out", scenario_source="reference_scenario")
print(f"wrote {sorted(manifest.digests)} + manifest.json to demo_out/")
