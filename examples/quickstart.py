#!/usr/bin/env python3
"""Quickstart: evaluate Morphable ECC on one workload.

Runs libquantum (the paper's worst case for always-on strong ECC) under
four ECC policies and prints the performance/power story in ~10 seconds:

* ECC-6 everywhere saves refresh power but costs ~20-25% performance;
* MECC saves the same refresh power at a few percent cost.

Usage::

    python examples/quickstart.py [instructions]
"""

import sys

from repro import DramPowerCalculator, SystemConfig, simulate
from repro.analysis.tables import format_table
from repro.workloads import BENCHMARKS_BY_NAME


def main() -> None:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 300_000
    config = SystemConfig()
    spec = BENCHMARKS_BY_NAME["libq"]
    print(f"Generating a {instructions:,}-instruction libquantum-like trace "
          f"(MPKI ~{spec.mpki}, calibrating baseline IPC to {spec.ipc})...")
    trace = spec.trace(instructions)

    print("\n-- Active-mode performance (normalized IPC) --")
    results = {}
    for name in ("baseline", "secded", "ecc6", "mecc"):
        results[name] = simulate(trace, config.policy_by_name(name))
    base_ipc = results["baseline"].ipc
    print(format_table(
        ["policy", "normalized IPC"],
        [(name, result.ipc / base_ipc) for name, result in results.items()],
    ))
    print("  (ecc6: always-strong ECC pays the decode on every miss;"
          "\n   mecc: strong decode only on each line's first touch)")
    mecc = results["mecc"]
    print(f"  MECC downgraded {mecc.downgrades} lines "
          f"({mecc.strong_decodes} strong decodes out of {mecc.reads} reads)")

    print("\n-- Idle-mode power (self-refresh) --")
    calc = DramPowerCalculator(config.power)
    base_idle = calc.idle_power(0.064)
    mecc_idle = calc.idle_power(1.024)
    print(f"  baseline (64 ms refresh): {1000 * base_idle.total:.2f} mW "
          f"(refresh {1000 * base_idle.refresh:.2f} mW)")
    print(f"  MECC     (1 s refresh):   {1000 * mecc_idle.total:.2f} mW "
          f"(refresh {1000 * mecc_idle.refresh:.2f} mW)")
    print(f"  refresh operations reduced {base_idle.refresh / mecc_idle.refresh:.0f}x, "
          f"idle power reduced {base_idle.total / mecc_idle.total:.2f}x")


if __name__ == "__main__":
    main()
