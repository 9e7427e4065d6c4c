"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload, an untraced and a traced tiny run must report exactly
the metric names and units that BENCHMARK.json declares, with every output
correct.  Then one audit of a mutated negative is checked as if it were a
positive: the wrong verdict must be counted in ``failed`` and
``failed_frac``, not dropped.
"""

from __future__ import annotations

import json
import sys

import run

WORKLOADS = ("construct", "audit-quantum", "verify-classical", "simulate")


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def told_positive(wl) -> None:
    """Make the first negative audit's check expect a secure verdict."""
    import workloads

    idx = next(i for i, it in enumerate(wl.items) if it.label.endswith(" neg"))
    item = wl.items[idx]
    wl.items[idx] = workloads.Item(item.label + " [told positive]", item.run,
                                   lambda rep: bool(rep.matches_classify) and rep.secure)


def main() -> int:
    run.pin_environment()
    problems = []
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        want = declared(kind)
        for name in WORKLOADS:
            res = run.run(name, seed=7, seconds=0.1, trace=trace, tiny=True,
                          setup_samples=2)["result"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or units differ")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={trace}: {res['failed']} failed items")
            print(f"{name} trace={int(trace)}: {len(got)} metrics, "
                  f"{res['attempted']} items, {res['failed']} failed")
    out = run.run("audit-quantum", seed=7, seconds=0.1, trace=False, tiny=True,
                  setup_samples=1, inject=told_positive)
    fl = out["record"]["failures"]
    if (out["result"]["correct"] or out["result"]["failed"] != 1
            or fl["by_kind"] != {"wrong_output": 1}
            or abs(fl["failed_frac"] - 1 / fl["attempted"]) > 1e-12):
        problems.append(f"injected wrong output not counted: {fl}")
    print(f"injected wrong output: failed {fl['failed']} of {fl['attempted']}, "
          f"by kind {fl['by_kind']}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
