"""Fast self-test of the benchmark at tiny dims.

Runs every workload's code path once, untraced and traced, and checks that
each run passes its output checks and reports every metric declared in
``BENCHMARK.json`` with its unit. Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import sys
import time

import run


def main() -> int:
    run._import_library()
    from spans import LAYERS
    from workloads import WORKLOADS

    declared = run._declared()
    declared_names = [w["name"] for w in declared["workloads"]]
    problems = []
    if sorted(declared_names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {declared_names} != {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            t0 = time.perf_counter()
            record = run.run(name, seed=1, seconds=0.0, trace=trace, tiny=True)
            label = f"{name} trace={int(trace)}"
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in record["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
            if not record["correct"] or record["failed"] or record["attempted"] < 1:
                problems.append(f"{label}: {record['failed']} of {record['attempted']} failed "
                                f"{record['failures']}")
            # tiny models may score zero; every time, rate and size must not
            zeros = [k for k, v in record["metrics"].items()
                     if v["unit"] in ("s", "1/s", "MB") and not v["value"] > 0]
            if kind == "end_to_end" and zeros:
                problems.append(f"{label}: metrics not above zero: {zeros}")
            if kind == "per_layer":
                m = {k: v["value"] for k, v in record["metrics"].items()}
                parts = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["bench.unattributed_s"]
                if abs(parts - m["trace.wall_s"]) > 1e-6 * max(1.0, m["trace.wall_s"]):
                    problems.append(
                        f"{label}: self times {parts} != traced wall {m['trace.wall_s']}"
                    )
            print(f"{label}: ok={record['correct']} attempted={record['attempted']} "
                  f"({time.perf_counter() - t0:.1f}s)")
    for p in problems:
        print("PROBLEM:", p)
    print(json.dumps({"selftest_ok": not problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
