"""Seeded end-to-end and per-layer benchmark of the stackprop tagger+parser.

Run from the repository root:

    python3 perfbench/run.py --workload parse-default --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` runs the
same set-up and one unit of work untraced and then traced, and reports the
per-layer split and the tracing overhead. The metric names and units are the
ones declared in ``BENCHMARK.json``. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the environment record and the full result, spans included, go
to ``perfbench/out/``.
"""

import os

# Pin BLAS threads before numpy loads, so throughput does not follow
# OpenBLAS's own choice of thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3


def _import_library():
    """Put the checkout's own ``src/`` first on the path; refuse to measure
    any other copy of the library."""
    if not (SRC / "stackprop" / "__init__.py").is_file():
        sys.exit(f"perfbench: no stackprop sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import stackprop

    if Path(stackprop.__file__).resolve().parent != (SRC / "stackprop").resolve():
        sys.exit(f"perfbench: imported stackprop from {stackprop.__file__}, not {SRC}")


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def train_seconds(trained) -> float:
    """Time of one training, from the identical trainings of a run: the
    median time they spent outside the updates, plus the median time of
    each update in order. Like a decode chunk (see ``workloads.EvalSet``),
    each update is the same work in every training, so a slow stretch of
    the host during one training moves only the updates it covered."""
    outside = statistics.median(t.train_s - sum(t.update_times) for t in trained)
    return outside + sum(map(statistics.median, zip(*(t.update_times for t in trained))))


def end_to_end(setups, trained, units, state, scores) -> dict:
    """End-to-end figures. Set-up time is the median over set-ups; training
    time is ``train_seconds``; decode and encode times are sums of per-chunk
    median times (see ``workloads.EvalSet``)."""
    from workloads import chunk_total

    train_s = train_seconds(trained)
    return {
        "setup_s": statistics.median(setups),
        "train_s": train_s,
        "train_examples_per_s": trained[0].train_examples / train_s,
        "parse_tokens_per_s": state["eval"].tokens / chunk_total([u.decoded.times for u in units]),
        "encode_tokens_per_s": (
            state["encode_set"].tokens / chunk_total([u.encode_times for u in units])
        ),
        "uas": scores.uas if scores else 0.0,
        "las": scores.las if scores else 0.0,
        "pos_acc": (scores.pos_acc or 0.0) if scores else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(workload, seconds: float, checks, counter) -> tuple[dict, dict]:
    """Set up once unmeasured and SETUP_REPEATS times measured, then
    repeat the unit of work until the next one would end after
    ``seconds``; at least one unit runs. Training figures come from the
    units, or from each measured set-up's fixture training."""
    from workloads import decode, eval_set, no_phase, settle

    setups, fixtures, state = [], [], None
    # an unmeasured set-up first: the first one in a process pays for heap
    # growth and first calls, which no later one does
    workload.prepare(workload.fixture(counter, no_phase), checks, no_phase)
    for _ in range(SETUP_REPEATS):
        settle()
        t0 = time.perf_counter()
        fixture = workload.fixture(counter, no_phase)
        state = workload.prepare(fixture, checks, no_phase)
        setups.append(time.perf_counter() - t0)
        if fixture is not None:
            fixtures.append(fixture)
    units, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        units.append(workload.unit(state, checks, counter, no_phase))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    for u in units[1:]:
        checks.record(u.digest == units[0].digest, "repeated unit gave different output")
    scores = decode(eval_set(workload.score_sentences()), state["model"], checks, no_phase).scores
    trained = fixtures or units
    checks.record(
        len({len(t.update_times) for t in trained}) == 1,
        "identical trainings made different numbers of updates",
    )
    samples = {
        "setup_s": setups,
        "unit_s": durations,
        "train_s": [u.train_s for u in trained],
        "parse_s": [sum(map(sum, u.decoded.times)) for u in units],
        "encode_s": [sum(map(sum, u.encode_times)) for u in units],
    }
    return end_to_end(setups, trained, units, state, scores), samples


def traced(workload, checks, counter, spans_path) -> tuple[dict, dict]:
    """One set-up's fixture, then prepare + one unit untraced and again
    traced, each decode and encode making a single pass; per-layer figures
    come from the traced pass."""
    from spans import END, START, Tracer, layer_metrics
    from workloads import no_phase

    workload.single_pass = True
    fixture = workload.fixture(counter, no_phase)
    t0 = time.perf_counter()
    workload.unit(workload.prepare(fixture, checks, no_phase), checks, counter, no_phase)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    with tracer:
        with tracer.phase("run"):
            state = workload.prepare(fixture, checks, tracer.phase)
            workload.unit(state, checks, counter, tracer.phase)
    metrics = layer_metrics(tracer.spans)
    metrics["model.bytes"] = float(state["model_bytes"])
    wall = tracer.spans[0][END] - tracer.spans[0][START]
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.overhead_s"] = wall - untraced_s
    metrics["trace.overhead_pct"] = 100.0 * (wall - untraced_s) / untraced_s
    tracer.write(spans_path)
    return metrics, {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result record."""
    from envinfo import environment
    from workloads import WORKLOADS, Checks, UpdateCounter

    declared = _declared()
    kind = "per_layer" if trace else "end_to_end"
    workload = WORKLOADS[name](seed, tiny=tiny)
    checks = Checks()
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    with UpdateCounter(checks) as counter:
        if trace:
            values, detail = traced(workload, checks, counter, OUT / f"{stem}.spans.tsv.gz")
        else:
            values, detail = measure(workload, seconds, checks, counter)
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared[kind]
    }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "failures": checks.failures,
        "workload": workload.record(),
        "seconds": seconds,
        "environment": environment(ROOT, BLAS_THREADS),
        "detail": detail,
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {record['attempted']} failed = {record['failed']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
