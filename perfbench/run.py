"""Benchmark launcher for lognet.

    python3 perfbench/run.py --workload paper-drift --seed 1 --seconds 30 --trace 0

Runs from the repository root against the sources in ``src/``. With
``--trace 0`` it measures the end-to-end metrics untraced; with ``--trace 1``
it also repeats set-up and the requests with span-recording wrappers on
lognet's public names and reports the per-layer metrics and the tracing
overhead. Every run also replays the workload at a fixed canary seed and
compares hashes of its outputs with ``digests.json``. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every figure by name with its unit.
``--workload all`` runs every workload in one process.
``--record-digests`` rewrites ``digests.json`` from the canary runs.
"""

from __future__ import annotations

import os
import sys

# BLAS reductions differ in their last bits between thread counts, so the
# digests hold only for the count they were recorded with. Pin it before
# numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 3
CANARY_SEED = 0
COUNT_UNITS = ("count", "flop", "B")


def percentile(values, q: float):
    """The q-quantile, or None unless at least ten samples lie beyond it."""
    ordered = sorted(values)
    if len(ordered) * (1.0 - q) < 10:
        return None
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def fast(values) -> float:
    """1st percentile: the minimum when there are fewer than 100 samples."""
    return sorted(values)[len(values) // 100]


def cycle_s(phase: dict, stat=fast) -> float:
    """Time of one cycle through a phase's steps: the sum of per-step figures."""
    return sum(stat(times) for times in phase["times"].values())


def end_to_end(workload, phases, setup_s: float, peak_rss_mb: float) -> dict:
    thr = phases[workload.throughput_kind]
    return {
        "setup_s": (setup_s, "s"),
        "latency_ms": (cycle_s(phases[workload.latency_kind]) * 1e3, "ms"),
        "throughput_fps": (thr["rows"] / cycle_s(thr), "fp/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def human_report(workload, phases, e2e: dict, attempted: int, failed: int) -> list[str]:
    """Every figure by name with its unit; per phase, with its sample count."""
    lines = [f"{name} {value!r} {unit}" for name, (value, unit) in e2e.items()]
    for kind, ph in phases.items():
        unit, scale = ("us", 1e6) if kind == "query" else ("s", 1.0)
        n = f"(n={ph['requests'] // len(ph['times'])})"
        lines.append(f"{kind}_p1_{unit} {cycle_s(ph) * scale!r} {unit} {n}")
        lines.append(f"{kind}_p50_{unit} {cycle_s(ph, median) * scale!r} {unit} {n}")
        if len(ph["times"]) == 1:
            p99 = percentile(next(iter(ph["times"].values())), 0.99)
            if p99 is not None:
                lines.append(f"{kind}_p99_{unit} {p99 * scale!r} {unit} {n}")
        if kind == "query":
            lines.append(f"query_qps {1.0 / cycle_s(ph, median)!r} queries/s {n}")
        if kind == "batch":
            lines.append(f"batch_fps {ph['rows'] / cycle_s(ph, median)!r} fingerprints/s {n}")
    lines += [f"{name} {value!r} {unit}" for name, value, unit in workload.report()]
    lines.append(f"fail_ratio {failed / attempted!r} failed/attempted ({failed}/{attempted})")
    return lines


def per_layer(summary: dict, overhead_pct: float) -> dict:
    s, incl, c = summary["self_s"], summary["inclusive_s"], summary["counts"]

    def self_of(span):
        return s.get(span, 0.0)

    def per_epoch_ms(kind):
        epochs = c.get(f"models.epochs.{kind}", 0.0)
        return 1e3 * self_of(f"models.train_{kind}") / epochs if epochs else 0.0

    return {
        "models.train_softmax_s": (self_of("models.train_softmax"), "s"),
        "models.train_dnn_s": (self_of("models.train_dnn"), "s"),
        "models.epoch_ms.softmax": (per_epoch_ms("softmax"), "ms"),
        "models.epoch_ms.dnn": (per_epoch_ms("dnn"), "ms"),
        "models.forward_s": (self_of("models.forward"), "s"),
        "models.train_flops": (c.get("models.train_flops", 0.0), "flop"),
        "fileio.write_s": (self_of("fileio.write"), "s"),
        "fileio.read_s": (self_of("fileio.read"), "s"),
        "fileio.bytes": (c.get("fileio.bytes", 0.0), "B"),
        "data.split_s": (self_of("data.split"), "s"),
        "data.normalize_s": (self_of("data.normalize"), "s"),
        "data.binarize_s": (self_of("data.binarize"), "s"),
        "data.rss_matrix_s": (self_of("data.rss_matrix"), "s"),
        "data.wrap_us": (1e6 * self_of("data.wrap"), "us"),
        "data.rows": (c.get("data.rows", 0.0), "count"),
        "gates.encode_s": (self_of("gates.encode"), "s"),
        "gates.bits_in": (c.get("gates.bits_in", 0.0), "count"),
        "noise.synth_s": (self_of("noise.synth"), "s"),
        "noise.simulate_s": (self_of("noise.simulate"), "s"),
        "noise.rows_out": (c.get("noise.rows_out", 0.0), "count"),
        "pipeline.fit_self_s": (self_of("pipeline.fit"), "s"),
        "pipeline.predict_self_s": (self_of("pipeline.predict"), "s"),
        "pipeline.save_model_s": (self_of("pipeline.save_model"), "s"),
        "evaluate.evaluate_s": (self_of("evaluate.evaluate"), "s"),
        "evaluate.sample_errors_s": (self_of("evaluate.sample_errors"), "s"),
        "evaluate.latency_s": (incl.get("evaluate.latency", 0.0), "s"),
        "experiment.run_self_s": (self_of("experiment.run"), "s"),
        "pgm.write_s": (self_of("pgm.write"), "s"),
        "trace.wall_s": (summary["wall_s"], "s"),
        "trace.unattributed_s": (summary["unattributed_s"], "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def load_recorded() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def run_workload(cls, args, import_s: float, work: Path, recorded: dict) -> tuple[dict, list[str], dict]:
    """Set up, measure (and trace), check the canary; return result, report lines, canary."""
    from spans import Tracer
    from workloads import canary_digests, measure, null_span

    lines = []
    workload = cls(args.seed, work / cls.name)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    setup_s = import_s + median(setups)

    phases = measure(workload, args.seconds, null_span)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = [phases]
    metrics = end_to_end(workload, phases, setup_s, peak_rss_mb)

    if args.trace:
        tracer = Tracer()
        traced = cls(args.seed, work / f"{cls.name}-traced")
        with tracer:
            traced.span = tracer.span
            with tracer.span("setup"):
                traced.setup()
            traced_phases = measure(traced, args.seconds, tracer.span)
        runs.append(traced_phases)
        summary = tracer.summary()
        attributed = sum(summary["self_s"].values()) + summary["unattributed_s"]
        if abs(attributed - summary["wall_s"]) > 1e-9 * max(1.0, summary["wall_s"]):
            raise RuntimeError(f"self times {attributed} do not add up to wall {summary['wall_s']}")
        kind = cls.latency_kind
        overhead = 100.0 * (cycle_s(traced_phases[kind]) / cycle_s(phases[kind]) - 1.0)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{cls.name}.npz")
        lines.append(f"traced units: {summary['roots']}; self + unattributed = wall = {summary['wall_s']!r} s")
        metrics = per_layer(summary, overhead)

    canary = canary_digests(cls(CANARY_SEED, work / f"{cls.name}-canary"))
    expected = recorded.get("workloads", {}).get(cls.name)
    canary_ok = args.record_digests or (recorded.get("blas_threads") == BLAS_THREADS and canary == expected)
    if not canary_ok:
        lines.append(f"canary digest mismatch: got {canary}, recorded {expected}")

    attempted = sum(p["requests"] for r in runs for p in r.values()) + 1
    failed = sum(p["failed"] for r in runs for p in r.values()) + (not canary_ok)
    if not args.trace:
        lines += human_report(workload, phases, metrics, attempted, failed)
    else:
        lines += [
            f"{name} {value!r} {unit}" + (" (computed from shapes)" if unit in COUNT_UNITS else "")
            for name, (value, unit) in metrics.items()
        ]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines, canary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "lognet" / "__init__.py").is_file():
        print(f"error: lognet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import lognet.evaluate  # noqa: F401  (loads numpy and every lognet module)
    import_s = perf_counter() - start

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all", file=sys.stderr)
        return 2

    env = sys.modules["lognet.evaluate"].environment_descriptor()
    print(f"# seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} nproc={len(os.sched_getaffinity(0))} environment={json.dumps(env)}")
    recorded = load_recorded()
    work = OUT / f"work-{os.getpid()}"
    ok = True
    new_digests = {}
    try:
        for name in names:
            result, lines, canary = run_workload(WORKLOADS[name], args, import_s, work, recorded)
            new_digests[name] = canary
            print(f"## workload {name}")
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            ok = ok and result["correct"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_digests:
        recorded.setdefault("workloads", {}).update(new_digests)
        recorded.update(blas_threads=BLAS_THREADS, nproc=len(os.sched_getaffinity(0)), environment=env)
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
