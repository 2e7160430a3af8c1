"""The repository's benchmark: one command, three workloads, every answer checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-point --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` runs the workload twice, untraced then traced (``repro serve
--trace`` / ``profile=True`` builds), and reports the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are a
human-readable table and the host's ``nproc``, Python and numpy versions.

``--smoke`` is the benchmark's self-test: every workload end to end with a
short budget, then each workload again with one expected answer deliberately
wrong, which must be reported as a failure.

Exit codes: 0 result printed; 2 the program under test is missing or the
arguments are wrong; 3 the run is invalid (the load generator fell behind);
4 the run itself failed (a server did not start or stop cleanly, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import env
from env import quantile

WORKLOADS = ("serve-point", "serve-batch", "build")
E2E_METRICS = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("rss_mb", "MiB"),
    ("index_bytes", "B"),
)
#: Measuring budget of each self-test run.
SMOKE_SECONDS = 4.0
#: Seconds the traced run's extra point probe offers load for.
PROBE_SECONDS = 3.0


def _serve_phases() -> dict:
    import workloads as wl

    return {"serve-point": wl.serve_point, "serve-batch": wl.serve_batch}


def untraced_run(ctx, workload: str) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    import workloads as wl

    if workload == "build":
        phase = wl.build_phase(ctx, wl.prepare_build(ctx), ctx.seconds)
    else:
        phase = _serve_phases()[workload](ctx, wl.prepare_serve(ctx), ctx.seconds)
    print(f"{workload}: {phase.attempted} operations, {phase.failed} failed, "
          f"{phase.layers['samples']} latency samples")
    for name, unit in E2E_METRICS:
        print(f"  {name:<18} {phase.metrics[name]:>14.4f} {unit}")
    # p99 is printed for the record; the host's bursts of interference make
    # it too unsteady across runs to gate on, so the tail metric is p95
    print(f"  {'latency_p99_ms':<18} {quantile(phase.layers['latency_s'], 0.99) * 1e3:>14.4f} ms (not gated)")
    return _result(phase.attempted, phase.failed, {
        name: {"value": phase.metrics[name], "unit": unit} for name, unit in E2E_METRICS
    })


def traced_run(ctx, workload: str) -> dict:
    """Per-layer metrics: the workload untraced, then traced, then probes.

    Layers the workload does not exercise are measured by short probes: a
    traced point phase (HTTP edge, admission), one profiled build job, and
    the direct calls of :func:`layers.direct_probes`.
    """
    import layers
    import workloads as wl

    half = ctx.seconds / 2
    table = layers.Layer()
    if workload == "build":
        binputs = wl.prepare_build(ctx, profile=True)
        plain = wl.build_phase(ctx, binputs, half)
        traced = wl.build_phase(ctx, binputs, half, profile=True)
        table.update(layers.build_profiles(traced, binputs.reference_stats, "workload"))
        inputs = wl.prepare_serve(ctx)
        phases = [plain, traced]
    else:
        inputs = wl.prepare_serve(ctx)
        plain = _serve_phases()[workload](ctx, inputs, half, launches=1)
        traced = _serve_phases()[workload](ctx, inputs, half, trace=True, launches=1)
        binputs = wl.prepare_build(ctx, profile=True)
        job = wl.build_phase(ctx, binputs, 0.0, profile=True, min_jobs=1)
        table.update(layers.build_profiles(job, binputs.reference_stats, "probe"))
        phases = [plain, traced, job]
    if workload == "serve-point":
        table.update(layers.point_traffic(traced, "workload"))
    else:
        point = wl.serve_point(ctx, inputs, PROBE_SECONDS, trace=True, launches=1, sweep=False)
        phases.append(point)
        table.update(layers.point_traffic(point, "probe"))
    if workload == "serve-batch":
        table.update(layers.batch_traffic(traced, "workload"))
    probes, checked = layers.direct_probes(ctx, inputs)
    for name, value in probes.items():
        table.setdefault(name, value)
    table.put("trace.overhead_p50_ms",
              traced.metrics["latency_p50_ms"] - plain.metrics["latency_p50_ms"],
              traced.layers["samples"], "workload")
    table.put("trace.overhead_throughput_frac",
              1.0 - traced.metrics["throughput_per_s"] / plain.metrics["throughput_per_s"],
              traced.layers["samples"], "workload")
    print(layers.render(table, workload))
    attempted = sum(p.attempted for p in phases) + checked.attempted
    failed = sum(p.failed for p in phases) + checked.failed
    return _result(attempted, failed, {
        name: {"value": table[name][0], "unit": unit} for name, unit, _, _ in layers.METRICS
    })


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_once(workload: str, seed: int, seconds: float, trace: bool, corrupt: bool = False) -> dict:
    import workloads as wl

    try:
        with env.Workdir() as work:
            ctx = wl.Ctx(work=work, seed=seed, seconds=seconds, conns=env.nproc(), corrupt=corrupt)
            return traced_run(ctx, workload) if trace else untraced_run(ctx, workload)
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts on the
    first shared-memory segment, so a run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def smoke() -> int:
    """Every workload end to end, then each with one wrong expected answer."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_once(workload, seed=7, seconds=SMOKE_SECONDS, trace=trace)
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: reported {result['failed']} failures")
        caught = run_once(workload, seed=7, seconds=SMOKE_SECONDS, trace=False, corrupt=True)
        if caught["correct"] or caught["failed"] < 1:
            problems.append(f"{workload}: a wrong expected answer went unnoticed")
        else:
            print(f"{workload}: wrong expected answer caught ({caught['failed']} failed)")
    with open(env.HERE.parent / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    import layers

    if [(m["name"], m["unit"]) for m in declared["end_to_end"]] != list(E2E_METRICS):
        problems.append("BENCHMARK.json end_to_end differs from the metrics printed")
    if [(m["name"], m["unit"]) for m in declared["per_layer"]] != [(n, u) for n, u, _, _ in layers.METRICS]:
        problems.append("BENCHMARK.json per_layer differs from the metrics printed")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the ones implemented")
    for problem in problems:
        print(f"smoke: FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test every workload")
    args = parser.parse_args(argv)
    if not env.program_present():
        print(f"error: the program under test is missing ({env.SRC / 'repro'})", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    env.use_program()
    import workloads as wl

    try:
        if args.smoke:
            return smoke()
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except wl.InvalidRun as exc:
        print(f"error: invalid run: {exc}", file=sys.stderr)
        return 3
    except Exception:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        return 4
    print(env.host_line())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
