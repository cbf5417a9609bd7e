"""spincat benchmark: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a spincat checkout; the package is imported from its
src/ directory, nothing needs installing. Workloads:

  ramsey_scan        in-process `fringes` scan, N in [100, 300], seeded
                     angles and tau (every fourth op at tau = pi/2)
  oracle_crosscheck  fresh interpreters checking propagate against the
                     2^N oracle for n <= 10 and equivalence_report to n = 20

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones from a separate traced run. The line before the result
holds the environment, sample counts, accuracy and the layer breakdown.
Exit status 0 when the run completes (whether or not every op passed its
gate: see "correct" and "failed"); 2 when the checkout is incomplete or an
argument is wrong.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext

import common  # the only module imported before pin_environment(); the rest load numpy

# Fresh `import spincat` starts behind setup_s: one before each cycle,
# topped up to this many at the end of the run.
SETUP_REPEATS = 9
# Reference groups of the traced run (functions in probes), in fallback
# order; the first runs the flagship commands (see layers.group_metrics).
FLAGSHIP_GROUP = "flagship_inprocess"
REFERENCE_GROUPS = (FLAGSHIP_GROUP, "ramsey_reference", "oracle_reference")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]),
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_units() -> tuple:
    """(end-to-end, per-layer) {name: unit} as declared in BENCHMARK.json."""
    with open(common.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def tally(results: list) -> dict:
    import gates

    accuracy = {}
    for result in results:
        gates.merge_accuracy(accuracy, result.accuracy)
    return {
        "attempted": len(results),
        "failed": sum(r.outcome == "fail" for r in results),
        "known_failures": sum(r.outcome == "known" for r in results),
        "accuracy": accuracy,
    }


def untraced(workload, seconds: float) -> tuple:
    from workloads import timed_cycles

    setup = []

    def start_once():
        setup.append(common.spawn_seconds("import spincat"))

    results, elapsed = timed_cycles(workload.cycle, workload.run, seconds, between=start_once)
    while len(setup) < SETUP_REPEATS:
        start_once()
    times = [r.seconds for r in results]
    who = resource.RUSAGE_CHILDREN if workload.fresh_process else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / elapsed,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    samples = {
        "setup_s": len(setup),
        "op_p50_s": len(times),
        "op_p90": common.tail_report(times),
        "ops_per_s": len(times),
        "peak_rss_mb": "children" if workload.fresh_process else "self",
    }
    return metrics, samples, results, {}


def traced(workload, seconds: float, work) -> tuple:
    """Each op untraced and traced back to back; then the fixed probes.

    Running the twins back to back lets the machine's speed, which drifts
    over minutes on a shared host, hit both alike, and alternating which
    goes first cancels any gain of the second, so their difference is the
    tracing overhead.

    Each per-layer metric comes from the workload's own traced ops when
    they reach that layer, else from the first reference group that does:
    the flagship commands in-process, a dephased and a cat-time fringes op
    at n = 100, one cold oracle op.
    """
    import layers
    import probes
    from tracing import Tracer, patched
    from workloads import timed_cycles

    tracer = Tracer()
    plain = []

    def traced_run(op):
        hooks = (nullcontext() if workload.fresh_process
                 else patched(layers.spincat_patches(tracer)))
        with hooks:
            return workload.run(op, tracer)

    def twins(op):
        tracer.op = len(plain)
        if tracer.op % 2:
            result = traced_run(op)
            plain.append(workload.run(op))
        else:
            plain.append(workload.run(op))
            result = traced_run(op)
        return result

    results, _ = timed_cycles(workload.cycle, twins, seconds)
    groups = {"ops": (tracer.spans, results)}
    for name in REFERENCE_GROUPS:
        groups[name] = getattr(probes, name)(work)
    computed = {name: layers.group_metrics(spans, [r.record for r in group],
                                           name == FLAGSHIP_GROUP)
                for name, (spans, group) in groups.items()}

    metrics = probes.spawn_and_import()
    checks = []
    for probe in (probes.eigensystem_n11, probes.oracle_n20, probes.kernels_n20):
        values, ok = probe()
        metrics.update(values)
        checks.append(ok)
    sources = {}
    for metric in computed["ops"]:
        for name, values in computed.items():
            if values[metric] is not None:
                metrics[metric], sources[metric] = values[metric], name
                break
    # medians over the same ops, like op_p50_s; the overhead and the time
    # outside spans are taken per op, each traced run against its own
    # untraced twin, so the op mix does not enter them
    traced_times = [r.seconds for r in results]
    inside = layers.self_time_per_op(tracer.spans, len(results))
    overhead = statistics.median(t - r.seconds for t, r in zip(traced_times, plain))
    metrics.update({
        "trace.op_s": statistics.median(traced_times),
        "trace.untraced_op_s": statistics.median(r.seconds for r in plain),
        "trace.overhead_s": overhead,
    })
    extra = {
        "probe_checks": {"attempted": len(checks), "failed": checks.count(False)},
        "accounting": {
            "self_time_sum_p50_s": statistics.median(inside),
            "untraced_op_p50_s": metrics["trace.untraced_op_s"],
            "overhead_s": overhead,
            "outside_spans_p50_s": statistics.median(
                t - own for t, own in zip(traced_times, inside)),
        },
        "breakdown_per_op": layers.breakdown(tracer.spans, len(results)),
        "sources": sources,
    }
    everything = plain + [r for _, group in groups.values() for r in group]
    return metrics, {"ops": len(results)}, everything, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.checkout_is_complete():
        print(f"error: no spincat source under {common.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    common.pin_environment()
    import spincat

    if not os.path.realpath(spincat.__file__).startswith(str(common.SRC) + os.sep):
        print(f"error: imported spincat from {spincat.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    end_to_end, per_layer = metric_units()
    wanted = per_layer if args.trace else end_to_end

    work = common.WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            metrics, samples, results, extra = traced(workload, args.seconds, work)
        else:
            metrics, samples, results, extra = untraced(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = sorted(name for name in wanted if metrics.get(name) is None)
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    counts = tally(results)
    checks = extra.get("probe_checks", {"attempted": 0, "failed": 0})
    failed = counts["failed"] + checks["failed"]
    diagnostics = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": common.environment(args.seed),
        "samples": samples,
        "known_failures": counts["known_failures"],
        "accuracy": counts["accuracy"],
        **extra,
    }
    print(json.dumps(diagnostics))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": counts["attempted"] + checks["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
