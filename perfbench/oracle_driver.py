"""One op of the oracle_crosscheck workload, in a fresh interpreter.

    python perfbench/oracle_driver.py INPUTS_JSON [--spans SPANS_JSON]

For every atom count n in INPUTS_JSON and each of its (theta, phi, tau)
triples, compares embed(propagate(s, tau)) with propagate_full(embed(s),
tau); then runs equivalence_report(n) for n = 1..20, the work of
`spincat verify --n 20`. Prints one JSON line with the worst errors. With
--spans, layer spans are recorded and written to SPANS_JSON at exit.
"""

import argparse
import json
import math
import sys

from tracing import Tracer, patched

EQUIVALENCE_N = range(1, 21)


def crosscheck(sc, triples: dict) -> dict:
    import numpy as np

    amplitude = drift = projection = 0.0
    for n, cases in triples.items():
        for theta, phi, tau in cases:
            state = sc.coherent_state(int(n), theta, phi)
            fast = sc.embed(sc.propagate(state, tau))
            slow = sc.propagate_full(sc.embed(state), tau)
            amplitude = max(amplitude, float(np.max(np.abs(fast.amps - slow.amps))))
            drift = max(drift, abs(float(np.linalg.norm(slow.amps)) - 1.0))
            projection = max(projection, sc.project(slow)[1])
    fidelity = residual = phase = 0.0
    for n in EQUIVALENCE_N:
        report = sc.equivalence_report(n)
        fidelity = max(fidelity, abs(report.fidelity_prop_vs_cat - 1.0),
                       abs(report.fidelity_prop_vs_ghz - 1.0))
        residual = max(residual, report.max_residual)
        phase = max(phase, abs(math.remainder(
            report.phase_cat_over_ghz - report.expected_phase, math.tau)))
    return {
        "amplitude_error": amplitude,
        "fidelity_error": fidelity,
        "equivalence_residual": residual,
        "phase_error": phase,
        "norm_drift": drift,
        "projection_residual": projection,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    with open(args.inputs) as handle:
        triples = json.load(handle)
    if args.spans is None:
        import spincat

        print(json.dumps(crosscheck(spincat, triples)))
        return 0
    tracer = Tracer()
    try:
        with tracer.span("import"):
            import spincat
        import layers

        with patched(layers.spincat_patches(tracer)):
            print(json.dumps(crosscheck(spincat, triples)))
    finally:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
