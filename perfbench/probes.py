"""Fixed layer probes of the traced run.

Every traced run, whatever its workload, also runs these, so that every
per-layer metric has a measured value: layers its own ops do not reach
fall back to the reference groups here (see run.traced).
"""

import math
import statistics
import time

import numpy as np

import gates
import inputs
import layers
from common import spawn_seconds
from tracing import Tracer, patched
from workloads import run_cli_inprocess, run_oracle_process

REPEATS = 5
KERNEL_N = 20


def spawn_and_import() -> dict:
    """Bare interpreter start, and what `import spincat` adds to it."""
    bare = statistics.median([spawn_seconds("pass") for _ in range(REPEATS)])
    loaded = statistics.median([spawn_seconds("import spincat") for _ in range(REPEATS)])
    return {"cli.spawn_s": bare, "cli.import_s": loaded - bare}


def traced_group(run_op, ops: list) -> tuple:
    """Run ops one by one under a fresh tracer; (spans, results)."""
    tracer = Tracer()
    results = []
    with patched(layers.spincat_patches(tracer)):
        for index, op in enumerate(ops):
            tracer.op = index
            results.append(run_op(op, tracer))
    return tracer.spans, results


def flagship_inprocess(work) -> tuple:
    """The four flagship commands through cli.main in this interpreter."""
    params = dict(gates.FLAGSHIP, steps=inputs.STEPS)
    return traced_group(
        lambda argv, tracer: run_cli_inprocess(argv, params, work, tracer),
        [list(argv) for argv in inputs.FLAGSHIP_CYCLE],
    )


def ramsey_reference(work) -> tuple:
    """One dephased and one cat-time fringes op at n = 100."""
    base = dict(n=100, theta=1.0, phi=0.3, alpha=1.2, steps=inputs.STEPS)
    ops = [dict(base, tau=0.7), dict(base, tau=math.pi / 2)]
    return traced_group(
        lambda params, tracer: run_cli_inprocess(inputs.fringes_argv(params), params, work,
                                                 tracer),
        ops,
    )


def oracle_reference(work) -> tuple:
    """One oracle cross-check op (fresh interpreter, cold eigensystems)."""
    return traced_group(
        lambda triples, tracer: run_oracle_process(triples, work, tracer),
        [inputs.oracle_triples(0, 0)],
    )


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _median_time(fn, *args) -> tuple:
    runs = [_timed(fn, *args) for _ in range(REPEATS)]
    return statistics.median([t for t, _ in runs]), runs[-1][1]


def eigensystem_n11() -> tuple:
    """One cold dense eigensystem build at n = 11 (n = 12 is left out for run time).

    Returns (metrics, outcome): the propagated state must match the Dicke
    path to 1e-9.
    """
    import spincat as sc

    state = sc.coherent_state(11, 1.0, 0.3)
    full = sc.embed(state)
    seconds, slow = _timed(sc.propagate_full, full, 0.7)
    error = float(np.max(np.abs(sc.embed(sc.propagate(state, 0.7)).amps - slow.amps)))
    return {"oracle.eigensystem.n11_s": seconds}, error <= gates.ORACLE_TOL


def oracle_n20() -> tuple:
    """product_state, embed and project at the full-space cap n = 20.

    bytes_computed counts each 2^n array a call reads or writes once:
    product_state writes amplitudes (16 B per index); embed reads the
    popcount table and writes amplitudes (8 + 16); project reads
    amplitudes and table and writes the re-embedded residual vector
    (16 + 8 + 16).
    """
    import spincat as sc

    n, theta, phi = KERNEL_N, 1.1, -0.4
    pair = (math.cos(theta / 2), np.exp(-1j * phi) * math.sin(theta / 2))
    state = sc.coherent_state(n, theta, phi)
    t_product, product = _median_time(sc.product_state, n, [pair] * n)
    t_embed, full = _median_time(sc.embed, state)
    t_project, (back, residual) = _median_time(sc.project, full)
    ok = (
        residual <= gates.CROSS_REP_TOL
        and np.max(np.abs(back.amps - state.amps)) <= gates.CROSS_REP_TOL
        and np.max(np.abs(full.amps - np.exp(1j * n * phi) * product.amps))
        <= gates.CROSS_REP_TOL
    )
    metrics = {
        "oracle.product_state.busy_s": t_product,
        "oracle.embed.busy_s": t_embed,
        "oracle.project.busy_s": t_project,
        "oracle.bytes_computed": float((16 + 24 + 40) << n),
    }
    return metrics, bool(ok)


def kernels_n20() -> tuple:
    """The four 2^n kernels at n = 20, with computed bytes per second.

    Bytes per index, each array counted once: popcounts writes an int64
    table (8); product_amplitudes writes complex128 (16); gather reads
    the table and writes complex128 (8 + 16); popcount_sums reads
    complex128 and the table twice, once per real and imaginary binning
    (16 + 8 + 8).
    """
    from spincat import _kernels

    n = KERNEL_N
    g = np.full(n, math.cos(0.55), dtype=np.complex128)
    e = np.full(n, np.exp(0.4j) * math.sin(0.55), dtype=np.complex128)
    table = np.arange(n + 1, dtype=np.complex128)
    pops = _kernels.popcounts(n)
    cases = {
        "popcounts": ((n,), 8),
        "product_amplitudes": ((g, e), 16),
        "gather": ((table, pops), 24),
        "popcount_sums": ((_kernels.product_amplitudes(g, e), pops, n + 1), 32),
    }
    metrics = {}
    for name, (args, per_index) in cases.items():
        seconds, _ = _median_time(getattr(_kernels, name), *args)
        metrics[f"kernels.{name}.busy_s"] = seconds
        metrics[f"kernels.{name}.gbps_computed"] = (per_index << n) / seconds / 1e9
    binned = _kernels.popcount_sums(_kernels.gather(table, pops), pops, n + 1)
    counts = np.array([math.comb(n, k) for k in range(n + 1)], dtype=np.float64)
    return metrics, bool(np.array_equal(binned, table * counts))
