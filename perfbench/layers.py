"""Where the traced run records spans in spincat, and what they add up to.

Spans are recorded around calls into spincat's public functions by
swapping the module attributes its layers call each other through
(cli -> ramsey/dynamics/oracle, ramsey -> dynamics, dynamics -> oracle,
oracle -> _kernels). The library itself is not changed.
"""

from collections import defaultdict

from tracing import self_times, span_self

# Layers whose per-op self time is reported as "<layer>.busy_s".
BUSY_LAYERS = (
    "dynamics.propagate",
    "dynamics.equivalence_report",
    "ramsey.compare_channels",
    "ramsey.coherent_sweep",
    "ramsey.no_cavity_sweep",
    "ramsey.mixture_sweep.cat",
    "ramsey.mixture_sweep.dephased",
    "ramsey.harmonic_magnitudes",
    "oracle.eigensystem",
    "oracle.propagate_full",
)
CLI_COMMANDS = ("fringes", "verify", "ghz-fidelity", "evolve")


def spincat_patches(tracer) -> list:
    """(module, attribute, traced replacement) for every layer boundary.

    compare_channels sweeps three channels through the same two functions;
    the wrappers tell them apart by the state swept (the evolved state
    comes from ramsey's call to propagate) and by the tau compare_channels
    was given (exactly CAT_TIME selects the cat-branch mixture).
    Detection calls made inside a mixture sweep are not recorded one by
    one: that is up to n+1 per grid point.
    """
    import spincat
    from spincat import _kernels, cli, dynamics, ramsey

    seen = {"cat": False, "evolved": None, "eigensystems": set()}

    def compare_channels(n, theta, phi, tau, *args, **kwargs):
        seen["cat"] = tau == spincat.CAT_TIME
        with tracer.span("ramsey.compare_channels"):
            return original["compare_channels"](n, theta, phi, tau, *args, **kwargs)

    def ramsey_propagate(state, tau):
        with tracer.span("dynamics.propagate"):
            seen["evolved"] = original["ramsey.propagate"](state, tau)
        return seen["evolved"]

    def detection_probability(state, alpha, beta):
        fn = original["detection_probability"]
        if tracer.current().startswith("ramsey.mixture_sweep"):
            return fn(state, alpha, beta)
        sweep = "coherent" if state is seen["evolved"] else "no_cavity"
        with tracer.span(f"ramsey.{sweep}_sweep"):
            return fn(state, alpha, beta)

    def mixture_probability(mixture, alpha, beta):
        kind = "cat" if seen["cat"] else "dephased"
        with tracer.span(f"ramsey.mixture_sweep.{kind}"):
            return original["mixture_probability"](mixture, alpha, beta)

    def propagate_full(state, tau):
        # the first call per atom count builds the dense eigensystem
        cold = state.n not in seen["eigensystems"]
        seen["eigensystems"].add(state.n)
        name = "oracle.eigensystem" if cold else "oracle.propagate_full"
        with tracer.span(name):
            return original["propagate_full"](state, tau)

    original = {
        "compare_channels": cli.compare_channels,
        "ramsey.propagate": ramsey.propagate,
        "detection_probability": ramsey.detection_probability,
        "mixture_probability": ramsey.mixture_probability,
        "propagate_full": spincat.propagate_full,
    }
    plain = [
        (cli, "harmonic_magnitudes", "ramsey.harmonic_magnitudes"),
        (cli, "equivalence_report", "dynamics.equivalence_report"),
        (cli, "propagate", "dynamics.propagate"),
        (cli, "project", "oracle.project"),
        (dynamics, "propagate", "dynamics.propagate"),
        (dynamics, "product_state", "oracle.product_state"),
        (dynamics, "project", "oracle.project"),
        (spincat, "embed", "oracle.embed"),
        (spincat, "propagate", "dynamics.propagate"),
        (spincat, "project", "oracle.project"),
        (spincat, "equivalence_report", "dynamics.equivalence_report"),
    ] + [
        (_kernels, name, f"kernels.{name}")
        for name in ("popcounts", "product_amplitudes", "gather", "popcount_sums")
    ]
    return [
        (cli, "compare_channels", compare_channels),
        (ramsey, "propagate", ramsey_propagate),
        (ramsey, "detection_probability", detection_probability),
        (ramsey, "mixture_probability", mixture_probability),
        (spincat, "propagate_full", propagate_full),
    ] + [
        (module, attr, tracer.wrap(getattr(module, attr), name))
        for module, attr, name in plain
    ]


def fringes_work(op: dict) -> tuple:
    """(coherent_state calls, detection evaluations) of one fringes op.

    Computed from the inputs, not counted: every detection builds one bra,
    and the coherent, no-cavity and mixture channels evaluate 1, 1 and
    `branches` detections per grid point.
    """
    branches = 2 if op["cat"] else op["n"] + 1
    evals = op["steps"] * (2 + branches)
    built = 1 + (2 if op["cat"] else 0)  # the prepared state, cat branches
    return built + evals, evals


def _mean(values):
    return sum(values) / len(values) if values else None


def group_metrics(spans: list, ops: list, flagship: bool) -> dict:
    """Per-layer metrics of one group of traced ops.

    ops[i] describes op i of the spans: "cmd" (CLI subcommand), "outcome"
    and, for fringes ops, "n", "cat", "steps" and the measured
    "us_per_call" of coherent_state at that n. Busy times are self time
    per op of the group, so they add up to the traced op time. The cli
    body times and the known-failure share describe the flagship commands
    and are only taken from the group that runs them (flagship).
    Metrics a group has no data for are None.
    """
    totals = self_times(spans)
    metrics = {
        f"{name}.busy_s": totals[name] / len(ops) if name in totals else None
        for name in BUSY_LAYERS
    }

    bodies = defaultdict(list)
    render = []
    compare_inclusive = 0.0
    for span, own in zip(spans, span_self(spans)):
        name, start, end, _, op = span
        if name == "cli.main":
            bodies[ops[op]["cmd"]].append(end - start)
            if ops[op]["cmd"] == "fringes":
                render.append(own)
        elif name == "ramsey.compare_channels":
            compare_inclusive += end - start
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd.replace('-', '_')}_body_s"] = (
            _mean(bodies[cmd]) if flagship else None
        )
    metrics["cli.render_s"] = _mean(render)

    fringes = [op for op in ops if op["cmd"] == "fringes"]
    work = [fringes_work(op) for op in fringes]
    metrics["dicke.coherent_state.calls"] = _mean([built for built, _ in work])
    metrics["dicke.coherent_state.us_per_call"] = _mean([op["us_per_call"] for op in fringes])
    metrics["ramsey.detection_evals"] = _mean([evals for _, evals in work])
    metrics["ramsey.evals_per_s"] = (
        sum(evals for _, evals in work) / compare_inclusive if compare_inclusive else None
    )
    metrics["cli.known_failure_share"] = (
        sum(op["outcome"] == "known" for op in ops) / len(ops) if flagship else None
    )
    return metrics


def breakdown(spans: list, n_ops: int) -> dict:
    """Self time per op of every span name, largest first."""
    totals = self_times(spans)
    return {name: totals[name] / n_ops for name in sorted(totals, key=totals.get, reverse=True)}


def self_time_per_op(spans: list, n_ops: int) -> list:
    """Sum of all span self times of each op: the op's time inside spans."""
    totals = [0.0] * n_ops
    for span, own in zip(spans, span_self(spans)):
        totals[span[4]] += own
    return totals
