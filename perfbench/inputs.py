"""Seeded inputs for every workload.

The same seed gives the same inputs; spincat only ever sees the generated
arguments, never the seed.
"""

import math
import random

STEPS = 256
RAMSEY_N = (100, 300)
ORACLE_N = range(1, 11)
ORACLE_TRIPLES = 20

# The flagship commands the traced run times in-process; the flagship
# point is fixed by the paper. evolve --n 2048 is the large-N probe (see
# gates).
FLAGSHIP_CYCLE = (
    ("fringes", "--n", "3", "--output", "{out}"),
    ("verify", "--n", "12"),
    ("ghz-fidelity", "--n", "3"),
    ("evolve", "--n", "2048", "--pi-units", "--tau", "0.5"),
)


def _off_cat_tau(rng: random.Random) -> float:
    # uniform over [0.1, pi - 0.1] minus a 0.2 guard band around pi/2
    low, gap = 0.1, 0.2
    span = (math.pi / 2 - gap - low) * 2
    u = rng.random() * span
    half = span / 2
    return low + u if u < half else math.pi / 2 + gap + (u - half)


def _angles(rng: random.Random) -> dict:
    return {
        "theta": 0.2 + rng.random() * (math.pi - 0.4),
        "phi": -math.pi + rng.random() * 2 * math.pi,
        "alpha": 0.2 + rng.random() * (math.pi - 0.4),
    }


def _van_der_corput(i: int) -> float:
    """Base-2 radical inverse: 0.5, 0.25, 0.75, 0.125, ... for i = 1, 2, ..."""
    value, scale = 0.0, 0.5
    while i:
        i, bit = divmod(i, 2)
        value += bit * scale
        scale /= 2
    return value


def ramsey_cycle(seed: int, index: int) -> list:
    """Four fringes ops: three off the cat time, then one at tau = pi/2.

    Off-cat op cost grows with N, so the three off-cat ops take N from the
    low, middle and high third of RAMSEY_N, at a position within the third
    that follows the van der Corput sequence over cycles (plus a small
    seeded jitter). Every prefix of cycles is then evenly spread over N,
    so a run's median (between the dearest low-third op and the cheapest
    middle-third op) hardly depends on the seed or on how many cycles fit.
    """
    rng = random.Random(f"ramsey:{seed}:{index}")
    lo, hi = RAMSEY_N
    third = (hi - lo + 1) / 3
    slot = _van_der_corput(index + 1) + (rng.random() - 0.5) / 16
    sizes = [lo + int(third * (s + min(max(slot, 0.0), 0.999))) for s in range(3)]
    rng.shuffle(sizes)
    ops = [dict(n=n, tau=_off_cat_tau(rng), **_angles(rng)) for n in sizes]
    cat_n = lo + int((hi - lo + 1) * rng.random())
    ops.append(dict(n=cat_n, tau=math.pi / 2, **_angles(rng)))
    return ops


def fringes_argv(op: dict) -> list:
    return [
        "fringes",
        "--n", str(op["n"]),
        f"--theta={op['theta']!r}",
        f"--phi={op['phi']!r}",
        f"--tau={op['tau']!r}",
        f"--alpha={op['alpha']!r}",
        "--beta-steps", str(STEPS),
        "--output", "{out}",
    ]


def oracle_triples(seed: int, index: int) -> dict:
    """(theta, phi, tau) triples per atom count for one oracle op."""
    rng = random.Random(f"oracle:{seed}:{index}")
    return {
        str(n): [
            (rng.random() * math.pi, -math.pi + rng.random() * 2 * math.pi,
             rng.random() * 2 * math.pi)
            for _ in range(ORACLE_TRIPLES)
        ]
        for n in ORACLE_N
    }
