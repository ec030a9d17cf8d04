"""Host speed: fixed reference computations, timed between the ops of a run.

The benchmark runs on shared hosts whose speed changes by a third or more
from one minute to the next, and every op slows and speeds up with it.  On
a 2-vCPU container the kernel below switches, every few seconds, between
two speeds about 1.7 times apart.  So a timed run also times the kernel
before every set-up import and every op, and once after the last, and
reports each time scaled to a host on which the kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / mean(kernel times before and after it)

Scaling by the kernel times next to each item follows the switches within a
run; a median over more kernel times jumps between the two speeds, and
scaled the 6-second `extend3d` ops of a `lift` run worse.

The kernel has two parts, because a busy host slows the bytecode loop far
more than it slows compiled code:

- interpreted: a scipy `solve_ivp` integration with a Python right-hand
  side (as `simulate` does) and exact `Fraction` sums (as `beltrami` does);
  it scales every op but those in DECIMAL_SUBCOMMANDS;
- decimal: an 800-digit `Decimal` exponential in libmpdec; it scales the
  ops of DECIMAL_SUBCOMMANDS, whose time is one long `Decimal` exponential,
  and set-up, an interpreter start and imports, which tracks it best.

The kernel uses no flowcomp code, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
from decimal import Context, Decimal
from fractions import Fraction
from time import perf_counter

# part -> its time, in seconds, on the host that figures are scaled to
REFERENCE_S = {"interpreted": 0.035, "decimal": 0.015}
DECIMAL_SUBCOMMANDS = {"estimate"}


def _van_der_pol(t, y):
    import numpy as np

    return np.array([y[1], 2.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])


def interpreted() -> None:
    from scipy.integrate import solve_ivp

    solve_ivp(_van_der_pol, (0.0, 12.0), [2.0, 0.0], rtol=1e-8, atol=1e-10)
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(1, i * i + 1)


def decimal() -> None:
    # its own context throughout: the program sets the thread's precision
    context = Context(prec=800)
    context.exp(context.divide(Decimal(7), Decimal(3)))


def sample() -> dict:
    """Wall time of each part of the kernel."""
    times = {}
    for part in (interpreted, decimal):
        t0 = perf_counter()
        part()
        times[part.__name__] = perf_counter() - t0
    return times


def scales(samples: list[dict], part: str) -> list[float]:
    """Factor that turns each timed item's time into a reference-host time,
    from one part of the kernel samples taken before each item and after
    the last."""
    times = [s[part] for s in samples]
    return [REFERENCE_S[part] / statistics.fmean(pair) for pair in zip(times, times[1:])]


def part_of(subcommand: str) -> str:
    return "decimal" if subcommand in DECIMAL_SUBCOMMANDS else "interpreted"
