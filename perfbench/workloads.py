"""Seeded workload generator: random machines and the CLI ops run on them.

A seed fixes everything: `random.Random(seed)` draws machines with 2-4 states
and random rules, each rejected until the first `inputs` enumerated inputs
all fall in one halting class (by direct execution with `machine.run`):

- early: halts by step 3;
- mid:   halts at a step in 4..lmax;
- never: does not halt within lmax, and visits no configuration twice.

The steps of an op's halting inputs also sum to a fixed total per input
(STEPS_PER_INPUT).  Machines come in rounds of three, one per class, so every
workload splits its inputs equally between the classes.  Fixing the totals
fixes how many heights each op integrates, which is most of its cost:
without it, whether a seed drew a machine halting at step 15 or at step 5
decides the medians.  A machine stuck in a loop draws a constant or periodic
curve, whose error schedule costs a quarter of the usual or a fifth more, so
a few loopers would likewise decide the perturb and lift figures.
The program only ever sees the `.tm` files and argv lists written here.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from flowcomp.machine import (  # noqa: E402
    Halted, MachineSpec, enumerate_inputs, format_machine, run, trajectory)

CLASSES = ("early", "mid", "never")
EARLY_MAX = 3
STEPS_PER_INPUT = {"early": 2, "mid": 6}

# workload -> height budget used to classify machines and to run the CLI,
# and the number of enumerated inputs (bands) per op
LMAX = {"verify": 8, "perturb": 6, "lift": 8}
INPUTS = {"verify": 1, "perturb": 1, "lift": 1}

PERTURB_TRIALS = 2
# the largest whole space bound `flowcomp estimate` can print (see README.md)
ESTIMATE_SB = 9.0


@dataclass
class Op:
    """One CLI invocation and what its checker needs to know."""

    index: int
    sub: str
    argv: list
    out: Path
    cls: str = ""
    machine: MachineSpec | None = None
    inputs: int = 0
    lmax: int = 0
    trials: int = 0
    degree: int = 0
    sb: float = 0.0
    steps: list = field(default_factory=list)  # oracle halting step per input

    @property
    def heights(self) -> int:
        """Crossings the flow classifies when the op is right."""
        if self.sub not in ("verify", "simulate", "sphere", "perturb"):
            return 0
        per_run = sum(self.lmax if s is None else min(s, self.lmax) for s in self.steps)
        return per_run * (1 + self.trials)


def input_class(steps: int | None) -> str:
    if steps is None:
        return "never"
    return "early" if steps <= EARLY_MAX else "mid"


def halting_steps(machine: MachineSpec, inputs: int, lmax: int) -> list:
    """Oracle halting step of each enumerated input, None if beyond lmax."""
    out = []
    for _, config, _ in enumerate_inputs(machine, inputs):
        result = run(machine, config, lmax)
        out.append(result.steps if isinstance(result, Halted) else None)
    return out


def loops(machine: MachineSpec, inputs: int, lmax: int) -> bool:
    """Whether some input revisits a configuration within lmax steps."""
    return any(len(set(trajectory(machine, config, lmax))) <= lmax
               for _, config, _ in enumerate_inputs(machine, inputs))


def random_machine(rng: random.Random, name: str) -> MachineSpec:
    m = rng.randint(2, 4)
    rules = {(q, sym): (rng.randint(1, m), rng.randint(0, 9), rng.choice((-1, 0, 1)))
             for q in range(1, m) for sym in range(10)}
    return MachineSpec(name, m, 1, m, rules)


def draw_machine(rng: random.Random, cls: str, inputs: int, lmax: int, name: str):
    """First random machine whose `inputs` inputs all fall in class `cls`,
    with the class's fixed total of halting steps and, for never, no loop."""
    while True:
        machine = random_machine(rng, name)
        steps = halting_steps(machine, inputs, lmax)
        if cls in STEPS_PER_INPUT and sum(s or 0 for s in steps) != STEPS_PER_INPUT[cls] * inputs:
            continue
        if all(input_class(s) == cls for s in steps) and not (
                cls == "never" and loops(machine, inputs, lmax)):
            return machine, steps


def generate(workload: str, seed: int, workdir: Path):
    """Endless stream of Ops; the same seed gives the same stream."""
    lmax = LMAX[workload]
    rng = random.Random(seed)
    index = 0
    for rnd in itertools.count():
        inputs = INPUTS[workload]
        machines = []
        for cls in CLASSES:
            name = f"m{rnd}{cls}"
            machine, steps = draw_machine(rng, cls, inputs, lmax, name)
            path = workdir / f"{name}.tm"
            path.write_text(format_machine(machine))
            machines.append((cls, machine, steps, str(path)))
        for sub, (cls, machine, steps, path) in _order(workload, machines):
            out = workdir / f"op{index}"
            op = Op(index, sub, [], out, cls, machine, inputs, lmax, steps=steps)
            op.argv = _argv(op, path, rng)
            yield op
            index += 1


# A timed run stops only between units, so its mix of op costs is the same
# whatever the seed or the speed of the machine.  A unit is a whole round
# (verify, perturb), or in lift, where a round takes half a run or more, one
# machine's three subcommands.
UNIT = {"verify": 9, "perturb": 3, "lift": 3}

SUBCOMMANDS = {"verify": ("verify", "simulate", "sphere"),
               "perturb": ("perturb",),
               "lift": ("compile", "extend3d", "estimate")}


def _order(workload: str, machines: list):
    """Ops of one round.  verify cycles the classes within each subcommand,
    so a run cut at any op holds each class about equally; lift runs each
    machine's ops together, so the cheap estimates are not all left last."""
    subs = SUBCOMMANDS[workload]
    if workload == "lift":
        return [(sub, m) for m in machines for sub in subs]
    return [(sub, m) for sub in subs for m in machines]


def _argv(op: Op, path: str, rng: random.Random) -> list:
    if op.sub == "estimate":
        op.sb = ESTIMATE_SB
        op.machine, op.steps, op.inputs = None, [], 0
        return ["estimate", "--sb", repr(op.sb), "--C", "1", "--out", str(op.out)]
    argv = [op.sub, "--machine", path, "--inputs", str(op.inputs),
            "--lmax", str(op.lmax), "--out", str(op.out)]
    if op.sub == "perturb":
        op.trials = PERTURB_TRIALS
        argv += ["--trials", str(op.trials), "--seed", str(rng.randrange(10**6))]
    elif op.sub == "extend3d":
        op.degree = rng.randint(3, 6)
        argv += ["--degree", str(op.degree)]
    return argv
