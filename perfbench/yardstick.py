"""A fixed pure-Python computation that measures how fast the machine runs
the interpreter right now.

On a shared host the same call can run 1.5-2x slower for seconds to minutes
at a time. The benchmark times this yardstick just before every timed call
and scales the call's wall time by NOMINAL_S / yardstick time, which cancels
the machine's current speed. The yardstick is the benchmark's own code and
takes no input from the program, so a change to the program moves the
scaled times exactly as it moves the raw ones.

Its four parts mimic the program's hot paths: dataclass literals looked up
in frozensets (rule firing), a recursive evaluator over truth-table rows
(SAT), subsets built and sorted (the minimizer) and a character scanner
(the tokenizer).
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

NOMINAL_S = 0.040    # the yardstick's time on an idle core of a 2-core x86-64 VM, Python 3.11


@dataclass(frozen=True)
class _Lit:
    atom: str
    positive: bool


_RNG = random.Random(2026)
_LITS = [_Lit(f"a{_RNG.randrange(60)}", _RNG.random() < 0.5) for _ in range(2000)]
_SETS = [frozenset(_RNG.sample(_LITS, 5)) for _ in range(200)]
_BODIES = [tuple(_RNG.sample(_LITS, 2)) for _ in range(200)]
_FORMULA = ("&", ("x1", ("!", "x2"), ("|", ("x3", "x4")), "x5", "x6", "x7"))
_ATOMS = ("x1", "x2", "x3", "x4", "x5", "x6", "x7")
_UNITS = [f"u{i}" for i in range(11)]
_TEXT = "rule r1 [2]: pandemic & !consent => promotes(public_health);\n" * 150


def _eval(f, values) -> bool:
    if isinstance(f, str):
        return values[f]
    if f[0] == "!":
        return not _eval(f[1], values)
    if f[0] == "&":
        return all(_eval(x, values) for x in f[1])
    return any(_eval(x, values) for x in f[1])


def _work() -> int:
    n = sum(1 for s in _SETS for b in _BODIES if all(lit in s for lit in b))
    for _ in range(3):
        for row in itertools.product((False, True), repeat=len(_ATOMS)):
            n += _eval(_FORMULA, dict(zip(_ATOMS, row)))
    family = [frozenset(c) for r in range(len(_UNITS) + 1)
              for c in itertools.combinations(_UNITS, r)]
    family.sort(key=lambda s: (-len(s), tuple(sorted(s))))
    n += len(family)
    word = 0
    for c in _TEXT:
        if c.isalpha() or c == "_":
            word += 1
        elif c in " \n;:()[]&!=>,":
            n += word > 0
            word = 0
    return n


def measure() -> float:
    """Seconds one pass of the yardstick takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
