"""Helpers shared by the benchmark workloads.

Statistics (interpolated percentiles, medians), a seeded Zipf sampler,
peak-RSS readings from ``/proc``, and the location of the program under
test.  Nothing here imports :mod:`repro`; the workloads do that after
:func:`require_program` has put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import sys
from pathlib import Path

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Scratch space the benchmark may write (ignored by git).
WORK = ROOT / ".perfbench"


class SetupError(RuntimeError):
    """The checkout lacks something the benchmark needs; no result."""


class CheckFailure(AssertionError):
    """An output check failed: the program answered wrongly."""


def require_program() -> None:
    """Put the checkout's ``src`` on ``sys.path`` or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program under {SRC}: expected src/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    if not SPEC.is_file():
        raise SetupError(f"missing {SPEC.name}")
    return json.loads(SPEC.read_text(encoding="utf-8"))


def child_env() -> dict:
    """Environment for child interpreters that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailure` (never stripped by ``-O``)."""
    if not condition:
        raise CheckFailure(message)


# -- statistics ----------------------------------------------------------------

def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if len(data) == 1:
        return float(data[0])
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    return float(data[low] + (data[high] - data[low]) * (position - low))


def median(values) -> float:
    return percentile(values, 50.0)


def ms(seconds: float) -> float:
    return seconds * 1e3


# -- seeded inputs ---------------------------------------------------------------

def rng_for(seed: int, *parts) -> random.Random:
    """An independent generator per (seed, purpose) pair."""
    return random.Random(":".join([str(seed), *map(str, parts)]))


class Zipf:
    """Rank sampler with P(rank r) proportional to 1 / r**s (r >= 1)."""

    def __init__(self, n: int, s: float = 1.0) -> None:
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        total = sum(weights)
        running = 0.0
        self.cumulative = []
        for weight in weights:
            running += weight / total
            self.cumulative.append(running)

    def sample(self, rng: random.Random) -> int:
        """A rank in ``0..n-1`` (0 is the most popular)."""
        index = bisect.bisect_left(self.cumulative, rng.random())
        return min(index, len(self.cumulative) - 1)


def block_schedule(rng: random.Random, counts: dict) -> list:
    """One shuffled block holding exactly ``counts[kind]`` of each kind.

    Workloads repeat fixed-composition blocks so that the mix of
    operation kinds is the same in every run and only the order and
    the concrete inputs depend on the seed.
    """
    block = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(block)
    return block


# -- resources -------------------------------------------------------------------

def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of *pid* in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError("VmHWM not reported by /proc")
