"""Timing loop, spans and result statistics shared by the workloads.

The CPU of the reference machine switches between a fast and a slow state
(see README.md), so every timing comes from many repetitions of short, fixed
calls interleaved across the whole run, never from one long call.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

clock = time.perf_counter

# what one calibration unit counts as: its typical time on the reference machine
CALIBRATION_S = 0.5e-3


class Tracer:
    """In-memory spans (name, start, end, parent) around the benchmark's calls.

    Disabled, ``call`` is a plain call and ``span`` records nothing, so the
    untraced runs that give the end-to-end metrics carry no span cost.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, _work: float = 0.0, **kwargs):
        """fn(*args, **kwargs), inside a span ``name`` carrying ``_work`` units of work."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, clock(), 0.0, self._stack[-1] if self._stack else -1, _work])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = clock()
            self._stack.pop()

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time, self time (minus child spans), work."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}
        )
        for i, (name, start, end, _, work) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["work"] += work
        return dict(out)


@dataclass
class Op:
    """One fixed call of a workload, timed on every round.

    ``check`` runs on the first result and returns a list of failure
    messages; later rounds must reproduce the first result's ``digest``.
    """

    name: str
    kind: str  # "lib" or "cli"
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], Any]
    samples: list[float] = field(default_factory=list)  # wall time of each untraced call
    refs: list[float] = field(default_factory=list)  # calibration time around each call
    traced_samples: list[float] = field(default_factory=list)
    traced_refs: list[float] = field(default_factory=list)
    first: Any = None
    first_digest: Any = None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"{name}: {msg}" for msg in problems)


def guarded(check: Callable[..., list[str]], *args) -> list[str]:
    """A check's failure messages; a check that raises fails with the exception."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_rounds(ops: list[Op], seconds: float, outcome: Outcome, tracer: Tracer) -> int:
    """Repeat whole rounds of every op until ``seconds`` have passed.

    A round is never cut short, so each run attempts whole rounds of the same
    operations.  Every result is checked: the first fully, the rest by digest.
    With tracing on, rounds alternate untraced and traced, so the two sets of
    samples give the tracing overhead under the same machine conditions.
    """
    tracing = tracer.enabled
    deadline = clock() + seconds
    rounds = 0
    while rounds < 1 + tracing or clock() < deadline:
        tracer.enabled = tracing and rounds % 2 == 1
        for op in ops:
            t0 = clock()
            calibration_unit()
            t1 = clock()
            try:
                result = op.call()
            except Exception as exc:  # a program error fails the op, not the run
                result = exc
            t2 = clock()
            calibration_unit()
            t3 = clock()
            if tracer.enabled:
                op.traced_samples.append(t2 - t1)
                op.traced_refs.append((t1 - t0 + t3 - t2) / 2)
            else:
                op.samples.append(t2 - t1)
                op.refs.append((t1 - t0 + t3 - t2) / 2)
            if isinstance(result, Exception):
                problems = [f"raised {type(result).__name__}: {result}"]
            elif op.first is None:
                op.first = result
                problems = guarded(op.check, result)
                op.first_digest = op.digest(result)
            else:
                problems = [] if op.digest(result) == op.first_digest else [
                    "result differs from the first round"
                ]
            outcome.record(op.name, problems)
        rounds += 1
    tracer.enabled = tracing
    return rounds


def calibration_unit() -> int:
    """Fixed pure-Python work (dicts, small strings; about 0.5 ms) timed around every op.

    It shares the CPU's speed state with the op it brackets, so op time over
    calibration time stays steady while the machine's speed changes.
    """
    d = {}
    for i in range(1500):
        d[(i, i & 7)] = str(i)
    return len("".join(d.values()))


def calibrated(seconds: float, calibration: float) -> float:
    """A time in reference seconds: calibration units, each counted as CALIBRATION_S."""
    return seconds / calibration * CALIBRATION_S


def op_time(samples: list[float], refs: list[float]) -> float:
    """The per-op statistic: the median calibrated time of its samples (README.md)."""
    return statistics.median(calibrated(t, r) for t, r in zip(samples, refs))


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
