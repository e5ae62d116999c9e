"""Shared helpers for the benchmark harness.

Run with ``pytest benchmarks/ --benchmark-only``.  Each benchmark
regenerates one table/figure of the paper, prints the paper-vs-measured
report, and asserts the qualitative shape (who wins, by roughly what
factor, where trends bend) rather than absolute equality.
"""

import statistics

import pytest


def emit(report: str) -> None:
    """Print an experiment report so it appears in the benchmark log."""
    print("\n" + report + "\n")


def paired_ratios(numerator, denominator, pairs, runs):
    """Per-pair ratios of two timed arms: ``sum(numerator()) /
    sum(denominator())`` over ``runs`` runs of each.

    Each arm is a zero-argument callable that runs the workload once and
    returns its timed seconds.  Within a pair the two arms' runs
    interleave, and the arm that leads alternates (A-B, B-A, ...), so
    slow host drift lands on both arms alike.  Gate on the median of the
    returned ratios, not on a best-of-N per arm, which one lucky run can
    sink.
    """
    ratios = []
    for i in range(pairs):
        num = den = 0.0
        for j in range(runs):
            if (i + j) % 2:
                den += denominator()
                num += numerator()
            else:
                num += numerator()
                den += denominator()
        ratios.append(num / den)
    return ratios


def ratio_summary(ratios) -> str:
    """``median m (quartiles q1-q3, range lo-hi, n pairs)``."""
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return (f"median {statistics.median(ratios):.3f} "
            f"(quartiles {q1:.3f}-{q3:.3f}, "
            f"range {min(ratios):.3f}-{max(ratios):.3f}, "
            f"{len(ratios)} pairs)")


@pytest.fixture(scope="session")
def once():
    """Run a callable exactly once per session and cache its result."""
    cache = {}

    def runner(key, fn):
        if key not in cache:
            cache[key] = fn()
        return cache[key]

    return runner
