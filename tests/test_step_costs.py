"""Exact Python-call and bytecode cost of the per-step paths.

``sys.setprofile`` counts every Python function call (a "call" event; calls
of C functions are "c_call" events and are not counted) over a short run of
each hot loop.  The counts are exact, so they do not drift with the host:
the bounds sit just above the counts of this code, and a call put back on
the per-step path (a ``len(index)`` probe in ``step`` costs one per step)
fails them.  The counts were taken on CPython 3.11; another version calls
differently inside the standard library, so there the tests skip.

Counts of this code, and of the code before the step path lost its size
probe, ``sample_uniform`` call, checked output accessor and float coins
(in brackets): ``big_model``'s shape 26,281 [40,102], ``churn``'s 28,218
[41,233], the branch run 18,091 [28,088] and the growth run 3,054 [6,079].
``next_units`` is one comprehension, a call per 256 draws (26,269 and
28,206 before).  Verify's q = 0.5 theorem shape, where the tree's
maintenance calls weigh most, makes 27,516 (27,662 before a compaction
came to keep only the live ids).  A run reads its model size at each series
point, one ``len(index)`` call per 1000 steps where it used to sum the
deltas: 3 calls more on each theorem shape, so ``big_model``'s makes 26,284,
``churn``'s 28,221, verify's 27,519 and ``run_trace``'s untraced shape 24,828.

``sys.settrace`` with ``f_trace_opcodes`` counts every bytecode executed in
Python frames over the four theorem shapes, which catches work added inside
a function as well as a call.  Counts of this code, and of the code before
the vp-tree's internal nodes came to route only, every live id sitting in a
leaf (in brackets): ``run_trace``'s untraced shape 1,860,113 [1,868,696],
``big_model``'s 2,724,603 [2,909,123], ``churn``'s 2,887,005 [3,125,126]
and verify's q = 0.5 theorem shape 1,835,783 [1,859,547].
"""

import gc
import sys

import pytest

from protostream.experiments import (
    conditional_branch_experiment,
    growth_identity_experiment,
    theorem_experiment,
)
from protostream.learner import LearnerConfig
from protostream.metrics import METRICS, TARGETS
from protostream.rng import points_stream_index
from protostream.streams import IidUniform

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the call-count bounds were taken on CPython 3.11")


def _python_calls(fn) -> int:
    """Python function calls made while ``fn()`` runs, ``fn`` itself included."""
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection in the middle could run a finalizer and count its calls.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def _opcodes(fn) -> int:
    """Bytecodes executed in Python frames while ``fn()`` runs."""
    opcodes = 0

    def trace(frame, event, _arg):
        nonlocal opcodes
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            opcodes += 1
        return trace

    previous = sys.gettrace()
    gc.collect()
    gc.disable()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
        gc.enable()
    return opcodes


def _theorem_run(epsilon: float, q: float, steps: int):
    # A benchmark workload's shape (perfbench/run.py), shortened.
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=epsilon, q=q, seed=0)
    generator = IidUniform(target.domain, 0, points_stream_index(0))
    return lambda: theorem_experiment(target, METRICS["euclidean"], config, generator, steps,
                                      tail_window=steps, index_kind="vptree")


@pytest.mark.parametrize("run, bound", [
    (_theorem_run(0.05, 0.9, 3000), 25_000),    # run_trace's shape, untraced: 8.28 per step
    (_theorem_run(0.002, 0.9, 3000), 26_500),   # big_model's shape: 8.76 calls per step
    (_theorem_run(0.001, 0.5, 3000), 28_500),   # churn's shape: 9.41 per step
    (_theorem_run(0.05, 0.5, 3000), 27_900),    # verify's q = 0.5 theorem shape: 9.17
    (lambda: conditional_branch_experiment(0.75, 2000, 0), 18_200),  # 9.05 per trial
    (lambda: growth_identity_experiment(0.5, 0.75, 2000, 0), 3_100),  # 1.53 per step
], ids=["run_trace", "big_model", "churn", "verify_q0.5", "branch", "growth"])
def test_python_calls_per_step_stay_down(run, bound):
    assert _python_calls(run) <= bound


@pytest.mark.parametrize("run, bound", [
    (_theorem_run(0.05, 0.9, 3000), 1_861_000),    # run_trace's shape, untraced: 620.0 per step
    (_theorem_run(0.002, 0.9, 3000), 2_725_000),   # big_model's shape: 908.2 per step
    (_theorem_run(0.001, 0.5, 3000), 2_888_000),   # churn's shape: 962.3 per step
    (_theorem_run(0.05, 0.5, 3000), 1_836_000),    # verify's q = 0.5 theorem shape: 611.9
], ids=["run_trace", "big_model", "churn", "verify_q0.5"])
def test_bytecodes_per_step_stay_down(run, bound):
    assert _opcodes(run) <= bound
