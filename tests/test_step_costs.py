"""Exact Python-call cost of the per-step paths.

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
came to keep only the live ids).
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


def _theorem_run(epsilon: float, q: float, steps: int):
    # A benchmark workload's shape (perfbench/run.py), shortened.
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=epsilon, q=q, seed=0)
    generator = IidUniform(target.domain, 0, points_stream_index(0))
    return lambda: theorem_experiment(target, METRICS["euclidean"], config, generator, steps,
                                      tail_window=steps, index_kind="vptree")


@pytest.mark.parametrize("run, bound", [
    (_theorem_run(0.002, 0.9, 3000), 26_500),   # big_model's shape: 8.76 calls per step
    (_theorem_run(0.001, 0.5, 3000), 28_500),   # churn's shape: 9.41 per step
    (_theorem_run(0.05, 0.5, 3000), 27_900),    # verify's q = 0.5 theorem shape: 9.17
    (lambda: conditional_branch_experiment(0.75, 2000, 0), 18_200),  # 9.05 per trial
    (lambda: growth_identity_experiment(0.5, 0.75, 2000, 0), 3_100),  # 1.53 per step
], ids=["big_model", "churn", "verify_q0.5", "branch", "growth"])
def test_python_calls_per_step_stay_down(run, bound):
    assert _python_calls(run) <= bound
