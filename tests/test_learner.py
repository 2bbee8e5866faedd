"""Core update rule: hit/miss branches, removal coin, trace invariants."""

import math

import pytest

from protostream.errors import ConfigError, EmptyModelError
from protostream.index import LinearScanIndex, VpTreeIndex
from protostream.learner import Action, LearnerConfig, predict, step
from protostream.metrics import METRICS
from protostream.rng import RandomStream, learner_stream_index

EUCLID = METRICS["euclidean"]
ABSDIFF = METRICS["absolute_difference"]


def _model(*pairs):
    index = LinearScanIndex(EUCLID)
    for x, y in pairs:
        index.insert(x, y)
    return index


def _run(pairs, config, index=None):
    # Steps an index, empty unless given, through the pairs as a run does:
    # one learner substream, one step per pair.
    index = LinearScanIndex(EUCLID) if index is None else index
    rng = RandomStream(config.seed, learner_stream_index(0))
    return [step(index, x, y, ABSDIFF, config, rng) for x, y in pairs]


def test_config_properties_are_complementary():
    for q in (0.5, 0.6, 0.75, 0.8, 0.9, 0.99):
        config = LearnerConfig(epsilon=1.0, q=q)
        assert config.remove_probability == 1.0 / q - 1.0
        assert 0.0 < config.remove_probability <= 1.0


def test_config_validation():
    with pytest.raises(ConfigError):
        LearnerConfig(epsilon=0.0, q=0.75)
    with pytest.raises(ConfigError):
        LearnerConfig(epsilon=-1.0, q=0.75)
    with pytest.raises(ConfigError):
        LearnerConfig(epsilon=1.0, q=1.0)
    with pytest.raises(ConfigError):
        LearnerConfig(epsilon=1.0, q=0.49)
    with pytest.raises(ConfigError):
        LearnerConfig(epsilon=1.0, q=0.75, tie_tolerance=-0.1)
    with pytest.raises(ConfigError):
        LearnerConfig(epsilon=1.0, q=0.75, seed=-1)
    # boundary q = 0.5 is allowed
    LearnerConfig(epsilon=1.0, q=0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite_tie_tolerance(bad):
    with pytest.raises(ConfigError):
        LearnerConfig(epsilon=1.0, q=0.75, tie_tolerance=bad)


def test_nearest_set_single_and_ties():
    m = _model(((0.0,), 1.0), ((2.0,), 5.0))
    assert m.query_nearest_set((0.1,)) == [0]
    assert m.query_nearest_set((1.0,)) == [0, 1]


def test_nearest_set_empty_model_rejected():
    with pytest.raises(EmptyModelError):
        _model().query_nearest_set((0.0,))


def test_predict_singleton_returns_stored_output():
    m = _model(((0.0,), 7.0))
    rng = RandomStream(0, 0)
    for _ in range(5):
        assert predict(m, (3.0,), LearnerConfig(epsilon=1.0, q=0.5), rng) == 7.0


def test_predict_empty_model_rejected():
    with pytest.raises(EmptyModelError):
        predict(_model(), (0.0,), LearnerConfig(epsilon=1.0, q=0.5),
                RandomStream(0, 0))


def test_predict_tie_splits_evenly():
    m = _model(((0.0,), 1.0), ((2.0,), 5.0))
    config = LearnerConfig(epsilon=1.0, q=0.75)
    rng = RandomStream(13, 0)
    trials = 100_000
    ones = sum(
        1 for _ in range(trials) if predict(m, (1.0,), config, rng) == 1.0
    )
    assert abs(ones / trials - 0.5) <= 0.01


def test_step_miss_inserts_observed_pair():
    m = _model(((0.0,), 0.0))
    config = LearnerConfig(epsilon=0.5, q=0.75)
    outcome = step(m, (0.2,), 9.0, ABSDIFF, config, RandomStream(1, 0))
    assert outcome.action is Action.INSERT
    assert not outcome.hit
    assert outcome.size_delta == 1
    assert outcome.model_size_after == 2
    assert m.query_nearest_set((0.2,)) == [1]
    assert m.output(1) == 9.0


def test_step_hit_at_half_always_removes_sampled():
    config = LearnerConfig(epsilon=0.5, q=0.5)
    rng = RandomStream(2, 0)
    for trial in range(200):
        # two exemplars tied at the query; outputs distinguish them
        m = _model(((0.0,), 1.0), ((0.0,), 1.01))
        outcome = step(m, (0.0,), 1.0, ABSDIFF, config, rng)
        assert outcome.hit
        assert outcome.action is Action.REMOVE
        assert outcome.size_delta == -1
        survivor = m.output(0)
        removed_was = 1.0 if survivor == 1.01 else 1.01
        expected = 1.0 if outcome.sampled_index == 0 else 1.01
        assert removed_was == expected


def test_step_empty_model_forced_insert_consumes_no_draws():
    m = _model()
    config = LearnerConfig(epsilon=0.5, q=0.75)
    rng = RandomStream(3, 0)
    before = rng.state
    outcome = step(m, (1.0,), 2.0, ABSDIFF, config, rng)
    assert rng.state == before
    assert outcome.action is Action.INSERT
    assert not outcome.hit
    assert outcome.output_distance == math.inf
    assert outcome.sampled_index is None
    assert len(m) == 1
    assert m.output(0) == 2.0


def test_step_hit_keep_leaves_model_alone():
    # q = 0.99 keeps with probability 1 - (1/0.99 - 1) ~ 0.9899
    config = LearnerConfig(epsilon=0.5, q=0.99)
    rng = RandomStream(4, 0)
    kept = 0
    for _ in range(300):
        m = _model(((0.0,), 1.0))
        outcome = step(m, (0.0,), 1.0, ABSDIFF, config, rng)
        if outcome.action is Action.KEEP:
            kept += 1
            assert len(m) == 1
            assert outcome.size_delta == 0
    assert kept > 270


def test_forced_hits_remove_frequency_tracks_q():
    config = LearnerConfig(epsilon=0.5, q=0.8)
    rng = RandomStream(5, 0)
    trials = 100_000
    removes = 0
    for _ in range(trials):
        m = _model(((0.0,), 1.0))
        outcome = step(m, (0.0,), 1.0, ABSDIFF, config, rng)
        if outcome.action is Action.REMOVE:
            removes += 1
    assert abs(removes / trials - 0.25) <= 0.01


def test_run_stream_degenerate_regime_pinned_trace():
    # epsilon above the output diameter: every consult is a hit, and
    # q = 0.5 turns every hit into a removal
    config = LearnerConfig(epsilon=10.0, q=0.5, seed=7)
    pairs = [((float(i),), 0.0) for i in range(5)]
    outcomes = _run(pairs, config)
    assert [o.action for o in outcomes] == [
        Action.INSERT, Action.REMOVE, Action.INSERT, Action.REMOVE, Action.INSERT,
    ]
    assert [o.model_size_after for o in outcomes] == [1, 0, 1, 0, 1]
    assert outcomes[0].output_distance == math.inf
    assert outcomes[2].output_distance == math.inf
    assert not outcomes[0].hit
    assert outcomes[1].hit


def test_run_stream_single_element():
    config = LearnerConfig(epsilon=1.0, q=0.75, seed=0)
    outcomes = _run([((0.5,), 1.0)], config)
    assert len(outcomes) == 1
    assert outcomes[0].action is Action.INSERT
    assert outcomes[0].model_size_after == 1


def test_run_stream_same_seed_reproduces():
    config = LearnerConfig(epsilon=0.3, q=0.75, seed=11)
    rng = RandomStream(99, 1)
    pairs = [((rng.next_unit() * 4.0,), rng.next_unit()) for _ in range(400)]
    a = _run(pairs, config)
    b = _run(pairs, config)
    assert a == b


def test_run_stream_index_backend_parity():
    config = LearnerConfig(epsilon=0.3, q=0.75, seed=21)
    rng = RandomStream(98, 1)
    pairs = [((rng.next_unit() * 4.0,), rng.next_unit()) for _ in range(400)]
    plain = _run(pairs, config)
    indexed = _run(pairs, config, VpTreeIndex(EUCLID))
    assert [(o.action, o.sampled_index, o.model_size_after, o.output_distance)
            for o in plain] == \
           [(o.action, o.sampled_index, o.model_size_after, o.output_distance)
            for o in indexed]


def test_size_delta_identity_over_run():
    config = LearnerConfig(epsilon=0.2, q=0.75, seed=31)
    rng = RandomStream(97, 1)
    pairs = [((rng.next_unit(),), rng.next_unit()) for _ in range(1000)]
    outcomes = _run(pairs, config)
    miss_fraction = sum(1 for o in outcomes if not o.hit) / len(outcomes)
    remove_fraction = sum(1 for o in outcomes if o.action is Action.REMOVE) / len(outcomes)
    mean_delta = sum(o.size_delta for o in outcomes) / len(outcomes)
    assert mean_delta == pytest.approx(miss_fraction - remove_fraction, abs=0.0)
    assert outcomes[-1].model_size_after == sum(o.size_delta for o in outcomes)
