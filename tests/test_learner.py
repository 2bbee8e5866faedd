"""Core update rule: hit/miss branches, removal coin, trace invariants."""

import collections
import itertools
import math

import pytest

from protostream.errors import ConfigError, EmptyCandidatesError, EmptyModelError
from protostream.index import INDEX_KINDS, INDEXES, LinearScanIndex, VpTreeIndex
from protostream.learner import Action, LearnerConfig, predict, step
from protostream.metrics import METRICS
from protostream.rng import RandomStream, learner_stream_index, sample_uniform

from handles import nearest_outputs, stored_outputs

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
    assert outcome.size_delta == 1
    assert len(m) == 2
    assert m.query_nearest_set((0.2,)) == [1]
    assert m.output(1) == 9.0


def test_step_hit_at_half_always_removes_sampled():
    config = LearnerConfig(epsilon=0.5, q=0.5)
    rng = RandomStream(2, 0)
    for trial in range(200):
        # two exemplars tied at the query; outputs distinguish them
        m = _model(((0.0,), 1.0), ((0.0,), 1.01))
        outcome = step(m, (0.0,), 1.0, ABSDIFF, config, rng)
        assert outcome.action is Action.REMOVE
        assert outcome.size_delta == -1
        # The output distance names the sampled exemplar: 0 for the first.
        sampled = 1.0 if outcome.output_distance == 0.0 else 1.01
        assert m.output(0) != sampled and len(m) == 1


def test_step_empty_model_forced_insert_consumes_no_draws():
    m = _model()
    config = LearnerConfig(epsilon=0.5, q=0.75)
    rng = RandomStream(3, 0)
    before = rng.state
    outcome = step(m, (1.0,), 2.0, ABSDIFF, config, rng)
    assert rng.state == before
    assert outcome.action is Action.INSERT
    assert outcome.size_delta == 1
    assert outcome.output_distance == math.inf
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


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_step_draws_per_outcome(kind):
    # A step's draws, against a reference stream advanced by hand: none on
    # an empty model, the sample's one on a miss, the sample's and the
    # coin's on a Keep or a Remove.
    config = LearnerConfig(epsilon=0.5, q=0.75)
    index = INDEXES[kind](EUCLID)
    rng, ref = RandomStream(6, 0), RandomStream(6, 0)
    assert step(index, (0.0,), 0.0, ABSDIFF, config, rng).action is Action.INSERT
    assert rng.state == ref.state
    assert step(index, (1.0,), 9.0, ABSDIFF, config, rng).action is Action.INSERT
    ref.next_u64()
    assert rng.state == ref.state
    seen = set()
    for _ in range(40):
        outcome = step(index, (0.1,), 0.0, ABSDIFF, config, rng)
        ref.next_u64()
        removes = ref.next_unit() < config.remove_probability
        assert outcome.action is (Action.REMOVE if removes else Action.KEEP)
        assert rng.state == ref.state
        seen.add(outcome.action)
        if removes:
            index.insert((0.0,), 0.0)
    assert seen == {Action.KEEP, Action.REMOVE}


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_step_tie_draws_one_sample_and_the_coin(kind):
    # Three exemplars tie at the query and every one is a hit: the sample is
    # one next_below(3) draw, then the coin takes one more.
    config = LearnerConfig(epsilon=0.5, q=0.75)
    rng, ref = RandomStream(7, 0), RandomStream(7, 0)
    picked = set()
    for _ in range(40):
        index = INDEXES[kind](EUCLID)
        for y in (0.0, 0.1, 0.2):
            index.insert((0.0,), y)
        outputs = nearest_outputs(index, (0.0,))
        outcome = step(index, (0.0,), 0.0, ABSDIFF, config, rng)
        j = ref.next_below(3)
        removes = ref.next_unit() < config.remove_probability
        assert outcome.output_distance == ABSDIFF.distance(outputs[j], 0.0)
        assert outcome.action is (Action.REMOVE if removes else Action.KEEP)
        assert rng.state == ref.state
        picked.add(j)
    assert picked == {0, 1, 2}


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_step_with_a_nan_point_has_no_candidate(kind):
    # Every distance to a NaN point is NaN, so the nearest set is empty: the
    # step raises before drawing and leaves the model as it was.
    index = INDEXES[kind](EUCLID)
    for i in range(40):
        index.insert((0.1 * i,), 0.0)
    rng, ref = RandomStream(8, 0), RandomStream(8, 0)
    with pytest.raises(EmptyCandidatesError, match="empty candidate list"):
        step(index, (math.nan,), 0.0, ABSDIFF, LearnerConfig(epsilon=0.5, q=0.75), rng)
    assert rng.state == ref.state
    assert len(index) == 40


def _float_coin_step(index, x, y_true, config, rng):
    # The rule as it read before step lost its calls: a size probe, the
    # sample_uniform helper, the checked output accessor and the float coin
    # next_unit() < remove_probability.  Returns (output distance, delta).
    if not len(index):
        index.insert(x, y_true)
        return math.inf, +1
    sampled = sample_uniform(index.query_nearest_set(x, config.tie_tolerance), rng)
    d = ABSDIFF.distance(index.output(sampled), y_true)
    if d > config.epsilon:
        index.insert(x, y_true)
        return d, +1
    if rng.next_unit() < config.remove_probability:
        index.remove(sampled)
        return d, -1
    return d, 0


@pytest.mark.parametrize("tie_tolerance", [0.0, 0.1])
@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_step_draws_what_the_float_coin_rule_drew(kind, tie_tolerance, monkeypatch):
    # Every draw is counted through a wrapped next_u64, as the benchmark
    # tracer counts them.  Coarse inputs make ties of several exemplars, and
    # at q = 0.55 the model empties now and then.
    draws = collections.Counter()
    next_u64 = RandomStream.next_u64

    def counted(stream):
        draws[stream] += 1
        return next_u64(stream)

    monkeypatch.setattr(RandomStream, "next_u64", counted)
    config = LearnerConfig(epsilon=0.4, q=0.55, tie_tolerance=tie_tolerance)
    index, ref_index = INDEXES[kind](EUCLID), INDEXES[kind](EUCLID)
    rng, ref = RandomStream(9, 0), RandomStream(9, 0)
    source = RandomStream(9, 1)
    seen = collections.Counter()
    for _ in range(3000):
        x, y = (source.next_below(24) / 8.0,), source.next_unit()
        ties = len(ref_index) and len(ref_index.query_nearest_set(x, tie_tolerance))
        expected = _float_coin_step(ref_index, x, y, config, ref)
        outcome = step(index, x, y, ABSDIFF, config, rng)
        assert (outcome.output_distance, outcome.size_delta) == expected
        assert draws[rng] == draws[ref] and rng.state == ref.state
        seen[outcome.action] += 1
        seen["empty" if not ties else "tie" if ties > 1 else "single"] += 1
    assert min(seen.values()) >= 50, seen


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
    assert list(itertools.accumulate(o.size_delta for o in outcomes)) == [1, 0, 1, 0, 1]
    assert outcomes[0].output_distance == math.inf
    assert outcomes[2].output_distance == math.inf


def test_run_stream_single_element():
    config = LearnerConfig(epsilon=1.0, q=0.75, seed=0)
    index = LinearScanIndex(EUCLID)
    outcomes = _run([((0.5,), 1.0)], config, index)
    assert len(outcomes) == 1
    assert outcomes[0].action is Action.INSERT
    assert len(index) == 1


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
    # Equal output distances at every step, and equal stored outputs at the
    # end, mean that both backends sampled and removed the same exemplars.
    lin, tree = LinearScanIndex(EUCLID), VpTreeIndex(EUCLID)
    plain = _run(pairs, config, lin)
    indexed = _run(pairs, config, tree)
    assert plain == indexed
    assert stored_outputs(tree) == stored_outputs(lin)


def test_size_delta_identity_over_run():
    config = LearnerConfig(epsilon=0.2, q=0.75, seed=31)
    rng = RandomStream(97, 1)
    pairs = [((rng.next_unit(),), rng.next_unit()) for _ in range(1000)]
    index = LinearScanIndex(EUCLID)
    outcomes = _run(pairs, config, index)
    miss_fraction = sum(1 for o in outcomes if o.action is Action.INSERT) / len(outcomes)
    remove_fraction = sum(1 for o in outcomes if o.action is Action.REMOVE) / len(outcomes)
    mean_delta = sum(o.size_delta for o in outcomes) / len(outcomes)
    assert mean_delta == pytest.approx(miss_fraction - remove_fraction, abs=0.0)
    assert len(index) == sum(o.size_delta for o in outcomes)
