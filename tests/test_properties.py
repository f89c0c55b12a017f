"""Property tests for the pure helpers: encodings, seeds, votes, scoring."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from infbench.baselearners.forest import plurality_vote
from infbench.baselearners.logistic import softmax
from infbench.baselearners.tree import grow_tree
from infbench.core import derive_seed, encode_labels
from infbench.bench.scoring import minmax_normalize
from infbench.metasynthesis import stratified_folds

# label alphabets deliberately include collision-prone text forms
label_text = st.text(
    alphabet="abc01_", min_size=1, max_size=3,
)


@given(st.lists(label_text, min_size=2, max_size=40).filter(
    lambda ls: len(set(ls)) >= 2
))
def test_encode_labels_round_trip(raw):
    classes, idx = encode_labels(raw)
    assert list(classes.labels) == sorted(set(raw))
    assert [classes.labels[i] for i in idx] == raw
    assert idx.min() >= 0 and idx.max() < classes.size


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.lists(st.integers(min_value=0, max_value=2**32), min_size=2,
             max_size=30, unique=True),
)
def test_derive_seed_streams_never_collide(base, stream_ids):
    seeds = [derive_seed(base, s) for s in stream_ids]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < 2**64 for s in seeds)


@given(st.data())
def test_plurality_vote_picks_a_modal_class(data):
    n = data.draw(st.integers(1, 6))
    t = data.draw(st.integers(1, 9))
    votes = np.asarray(
        data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=t, max_size=t),
            min_size=n, max_size=n,
        ))
    )
    picked = plurality_vote(votes)
    for i in range(n):
        counts = np.bincount(votes[i])
        modal = np.flatnonzero(counts == counts.max())
        assert picked[i] == modal.min()  # lowest index among the most voted


@given(st.dictionaries(
    st.text(alphabet="mn123", min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=2, max_size=6,
))
def test_minmax_range_and_endpoints(scores):
    out = minmax_normalize(scores)
    values = list(out.values())
    assert all(0.0 <= v <= 1.0 for v in values)
    assert max(values) == 1.0
    hi = max(scores.values())
    lo = min(scores.values())
    for m, s in scores.items():
        if s == hi:
            assert out[m] == 1.0
        if s == lo and hi != lo:
            assert out[m] == 0.0


@given(st.data())
@settings(max_examples=60)
def test_stratified_folds_partition_and_balance(data):
    cv = data.draw(st.integers(2, 5))
    counts = data.draw(st.lists(st.integers(cv, 4 * cv), min_size=2, max_size=4))
    seed = data.draw(st.integers(0, 2**32))
    y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    folds = stratified_folds(y, cv, seed)
    assert folds.shape == y.shape
    assert set(np.unique(folds)) <= set(range(cv))
    for c in range(len(counts)):
        sizes = [int(((folds == k) & (y == c)).sum()) for k in range(cv)]
        assert sum(sizes) == counts[c]
        assert max(sizes) - min(sizes) <= 1


@given(st.data())
@settings(max_examples=60)
def test_softmax_rows_are_distributions(data):
    n = data.draw(st.integers(1, 5))
    c = data.draw(st.integers(2, 5))
    scores = np.asarray(data.draw(st.lists(
        st.lists(st.floats(-700, 700, allow_nan=False), min_size=c, max_size=c),
        min_size=n, max_size=n,
    )))
    p = softmax(scores)
    assert np.all(p >= 0.0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    # shifting every score in a row leaves the distribution (nearly) unchanged
    shifted = softmax(scores + 3.25)
    assert np.allclose(p, shifted, atol=1e-9)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_tree_training_accuracy_beats_majority_vote(data):
    # each leaf predicts its own majority, so the whole tree can never do
    # worse on its training data than always answering the global majority
    n = data.draw(st.integers(4, 30))
    f = data.draw(st.integers(1, 3))
    depth = data.draw(st.integers(0, 4))
    X = np.asarray(data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=f, max_size=f),
        min_size=n, max_size=n,
    )), dtype=np.float64)
    y = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                   dtype=np.int64)
    n_classes = int(y.max()) + 1
    model = grow_tree(X, y, n_classes, max_depth=depth)
    pred = model.predict_idx(X)
    majority_share = np.bincount(y).max() / n
    assert np.mean(pred == y) >= majority_share - 1e-12
