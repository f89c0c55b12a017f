"""Property tests for the pure helpers: encodings, seeds, votes, scoring."""

import math
from statistics import median

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infbench.baselearners.forest import plurality_vote
from infbench.baselearners.logistic import softmax
from infbench.baselearners.tree import grow_tree
from infbench.core import derive_seed, encode_labels
from infbench.bench.ingest import MISSING_CATEGORY, TableEncoder, infer_kinds
from infbench.bench.scoring import minmax_normalize
from infbench.errors import SchemaMismatch, UnparseableCell
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


# ------------------------------------------- ingest against per-cell loops
# The reference below reads every cell in its own loop iteration, as ingest
# once did; the encoder must agree with it on kinds, fitted state, encoded
# bytes and on which cell it rejects.

def reference_parse_real(column, row, cell):
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UnparseableCell(column, row, cell)
    return value


def reference_infer_kinds(header, rows, target_column):
    kinds = {}
    for j, col in enumerate(header):
        if col == target_column:
            continue
        numeric = True
        for row in rows:
            cell = row[j]
            if cell.strip() == "":
                continue
            try:
                float(cell)
            except ValueError:
                numeric = False
                break
        kinds[col] = "numeric" if numeric else "categorical"
    return kinds


def reference_fit(header, rows, target_column, feature_columns, kinds):
    """What ``TableEncoder.fit(...).to_dict()`` holds."""
    medians, categories, report = {}, {}, []
    for col in feature_columns:
        j = header.index(col)
        cells = [row[j] for row in rows]
        if kinds[col] == "numeric":
            values = [reference_parse_real(col, i + 1, cell)
                      for i, cell in enumerate(cells) if cell.strip() != ""]
            med = float(median(values)) if values else 0.0
            medians[col] = med
            report.append({"column": col, "kind": "numeric", "transform": "parsed as real",
                           "imputed_blanks": len(cells) - len(values), "median": med})
        else:
            observed = sorted({c for c in cells if c.strip() != ""})
            has_blank = any(c.strip() == "" for c in cells)
            if has_blank:
                observed.append(MISSING_CATEGORY)
            categories[col] = observed
            report.append({"column": col, "kind": "categorical",
                           "transform": "one-hot over file-observed categories",
                           "categories": list(observed), "missing_column": has_blank})
    return {"target_column": target_column, "feature_columns": list(feature_columns),
            "kinds": dict(kinds), "medians": medians, "categories": categories,
            "report": report}


def reference_transform(fitted, header, rows):
    positions = {}
    for col in fitted["feature_columns"]:
        if col not in header:
            raise SchemaMismatch(col)
        positions[col] = header.index(col)
    blocks = []
    for col in fitted["feature_columns"]:
        cells = [row[positions[col]] for row in rows]
        if fitted["kinds"][col] == "numeric":
            vals = np.empty(len(cells), dtype=np.float64)
            for i, cell in enumerate(cells):
                vals[i] = (fitted["medians"][col] if cell.strip() == ""
                           else reference_parse_real(col, i + 1, cell))
            blocks.append(vals.reshape(-1, 1))
        else:
            cats = fitted["categories"][col]
            block = np.zeros((len(cells), len(cats)), dtype=np.float64)
            for i, cell in enumerate(cells):
                key = MISSING_CATEGORY if cell.strip() == "" else cell
                if key in cats:
                    block[i, cats.index(key)] = 1.0
            blocks.append(block)
    return np.hstack(blocks)


NUMERIC_CELLS = ["0", "1.5", "-2", " 7 ", "1e3", "", " ", "1_0"]
ODD_NUMERIC_CELLS = ["nan", "inf", "-inf", "1e309", "x"]
CATEGORY_CELLS = ["a", "b", "", " ", "1", "2.5"]
UNSEEN_CELLS = ["c", "zz", "1.25"]


def _outcome(f):
    """``f()``, or the class and text of the ingest error it raises."""
    try:
        return f()
    except (SchemaMismatch, UnparseableCell) as e:
        return type(e).__name__, str(e)


@st.composite
def ingest_cases(draw):
    """A header, training rows, declared kinds or None, and transform-time
    rows over a permuted header.  Numeric-looking columns may hold one kind of
    non-finite or unparseable cell, declared kinds may contradict the cells,
    transform rows carry unseen categories, and the transform header may lack
    a feature column."""
    n_features = draw(st.integers(1, 3))
    header = [f"c{j}" for j in range(n_features)] + ["label"]
    pools = []
    for _ in range(n_features):
        if draw(st.booleans()):
            odd = draw(st.lists(st.sampled_from(ODD_NUMERIC_CELLS), max_size=1))
            pools.append((NUMERIC_CELLS + odd, NUMERIC_CELLS + odd))
        else:
            pools.append((CATEGORY_CELLS, CATEGORY_CELLS + UNSEEN_CELLS))

    def table(at_transform):
        return [[draw(st.sampled_from(pool[at_transform])) for pool in pools]
                + [draw(st.sampled_from("xy"))] for _ in range(draw(st.integers(1, 6)))]

    rows = table(False)
    declared = draw(st.none() | st.fixed_dictionaries(
        {col: st.sampled_from(["numeric", "categorical"]) for col in header[:-1]}))
    dropped = draw(st.integers(0, 3 * n_features))
    keep = [j for j in draw(st.permutations(range(len(header)))) if j != dropped]
    new_rows = [[row[j] for j in keep] for row in table(True)]
    return header, rows, declared, [header[j] for j in keep], new_rows


@given(ingest_cases())
# the missing column is named even though a column before it holds a bad cell
@example((["c0", "c1", "label"], [["1", "a", "x"], ["2", "b", "y"]], None,
          ["c0", "label"], [["nan", "x"]]))
@settings(max_examples=150, deadline=None)
def test_ingest_agrees_with_per_cell_loops(case):
    header, rows, declared, new_header, new_rows = case
    kinds = infer_kinds(header, rows, "label")
    assert kinds == reference_infer_kinds(header, rows, "label")
    kinds = declared or kinds
    features = header[:-1]
    encoder = TableEncoder("label", features, dict(kinds))
    fitted = _outcome(lambda: encoder.fit(header, rows).to_dict())
    assert fitted == _outcome(lambda: reference_fit(header, rows, "label", features, kinds))
    if isinstance(fitted, tuple):
        return
    got = _outcome(lambda: encoder.transform(new_header, new_rows).tobytes())
    assert got == _outcome(lambda: reference_transform(fitted, new_header, new_rows).tobytes())
