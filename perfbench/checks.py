"""Correctness checks for the benchmark's outputs.

Each check returns a list of problems; an empty list means it passed.  The
checks recompute what they can apart from the program (min-max scores and
ranks from ``raw_scores``, forest votes from the individual trees) and test
properties the method must have otherwise.  None compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

def grid_fold_accuracies(doc: dict, folds: int) -> list:
    """Every scored cell has ``folds`` accuracies in [0, 1] whose mean is its raw score."""
    problems = []
    for m, per_dataset in doc["raw_scores"].items():
        for d, raw in per_dataset.items():
            accs = doc["fold_accuracies"].get(m, {}).get(d)
            if accs is None or len(accs) != folds:
                problems.append(f"{m} on {d}: expected {folds} fold accuracies, got {accs!r}")
                continue
            if not all(0.0 <= a <= 1.0 for a in accs):
                problems.append(f"{m} on {d}: fold accuracy outside [0, 1]: {accs}")
            if sum(accs) / len(accs) != raw:
                problems.append(f"{m} on {d}: raw score {raw} is not the fold mean")
    return problems


def _fractional_ranks(scores: dict) -> dict:
    """Descending ranks, ties sharing the mean of their 1-based positions."""
    ranks = {}
    for m, s in scores.items():
        better = sum(1 for v in scores.values() if v > s)
        tied = sum(1 for v in scores.values() if v == s)
        ranks[m] = better + (tied + 1) / 2.0
    return ranks


def grid_leaderboard(doc: dict) -> list:
    """Min-max scores, average ranks and leaderboard order, recomputed from raw_scores."""
    raw = doc["raw_scores"]
    models = sorted(raw)
    if len(models) < 2:
        return ["fewer than two models scored"]
    datasets = sorted(next(iter(raw.values())))
    normalized = {m: {} for m in models}
    ranks = {m: [] for m in models}
    for d in datasets:
        scores = {m: raw[m][d] for m in models}
        lo, hi = min(scores.values()), max(scores.values())
        for m, s in scores.items():
            normalized[m][d] = 1.0 if hi == lo else (s - lo) / (hi - lo)
        for m, r in _fractional_ranks(scores).items():
            ranks[m].append(r)
    minmax = {m: math.fsum(normalized[m].values()) / len(datasets) for m in models}
    avg_rank = {m: math.fsum(ranks[m]) / len(datasets) for m in models}

    problems = []
    if doc["normalized_scores"] != normalized:
        problems.append("normalized_scores differ from the recomputation")
    if doc["minmax"] != minmax:
        problems.append(f"minmax {doc['minmax']} != recomputed {minmax}")
    if doc["average_rank"] != avg_rank:
        problems.append(f"average_rank {doc['average_rank']} != recomputed {avg_rank}")
    order = sorted(models, key=lambda m: (-minmax[m], m))
    board = doc["leaderboard"]
    if [row["model"] for row in board] != order:
        problems.append(f"leaderboard order {[r['model'] for r in board]} != {order}")
    else:
        rank, prev = 0, None
        for row in board:
            m = row["model"]
            if minmax[m] != prev:
                rank, prev = rank + 1, minmax[m]
            if (row["rank"], row["minmax"], row["avg_rank"]) != (rank, minmax[m], avg_rank[m]):
                problems.append(f"leaderboard row for {m} is {row}")
    return problems


def beats_majority(model_id: str, labels, truth) -> list:
    """A forest's accuracy on held-out rows exceeds their majority-class rate."""
    truth = [str(v) for v in truth]
    majority = max(truth.count(c) for c in set(truth)) / len(truth)
    accuracy = sum(str(p) == t for p, t in zip(labels, truth)) / len(truth)
    if accuracy > majority:
        return []
    return [f"{model_id}: accuracy {accuracy} <= majority rate {majority}"]


def grid_matches_serial(doc: dict, serial: dict) -> list:
    """Pooled cells equal serial ``evaluate_model_on_dataset`` means of the same cells."""
    problems = []
    for (m, d), mean in serial.items():
        accs = doc["fold_accuracies"][m][d]
        if sum(accs) / len(accs) != mean or doc["raw_scores"][m][d] != mean:
            problems.append(f"{m} on {d}: pooled {accs} vs serial mean {mean}")
    return problems


def loaded_bit_identical(memory, loaded, X) -> list:
    """A loaded artifact predicts exactly like the model it was saved from."""
    problems = []
    a, b = memory.predict(X), loaded.predict(X)
    if [str(v) for v in a] != [str(v) for v in b]:
        problems.append(f"{memory.kind}: loaded labels differ on "
                        f"{sum(str(x) != str(y) for x, y in zip(a, b))} rows")
    if hasattr(memory, "predict_proba"):
        pa, pb = memory.predict_proba(X), loaded.predict_proba(X)
        if pa.shape != pb.shape or pa.tobytes() != pb.tobytes():
            problems.append(f"{memory.kind}: loaded probabilities differ")
    return problems


def forest_average_argmax(forest, X, labels) -> list:
    """Random forest labels are the first argmax of the mean per-tree distribution."""
    total = np.zeros((X.shape[0], forest.classes_.size))
    for tree in forest.trees_:
        total += tree.distribution(X)
    total /= len(forest.trees_)
    expected = [str(forest.classes_.labels[i]) for i in np.argmax(total, axis=1)]
    bad = sum(e != str(v) for e, v in zip(expected, labels))
    return [f"random_forest: {bad} labels are not the averaged-tree argmax"] if bad else []


def directional_vote(forest, X, labels) -> list:
    """Directional forest labels are the per-row plurality of tree votes, low index on ties."""
    Xd = X * forest.directions_
    votes = np.stack([tree.predict_idx(Xd) for tree in forest.trees_], axis=1)
    C = forest.classes_.size
    expected = []
    for row in votes:
        counts = [0] * C
        for v in row:
            counts[int(v)] += 1
        expected.append(str(forest.classes_.labels[counts.index(max(counts))]))
    bad = sum(e != str(v) for e, v in zip(expected, labels))
    return [f"directional_forest: {bad} labels are not the tree plurality"] if bad else []


def served_response(labels, n_rows: int, known: set, expected=None) -> list:
    """A response carries one known class label per requested row.

    ``expected``, when given, is the label each row must get whatever batch
    it arrives in: true of forests, whose labels are per-row sums and votes.
    """
    if len(labels) != n_rows:
        return [f"response has {len(labels)} labels for {n_rows} rows"]
    unknown = {str(v) for v in labels} - known
    if unknown:
        return [f"response has unknown labels {sorted(unknown)}"]
    if expected is not None and [str(v) for v in labels] != list(expected):
        return ["response differs from the prediction for the same rows in one batch"]
    return []


def same_every_round(outputs: list, what: str) -> list:
    """Every round of one seed wrote the same bytes."""
    if any(o != outputs[0] for o in outputs):
        return [f"{what} differs between rounds of one seed"]
    return []
