"""Cross-dataset scoring: min-max normalization, aggregation, ranks, leaderboard.

A model's normalized score on a dataset rescales its accuracy by the worst
and best accuracies any model achieved there, so easy datasets (where
everyone lands near 1.0) cannot wash out the comparison.  The leaderboard
metric is the unweighted mean of those normalized scores over all datasets;
fractional average ranks are reported alongside as a second view of the same
grid.  All means use exact summation, so every result is independent of
dataset and model enumeration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import IncompleteGrid, InfbenchError


@dataclass
class ScoreTable:
    """Raw accuracy grid s[(model_id, dataset_id)] plus its axes."""

    model_ids: list
    dataset_ids: list
    raw: dict = field(default_factory=dict)

    def require_complete(self) -> None:
        for m in self.model_ids:
            for d in self.dataset_ids:
                if (m, d) not in self.raw:
                    raise IncompleteGrid(m, d)

    def dataset_scores(self, dataset_id) -> dict:
        return {m: self.raw[(m, dataset_id)] for m in self.model_ids}


def minmax_normalize(scores: dict) -> dict:
    """Rescale one dataset's per-model scores to [0, 1].

    n_m = (s_m - min) / (max - min).  When every model ties (max == min) all
    of them count as the best available and receive 1.0.
    """
    if len(scores) < 2:
        raise InfbenchError(
            f"min-max normalization needs >= 2 models, got {len(scores)}"
        )
    lo = min(scores.values())
    hi = max(scores.values())
    if hi == lo:
        return {m: 1.0 for m in scores}
    return {m: (s - lo) / (hi - lo) for m, s in scores.items()}


def normalize_table(table: ScoreTable):
    """Per-dataset normalized grid plus the (min, max) used for each dataset."""
    table.require_complete()
    normalized = {}
    extremes = {}
    for d in table.dataset_ids:
        scores = table.dataset_scores(d)
        extremes[d] = (min(scores.values()), max(scores.values()))
        for m, n in minmax_normalize(scores).items():
            normalized[(m, d)] = n
    return normalized, extremes


def _model_means(table: ScoreTable, grid: dict) -> dict:
    """Per-model exact mean of ``grid[(model_id, dataset_id)]`` over all datasets."""
    k = len(table.dataset_ids)
    return {
        m: math.fsum(grid[(m, d)] for d in table.dataset_ids) / k
        for m in table.model_ids
    }


def aggregate_minmax(table: ScoreTable) -> dict:
    """Per-model mean of normalized scores over all datasets."""
    return _model_means(table, normalize_table(table)[0])


def _fractional_ranks(scores: dict) -> dict:
    """Descending fractional ranks: tied scores share the mean of their
    positions, i.e. (scores above) + (ties + 1) / 2."""
    values = list(scores.values())
    return {m: sum(v > s for v in values) + (values.count(s) + 1) / 2
            for m, s in scores.items()}


def average_rank(table: ScoreTable) -> dict:
    """Per-model mean fractional rank over datasets (lower is better)."""
    table.require_complete()
    ranks = {
        (m, d): r
        for d in table.dataset_ids
        for m, r in _fractional_ranks(table.dataset_scores(d)).items()
    }
    return _model_means(table, ranks)


@dataclass
class LeaderboardRow:
    rank: int
    model_id: str
    minmax: float
    avg_rank: float
    generator: str


@dataclass
class Leaderboard:
    rows: list
    n_datasets: int
    normalized: dict = field(default_factory=dict)  # (model_id, dataset_id) -> [0, 1]
    score_range: dict = field(default_factory=dict)  # dataset_id -> (min, max) raw score


def build_leaderboard(table: ScoreTable, generators: dict) -> Leaderboard:
    """Sorted leaderboard with dense 1-based ranks.

    Orders descending by MinMax score, alphabetical model id on ties; tied
    MinMax scores share the better rank.  The grid is normalized and ranked
    once; the board keeps the normalized grid and each dataset's range.
    """
    normalized, score_range = normalize_table(table)
    minmax = _model_means(table, normalized)
    avg = average_rank(table)
    distinct = set(minmax.values())
    rows = []
    for m, score in sorted(minmax.items(), key=lambda kv: (-kv[1], kv[0])):
        rows.append(LeaderboardRow(
            rank=1 + sum(v > score for v in distinct),
            model_id=m,
            minmax=score,
            avg_rank=avg[m],
            generator=generators.get(m, "baseline"),
        ))
    return Leaderboard(rows=rows, n_datasets=len(table.dataset_ids),
                       normalized=normalized, score_range=score_range)


def render_leaderboard(board: Leaderboard) -> str:
    """Aligned text table: Rank, Model, MinMax (4 decimals), Generator."""
    headers = ("Rank", "Model", "MinMax", "Generator")
    body = [
        (str(r.rank), r.model_id, format(r.minmax, ".4f"), r.generator.capitalize())
        for r in board.rows
    ]
    widths = [
        max(len(headers[c]), max((len(row[c]) for row in body), default=0))
        for c in range(4)
    ]
    lines = [
        "  ".join(headers[c].ljust(widths[c]) for c in range(4)).rstrip(),
        "  ".join("-" * widths[c] for c in range(4)),
    ]
    for row in body:
        cells = [row[0].rjust(widths[0])] + [
            row[c].ljust(widths[c]) for c in range(1, 4)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"
