"""Feature-discrimination evaluation: pair angles, histograms, KL, EMD.

Angles between embedding pairs of the same class (positive pairs) and of
different classes (negative pairs) are binned over [0, 180] degrees; the
divergence between the two normalized histograms is summarized by a
Kullback-Leibler score (bin-wise separability) and a 1-d Wasserstein
distance in degrees (topological margin between the distributions).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .tensor import EPSILON, as_labels, as_matrix, normalize

KL_SMOOTHING = 1e-10
DEFAULT_BINS = 180
DEFAULT_MAX_PAIRS = 200_000
# Pairs unranked and gathered at once, so memory does not grow with the cap.
# At 64 dims its two gather buffers take 1 MiB, which fits in a 2 MiB L2.
PAIR_CHUNK = 1024


@dataclass
class AngleHistograms:
    """Positive/negative pair-angle counts over uniform degree bins; a kind's total is their sum."""

    bin_edges: np.ndarray
    pos_counts: np.ndarray
    neg_counts: np.ndarray

    @property
    def num_bins(self) -> int:
        return len(self.bin_edges) - 1

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


@dataclass
class DiscriminationScores:
    d_kl: float
    d_em: float
    accuracy: float


def _pair_rank_sample(total: int, cap: int, rng) -> np.ndarray:
    """Uniform sample of `cap` distinct ranks from [0, total), seeded.

    For spaces not much larger than the cap a partial permutation is used;
    for huge spaces, iid draws are deduplicated (by symmetry any distinct
    set is equally likely) and thinned to exactly `cap`.
    """
    if cap >= total:
        return np.arange(total, dtype=np.int64)
    if total <= max(4 * cap, 1_000_000):
        return rng.permutation(total)[:cap].astype(np.int64)
    chosen = np.array([], dtype=np.int64)
    while chosen.size < cap:
        # Sorted distinct values, as np.union1d gives, without its hash pass.
        # A round holds one array of picks and one mask at a time.
        draw = rng.integers(0, total, size=2 * (cap - chosen.size) + 16)
        chosen = np.concatenate([chosen, draw])
        del draw
        chosen.sort()
        distinct = np.empty(chosen.size, dtype=bool)
        distinct[0] = True
        np.not_equal(chosen[1:], chosen[:-1], out=distinct[1:])
        chosen = chosen[distinct]
        del distinct
    return chosen[rng.permutation(chosen.size)[:cap]]


def _locate(starts, ranks):
    """Block holding each rank, given ascending block starts, and the offset in it."""
    block = np.searchsorted(starts, ranks, side="right") - 1
    return block, ranks - starts[block]


def unit_rows(embeddings) -> tuple[np.ndarray, np.ndarray]:
    """normalize(embeddings, -1) of a finite float64 matrix, except that rows
    whose squared norm overflows are rescaled before they are normalized, so
    they keep their direction (their norm stays inf). Non-finite embeddings,
    a diverged model's, raise ConfigError."""
    nonfinite = int(np.sum(~np.all(np.isfinite(embeddings), axis=1)))
    if nonfinite:
        raise ConfigError(f"{nonfinite} embeddings are non-finite (nan or inf)")
    with np.errstate(over="ignore"):
        unit, norms = normalize(embeddings, -1)
    huge = ~np.isfinite(norms[:, 0])
    if np.any(huge):
        rows = embeddings[huge]
        unit[huge] = normalize(rows / np.max(np.abs(rows), axis=1, keepdims=True), -1)[0]
    return unit, norms


def pair_angles(
    embeddings,
    labels,
    max_pairs_per_kind: int = DEFAULT_MAX_PAIRS,
    seed=0,
) -> tuple[np.ndarray, np.ndarray]:
    """Angles in degrees over unordered positive and negative embedding pairs.

    All pairs are used when a kind has at most max_pairs_per_kind of them;
    otherwise a seeded uniform sample without replacement of exactly that
    many pairs is taken. All-zero embeddings have no direction and are
    excluded with a warning; unit_rows normalizes the rest, and raises
    ConfigError on non-finite embeddings (a diverged model).

    The angles are computed in ascending rank order, so that the row gathers
    sweep the embeddings in order, and returned in sample order.
    """
    embeddings = as_matrix(embeddings)
    labels = np.asarray(labels)
    # as_labels rejects empty labels before the class bound matters.
    labels = as_labels(labels, int(np.max(labels)) + 1 if labels.size else 1)
    if labels.shape[0] != embeddings.shape[0]:
        raise ConfigError("labels must match embedding rows")
    if max_pairs_per_kind < 1:
        raise ConfigError("max_pairs_per_kind must be >= 1")

    unit, norms = unit_rows(embeddings)
    keep = norms[:, 0] > EPSILON
    dropped = int(np.sum(~keep))
    if dropped:
        warnings.warn(f"excluded {dropped} zero embeddings from pair angles")
    kept = np.flatnonzero(keep)
    if kept.size < 2:
        raise ConfigError("need at least 2 nonzero embeddings")

    # The kept rows sorted by class, so a sorted position indexes them; the
    # classes present, their sizes and offsets.
    order = np.argsort(labels[kept], kind="stable")
    unit = unit[kept[order]]
    sizes = np.bincount(labels[kept])
    sizes = sizes[sizes > 0]
    offsets = np.cumsum(sizes) - sizes
    # Positive pairs, lexicographic: sorted position a pairs with each later
    # member of its class, one row per position that has one.
    later = np.repeat(offsets + sizes, sizes) - np.arange(order.size) - 1
    rows = np.flatnonzero(later)
    row_starts = np.cumsum(later[rows]) - later[rows]
    # Negative pairs: one block per class pair c1 < c2, lexicographic, each
    # a c1 member (major) times a c2 member (minor).
    c1, c2 = np.triu_indices(sizes.size, 1)
    block_sizes = sizes[c1] * sizes[c2]
    block_starts = np.cumsum(block_sizes) - block_sizes
    pos_total = int(later.sum())
    neg_total = int(block_sizes.sum())
    if pos_total == 0:
        raise ConfigError("no positive pairs: every class has fewer than 2 members")
    if neg_total == 0:
        raise ConfigError("no negative pairs: need at least 2 distinct classes")

    rng = np.random.default_rng(seed)
    pos_ranks = _pair_rank_sample(pos_total, max_pairs_per_kind, rng)
    neg_ranks = _pair_rank_sample(neg_total, max_pairs_per_kind, rng)

    def _positive(ranks):
        row, step = _locate(row_starts, ranks)
        a = rows[row]
        return a, a + 1 + step

    def _negative(ranks):
        block, local = _locate(block_starts, ranks)
        major, minor = np.divmod(local, sizes[c2[block]])
        return offsets[c1[block]] + major, offsets[c2[block]] + minor

    first, second = np.empty((2, PAIR_CHUNK, unit.shape[1]))

    def _angles(ranks, unrank):
        # Chunks of ascending ranks, each unranked just before its rows are
        # gathered; every cosine goes back to its rank's place in the sample.
        visit = np.argsort(ranks)
        out = np.empty(ranks.size)
        for s in range(0, ranks.size, PAIR_CHUNK):
            chunk = visit[s:s + PAIR_CHUNK]
            i, j = unrank(ranks[chunk])
            a = np.take(unit, i, axis=0, out=first[:chunk.size], mode="clip")
            b = np.take(unit, j, axis=0, out=second[:chunk.size], mode="clip")
            out[chunk] = np.einsum("ij,ij->i", a, b)
        np.clip(out, -1.0, 1.0, out=out)
        return np.degrees(np.arccos(out, out=out), out=out)

    pos = _angles(pos_ranks, _positive)
    del pos_ranks
    return pos, _angles(neg_ranks, _negative)


def build_histograms(pos_angles, neg_angles, num_bins: int = DEFAULT_BINS) -> AngleHistograms:
    """Count angles into uniform bins over [0, 180] degrees.

    Bins are right-open except the final one, which includes 180 exactly.
    """
    if num_bins < 2:
        raise ConfigError(f"num_bins must be >= 2, got {num_bins}")
    pos = np.asarray(pos_angles, dtype=np.float64)
    neg = np.asarray(neg_angles, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("cannot build histograms from empty angle lists")
    pos_counts, edges = np.histogram(pos, bins=num_bins, range=(0.0, 180.0))
    neg_counts, _ = np.histogram(neg, bins=num_bins, range=(0.0, 180.0))
    return AngleHistograms(
        bin_edges=edges,
        pos_counts=pos_counts.astype(np.int64),
        neg_counts=neg_counts.astype(np.int64),
    )


def _fractions(h: AngleHistograms) -> tuple[np.ndarray, np.ndarray]:
    """The positive and negative counts, each divided by its total."""
    pos_total, neg_total = h.pos_counts.sum(), h.neg_counts.sum()
    if pos_total <= 0 or neg_total <= 0:
        raise ValueError("both histograms must contain mass")
    return h.pos_counts / pos_total, h.neg_counts / neg_total


def kl_divergence(h: AngleHistograms) -> float:
    """KL(pos || neg) between the smoothed, normalized histograms.

    Counts are normalized first, then KL_SMOOTHING is added to every bin and
    the result renormalized, so empty bins never produce infinities and the
    value is independent of the absolute pair counts. Natural log.
    """
    p, q = ((f + KL_SMOOTHING) / (1.0 + h.num_bins * KL_SMOOTHING) for f in _fractions(h))
    return float(np.sum(p * np.log(p / q)))


def emd_1d(h: AngleHistograms) -> float:
    """Wasserstein-1 distance in degrees between the normalized histograms.

    With bin centers as mass locations the optimal transport cost on a line
    reduces to bin_width * sum |CDF_pos - CDF_neg|.
    """
    p, q = _fractions(h)
    return float(h.bin_width * np.sum(np.abs(np.cumsum(p - q))))


def accuracy(logits, labels):
    """Fraction of rows whose argmax matches the label (ties: lowest index).

    A stack of logit matrices with a stack of label rows gives an array of
    one fraction per run.
    """
    logits = as_matrix(logits, stack=True)
    labels = as_labels(labels, logits.shape[-1], stack=True)
    if labels.shape != logits.shape[:-1]:
        raise ConfigError("labels must match logit rows")
    hits = np.mean(np.argmax(logits, axis=-1) == labels, axis=-1)
    return float(hits) if hits.ndim == 0 else hits


def write_histogram_csv(h: AngleHistograms, path) -> None:
    """CRLF-terminated rows of bin_start_deg, bin_end_deg, pos_count, neg_count."""
    rows = zip(h.bin_edges[:-1].tolist(), h.bin_edges[1:].tolist(),
               h.pos_counts.tolist(), h.neg_counts.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("bin_start_deg,bin_end_deg,pos_count,neg_count\r\n")
        fh.writelines("%.10g,%.10g,%d,%d\r\n" % row for row in rows)


def write_scores_json(scores: DiscriminationScores, path) -> None:
    """One JSON object per evaluation, keyed by the scores' fields in order."""
    with open(path, "w") as fh:
        json.dump(asdict(scores), fh, indent=2)
        fh.write("\n")
