"""Loss heads on the unit hypersphere.

Three losses share one normalized-cosine classification head and one entry
point, compute_loss, which reads the loss kind from its config: plain
softmax cross-entropy, an additive-angular-margin variant (arcface), and
the hyperplane separator loss (haseparator). The separator loss augments
cross-entropy with a hinge cost on the projections of each embedding onto
the unit normals of its target class's separation hyperplanes; the normal
for class pair (target, other) is the normalized difference of the two
unit weight columns, oriented target-minus-other so that well-separated
embeddings have large positive projections.

A loss call also takes a stack of runs: embeddings K x B x N, weights
K x N x C, labels K x B and a LossStack of per-run settings. Each run's
values are bitwise those of its own 2-d call, even beside a non-finite run.

All gradients are analytic (chain rule through the normalizations, the
cosine and Gram-matrix closed form of the projections, and the
piecewise-linear hinge) and are validated against central finite
differences in the test suite. The hinge uses the zero subgradient at its
kink, like standard hinge-loss implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import EPSILON, as_labels, as_matrix, normalize, normalize_backward

SOFTMAX = "softmax"
HASEPARATOR = "haseparator"
ARCFACE = "arcface"
LOSS_KINDS = (SOFTMAX, HASEPARATOR, ARCFACE)

# Cosines are clamped this far inside [-1, 1] before arccos so the angular
# margin path never sees an infinite derivative.
_COS_CLAMP = 1e-12

# Squared normal lengths below this are recomputed from the column
# difference instead of the Gram matrix. The Gram form carries about 1e-15
# of absolute rounding error, which would leave duplicate columns at
# d ~ 3e-8 instead of 0 and cost near-duplicates more than 1e-13 of
# relative accuracy in d. The separator's projections and weight gradient
# use the same differences for these pairs.
_GRAM_RECHECK = 1e-2


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters of a loss head.

    sigma scales the cosine logits (the hypersphere radius). margin is the
    hinge threshold on hyperplane projections, used only by haseparator and
    constrained to (0, 1]. arc_margin is the additive angular margin in
    radians, used only by arcface and constrained to [0, pi/2). Both ranges
    are checked for every loss kind, because compute_loss trusts them.
    """

    loss_kind: str = HASEPARATOR
    sigma: float = 3.0
    margin: float = 0.9
    arc_margin: float = 0.5

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(
                f"unknown loss_kind {self.loss_kind!r}, expected one of {LOSS_KINDS}"
            )
        if not 0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0 < self.margin <= 1:
            raise ConfigError(f"margin must lie in (0, 1], got {self.margin}")
        if not 0 <= self.arc_margin < math.pi / 2:
            raise ConfigError(
                f"arc_margin must lie in [0, pi/2), got {self.arc_margin}"
            )


@dataclass(frozen=True, eq=False)
class LossStack:
    """The loss settings of a stack of runs that share one loss kind.

    sigma, margin and arc_margin hold one value per run, shaped (K, 1, 1) to
    broadcast over the stack's K x B x C arrays. compute_loss takes it where
    it takes a LossConfig; of() builds it from validated LossConfigs.
    """

    loss_kind: str
    sigma: np.ndarray
    margin: np.ndarray
    arc_margin: np.ndarray

    @classmethod
    def of(cls, configs) -> "LossStack":
        kinds = {c.loss_kind for c in configs}
        if len(kinds) != 1:
            raise ConfigError(f"a loss stack needs one loss kind, got {sorted(kinds)}")
        column = lambda name: np.array([getattr(c, name) for c in configs]).reshape(-1, 1, 1)
        return cls(kinds.pop(), column("sigma"), column("margin"), column("arc_margin"))


@dataclass
class LossResult:
    """Forward values and analytic gradients of one loss evaluation.

    total_loss = ce_loss + separator_loss. projections is None for the
    losses without a separator term. Gradients are with respect to the raw
    (unnormalized) embeddings and classification weights. For a stack the
    three losses hold one value per run.
    """

    total_loss: float
    ce_loss: float
    separator_loss: float
    logits: np.ndarray
    projections: np.ndarray | None
    grad_embeddings: np.ndarray
    grad_weights: np.ndarray


def _target_index(labels) -> tuple:
    """Fancy index of each sample's target entry in a (..., B, C) array."""
    return (*np.ix_(*(np.arange(n) for n in labels.shape)), labels)


def _cross_entropy(logits, target):
    """Mean cross-entropy of the target entries and its logit gradient."""
    # The class max of a class-major copy compares whole rows elementwise
    # instead of making one short reduction per sample. A max is exact, so
    # the bits are the same, except the sign of a NaN: rows with one take
    # the per-sample reduction.
    peak = np.max(np.moveaxis(logits, -1, 0).copy(), axis=0)[..., None]
    if np.isnan(peak).any():
        peak = logits.max(axis=-1, keepdims=True)
    shifted = logits - peak
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    loss = -np.mean(log_probs[target], axis=-1)
    grad = np.exp(log_probs)
    grad[target] -= 1.0
    grad /= logits.shape[-2]
    return loss, grad


def _hinge(projections, margin, target):
    costs = np.maximum(margin - projections, 0.0)
    costs[target] = 0.0
    # Each run's costs summed as one flat row, as a 2-d array's sum() adds them.
    total = costs.reshape(*costs.shape[:-2], -1).sum(axis=-1)
    return costs, total / projections.shape[-2]


def _prepare(e, w, labels):
    """The one validation boundary of a loss call; the kernels trust its output."""
    e = as_matrix(e, stack=True)
    w = as_matrix(w, stack=True)
    if e.shape[:-2] != w.shape[:-2]:
        raise ConfigError(f"embedding stack {e.shape} does not match weight stack {w.shape}")
    if e.shape[-1] != w.shape[-2]:
        raise ConfigError(
            f"embedding dim {e.shape[-1]} does not match weight rows {w.shape[-2]}"
        )
    labels = as_labels(labels, w.shape[-1], stack=True)
    if labels.shape != e.shape[:-1]:
        raise ConfigError(
            f"got {labels.shape[-1]} labels for batch of {e.shape[-2]}"
        )
    return e, w, labels


def _inverse_normal_lengths(w_hat):
    """1 / |w_hat[:, t] - w_hat[:, j]| for every class pair (t, j); 0 where degenerate.

    The squared lengths come from the Gram identity G_tt + G_jj - 2 G_tj.
    Entries below _GRAM_RECHECK (always a finite run's diagonal) are recomputed
    from the column difference, so zero and collinear columns give exactly 0.

    Returns (inv_lengths, near): near is None when no off-diagonal pair was
    recomputed, else (pairs, diff), where pairs indexes those pairs and
    diff[:, k] = w_hat_t - w_hat_j for the k-th of them.
    """
    gram = np.swapaxes(w_hat, -1, -2) @ w_hat
    sq_norms = np.diagonal(gram, axis1=-2, axis2=-1)
    sq = sq_norms[..., :, None] + sq_norms[..., None, :] - 2.0 * gram
    pairs = np.nonzero(sq < _GRAM_RECHECK)
    # Feature axis first, so each difference is summed down a column as in
    # the 2-d case: summing along a row instead can change the last bit.
    columns = np.moveaxis(w_hat, -2, 0)
    diff = columns[(slice(None), *pairs[:-1])] - columns[(slice(None), *pairs[:-2], pairs[-1])]
    sq[pairs] = np.sum(diff * diff, axis=0)
    lengths = np.sqrt(sq)
    inv_lengths = np.divide(1.0, lengths, out=np.zeros_like(lengths), where=lengths > EPSILON)
    # A non-finite run recomputes no entry, not even its diagonal.
    off_diagonal = pairs[-2] != pairs[-1]
    if not off_diagonal.any():
        return inv_lengths, None
    return inv_lengths, (tuple(index[off_diagonal] for index in pairs), diff[:, off_diagonal])


def _separator(e_hat, cosines, w_hat, target, margin):
    """The hyperplane hinge term, in closed form.

    The normal of pair (t, j) is (w_hat_t - w_hat_j) / d_tj, so the
    projection of sample i is p_ij = (cos_it - cos_ij) / d_tj, and the loss
    and its gradients follow from the B x C cosine matrix and the C x C Gram
    matrix G = w_hat^T w_hat (d_tj^2 = G_tt + G_jj - 2 G_tj), without forming
    the B x N x C normals. Degenerate normals (the target column, and pairs
    of zero or collinear class columns) give a projection of exactly 0, a
    constant hinge cost and no gradient.

    Near pairs (d_tj^2 < _GRAM_RECHECK) take their projections from the
    explicit column differences instead: there cos_it - cos_ij cancels to
    about d_tj, and its rounding reaches the weight gradient through
    S_tj ~ 1 / d_tj^2.

    Returns (projections, loss, grad_cos, S, near): grad_cos is the B x C
    gradient of the loss with respect to the cosines, S_tj = dL/dG_tj summed
    over the samples of target class t, and near is _inverse_normal_lengths'.
    """
    batch, num_classes = cosines.shape[-2:]
    if num_classes < 2:
        raise ConfigError("separator loss needs at least 2 classes")
    labels = target[-1]
    inv_all, near = _inverse_normal_lengths(w_hat)
    inv_lengths = inv_all[(*target[:-2], labels)]  # B x C
    projections = (cosines[target][..., None] - cosines) * inv_lengths
    if near is not None:
        # Each sample's entries whose pair (target, j) is near, with the
        # index of that pair's difference column.
        pairs, diff = near
        pair_of = np.full(inv_all.shape, -1)
        pair_of[pairs] = np.arange(pairs[0].size)
        sample_pairs = pair_of[(*target[:-2], labels)]
        hits = np.nonzero(sample_pairs >= 0)
        rows = np.moveaxis(e_hat, -1, 0)[(slice(None), *hits[:-1])]
        projections[hits] = np.sum(rows * diff[:, sample_pairs[hits]], axis=0) * inv_lengths[hits]
    # Projections onto unit normals lie in [-1, 1]. The clip only removes
    # rounding, which 1 / d amplifies for nearly collinear columns.
    projections = np.clip(projections, -1.0, 1.0)
    costs, loss = _hinge(projections, margin, target)

    # Hinge subgradient -1/B on active entries, those of positive cost (not
    # the target, nor the kink p == margin), 0 elsewhere, times dp/dcos = 1/d.
    slope = np.where(costs > 0, -1.0 / batch, 0.0) * inv_lengths

    # p_ij rises with cos_it and falls with cos_ij.
    grad_cos = -slope
    grad_cos[target] += slope.sum(axis=-1)

    # Through d_tj, G_tt and G_jj each take -S_tj / 2. A stack's runs get
    # disjoint bins, so each run's sums are its own.
    runs = cosines.shape[:-2]
    groups = labels + num_classes * np.arange(math.prod(runs)).reshape(*runs, 1)
    gram_grad = np.bincount(
        (groups[..., None] * num_classes + np.arange(num_classes)).ravel(),
        weights=(slope * projections * inv_lengths).ravel(),
        minlength=math.prod(runs) * num_classes * num_classes,
    ).reshape(*runs, num_classes, num_classes)
    return projections, loss, grad_cos, gram_grad, near


def _near_pull_back(base, w_hat, gram_grad, near):
    """base plus the pull-back of S through G, for the runs with a near pair.

    S moves column c by sum_k (w_hat_k - w_hat_c) A_kc with A = S + S^T,
    which is w_hat A - w_hat diag(colsum A). For a near pair (k, c) those
    two terms are about 1 / d_kc larger than their difference, so near
    pairs add diff * A_kc instead.

    Returns (runs, grad): runs indexes the runs concerned (Ellipsis for a
    single run) and grad is their gradient with respect to w_hat.
    """
    pairs, diff = near
    runs = Ellipsis
    if base.ndim > 2:
        runs, first = np.unique(pairs[0], return_inverse=True)
        pairs = (first, *pairs[1:])
        base, w_hat, gram_grad = base[runs], w_hat[runs], gram_grad[runs]
    pull = gram_grad + np.swapaxes(gram_grad, -1, -2)
    near_pull = pull[pairs]
    pull[pairs] = 0.0
    grad = w_hat @ pull - w_hat * pull.sum(axis=-2)[..., None, :]
    # One addition per near pair, in pair order, within each run.
    np.add.at(np.moveaxis(grad, -2, 0), (slice(None), *pairs[:-2], pairs[-1]), diff * near_pull)
    return runs, base + grad


def compute_loss(e, w, labels, config: LossConfig | LossStack) -> LossResult:
    """Cross-entropy on sigma * cos, the one path of all three loss kinds.

    config is a LossConfig, or a LossStack for a stack of runs (e, w and
    labels then carry a leading run axis), and config.loss_kind alone picks
    what is added to the plain softmax head:

    - arcface replaces each target logit with sigma * cos(theta + arc_margin).
      The target cosine is clamped before arccos, and theta is capped at
      pi - arc_margin so the shifted angle stays within [0, pi]. Where
      arc_margin == 0 the values are exactly softmax's, bit for bit.
    - haseparator adds the hyperplane hinge at margin, computed in closed
      form from the cosines and the class Gram matrix; see _separator.

    Every other setting is ignored.
    """
    if config.loss_kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss_kind {config.loss_kind!r}")
    arcface = config.loss_kind == ARCFACE
    separator = config.loss_kind == HASEPARATOR
    sigma, arc_margin, margin = config.sigma, config.arc_margin, config.margin

    e, w, labels = _prepare(e, w, labels)
    target = _target_index(labels)

    e_hat, e_norms = normalize(e, -1)
    w_hat, w_norms = normalize(w, -2)
    cosines = e_hat @ w_hat

    logits = sigma * cosines
    if arcface:
        # Target entries keep a trailing axis to broadcast with the settings.
        target_cos = cosines[target][..., None]
        clamped = np.clip(target_cos, -1.0 + _COS_CLAMP, 1.0 - _COS_CLAMP)
        theta = np.arccos(clamped)
        theta_kept = np.minimum(theta, math.pi - arc_margin)
        shifted = arc_margin > 0
        logits[target] = np.where(
            shifted, sigma * np.cos(theta_kept + arc_margin), sigma * target_cos
        )[..., 0]
    ce_loss, grad_logits = _cross_entropy(logits, target)

    grad_cos = sigma * grad_logits
    if arcface:
        # d logit / d cos on the target entries; zero wherever either clamp
        # (cosine range or angle cap) is active.
        live = (np.abs(target_cos) < 1.0 - _COS_CLAMP) & (theta < math.pi - arc_margin)
        slope = np.where(
            live,
            sigma * np.sin(theta_kept + arc_margin) / np.sqrt(1.0 - clamped**2),
            0.0,
        )
        grad_target = grad_logits[target][..., None]
        grad_cos[target] = np.where(shifted, grad_target * slope, sigma * grad_target)[..., 0]
    total_loss, separator_loss, projections = ce_loss, 0.0, None
    if separator:
        projections, separator_loss, sep_grad_cos, gram_grad, near = _separator(
            e_hat, cosines, w_hat, target, margin
        )
        total_loss = ce_loss + separator_loss
        grad_cos += sep_grad_cos
    if np.isinf(e_norms).any() or np.isinf(w_norms).any():
        # normalize keeps the direction of a finite vector whose squared norm
        # overflows, so its run's loss stays finite; that run has left float64
        # range, so make its loss inf (NaN stays).
        overflow = np.isinf(e_norms).any(axis=(-2, -1)) | np.isinf(w_norms).any(axis=(-2, -1))
        total_loss = np.where(overflow, total_loss + np.inf, total_loss)[()]

    grad_w_hat = np.swapaxes(e_hat, -1, -2) @ grad_cos
    if separator:
        if near is not None:
            near_runs, near_grad = _near_pull_back(grad_w_hat, w_hat, gram_grad, near)
        # Pulled back through G = w_hat^T w_hat, S adds
        # w_hat (S + S^T - diag(colsum S + rowsum S)).
        grad_w_hat += w_hat @ (gram_grad + np.swapaxes(gram_grad, -1, -2))
        grad_w_hat -= w_hat * (gram_grad.sum(axis=-2) + gram_grad.sum(axis=-1))[..., None, :]
        if near is not None:
            grad_w_hat[near_runs] = near_grad

    return LossResult(
        total_loss=total_loss,
        ce_loss=ce_loss,
        separator_loss=separator_loss,
        logits=logits,
        projections=projections,
        grad_embeddings=normalize_backward(
            e_hat, e_norms, grad_cos @ np.swapaxes(w_hat, -1, -2), -1
        ),
        grad_weights=normalize_backward(w_hat, w_norms, grad_w_hat, -2),
    )
