"""Loss heads on the unit hypersphere.

Three losses share one normalized-cosine classification head and one code
path: plain softmax cross-entropy, an additive-angular-margin variant
(arcface), and the hyperplane separator loss (haseparator). The separator
loss augments cross-entropy with a hinge cost on the projections of each
embedding onto the unit normals of its target class's separation
hyperplanes; the normal for class pair (target, other) is the normalized
difference of the two unit weight columns, oriented target-minus-other so
that well-separated embeddings have large positive projections.

A loss call also takes a stack of runs: embeddings K x B x N, weights
K x N x C, labels K x B and a LossStack of per-run settings. Each run's
values are bitwise those of its own 2-d call.

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

from .errors import ConfigError, ShapeError
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
    are checked for every loss kind, because the loss functions trust them.
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
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
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


def scaled_cosine_logits(e, w, sigma: float) -> np.ndarray:
    """Logits sigma * <e_hat, w_hat>: rows of e and columns of w unit-normalized."""
    if not sigma > 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    e = as_matrix(e)
    w = as_matrix(w)
    if e.shape[1] != w.shape[0]:
        raise ShapeError(f"cannot multiply {e.shape} by {w.shape}")
    return sigma * (normalize(e, 1)[0] @ normalize(w, 0)[0])


def _target_index(labels) -> tuple:
    """Fancy index of each sample's target entry in a (..., B, C) array."""
    return (*np.ix_(*(np.arange(n) for n in labels.shape)), labels)


def _cross_entropy(logits, labels):
    batch = logits.shape[-2]
    target = _target_index(labels)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    loss = -np.mean(log_probs[target], axis=-1)
    grad = np.exp(log_probs)
    grad[target] -= 1.0
    return loss, grad / batch


def softmax_cross_entropy(logits, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-softmax of the target class, with its logit gradient.

    Stabilized by per-row max subtraction; the gradient is
    (softmax - onehot) / batch_size.
    """
    logits = as_matrix(logits)
    labels = as_labels(labels, logits.shape[1])
    if labels.shape[0] != logits.shape[0]:
        raise ConfigError(
            f"got {labels.shape[0]} labels for {logits.shape[0]} logit rows"
        )
    loss, grad = _cross_entropy(logits, labels)
    return float(loss), grad


def _hinge(projections, margin, labels):
    costs = np.maximum(margin - projections, 0.0)
    costs[_target_index(labels)] = 0.0
    # Each run's costs summed as one flat row, as a 2-d array's sum() adds them.
    total = costs.reshape(*costs.shape[:-2], -1).sum(axis=-1)
    return costs, total / projections.shape[-2]


def hinge_cost(projections, margin: float, labels) -> tuple[np.ndarray, float]:
    """Relaxed hinge margin - min(p, margin) per projection, target column masked.

    Returns the per-entry cost matrix and its batch mean (sum over classes,
    mean over samples).
    """
    projections = as_matrix(projections)
    if not 0 < margin <= 1:
        raise ConfigError(f"margin must lie in (0, 1], got {margin}")
    labels = as_labels(labels, projections.shape[1])
    if labels.shape[0] != projections.shape[0]:
        raise ConfigError(
            f"got {labels.shape[0]} labels for {projections.shape[0]} projection rows"
        )
    costs, loss = _hinge(projections, margin, labels)
    return costs, float(loss)


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
    Entries below _GRAM_RECHECK (always the diagonal) are recomputed from the
    column difference, so zero and collinear columns give exactly 0.

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
    # More entries than the diagonal's means some off-diagonal pair is near.
    if pairs[-1].size <= sq.size // sq.shape[-1]:
        return inv_lengths, None
    off_diagonal = pairs[-2] != pairs[-1]
    return inv_lengths, (tuple(index[off_diagonal] for index in pairs), diff[:, off_diagonal])


def _separator(e_hat, cosines, w_hat, labels, margin):
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
    target = _target_index(labels)
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
    _, loss = _hinge(projections, margin, labels)

    # Hinge subgradient -1/B on active non-target entries, 0 elsewhere
    # (including exactly at the kink p == margin), times dp/dcos = 1/d.
    active = projections < margin
    active[target] = False
    slope = np.where(active, -1.0 / batch, 0.0) * inv_lengths

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


def _cosine_head_loss(e, w, labels, sigma, arc_margin=None, margin=None):
    """Cross-entropy on sigma * cos, the path all three losses share.

    An arc_margin replaces the target logits with arcface's wherever it is
    above 0; a margin adds the separator's hinge. With neither it is the
    plain softmax head. For a stack, e, w and labels carry a leading run
    axis and each setting is one value per run, shaped (K, 1, 1).
    """
    e, w, labels = _prepare(e, w, labels)
    target = _target_index(labels)

    e_hat, e_norms = normalize(e, -1)
    w_hat, w_norms = normalize(w, -2)
    cosines = e_hat @ w_hat

    logits = sigma * cosines
    if arc_margin is not None:
        # Arcface's target logit sigma * cos(theta + m); see arcface_loss.
        # Target entries keep a trailing axis to broadcast with the settings.
        target_cos = cosines[target][..., None]
        clamped = np.clip(target_cos, -1.0 + _COS_CLAMP, 1.0 - _COS_CLAMP)
        theta = np.arccos(clamped)
        theta_kept = np.minimum(theta, math.pi - arc_margin)
        shifted = arc_margin > 0
        logits[target] = np.where(
            shifted, sigma * np.cos(theta_kept + arc_margin), sigma * target_cos
        )[..., 0]
    ce_loss, grad_logits = _cross_entropy(logits, labels)

    grad_cos = sigma * grad_logits
    if arc_margin is not None:
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
    if margin is not None:
        projections, separator_loss, sep_grad_cos, gram_grad, near = _separator(
            e_hat, cosines, w_hat, labels, margin
        )
        total_loss = ce_loss + separator_loss
        grad_cos += sep_grad_cos

    grad_w_hat = np.swapaxes(e_hat, -1, -2) @ grad_cos
    if margin is not None:
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


def softmax_loss(e, w, labels, config: LossConfig) -> LossResult:
    """Plain softmax cross-entropy on scaled cosine logits."""
    return _cosine_head_loss(e, w, labels, config.sigma)


def haseparator_loss(e, w, labels, config: LossConfig) -> LossResult:
    """Cross-entropy on scaled cosine logits plus the hyperplane hinge cost.

    The hinge is computed in closed form from the cosines and the class
    Gram matrix; see _separator.
    """
    return _cosine_head_loss(e, w, labels, config.sigma, margin=config.margin)


def arcface_loss(e, w, labels, config: LossConfig) -> LossResult:
    """Additive angular margin on the target class before the cosine.

    The target cosine is clamped before arccos, and the target angle is
    capped at pi - arc_margin so the shifted angle stays within [0, pi].
    With arc_margin == 0 it gives exactly the softmax values, bit for bit.
    """
    return _cosine_head_loss(e, w, labels, config.sigma, arc_margin=config.arc_margin)


def compute_loss(e, w, labels, config: LossConfig) -> LossResult:
    """Dispatch on config.loss_kind."""
    if config.loss_kind == SOFTMAX:
        return softmax_loss(e, w, labels, config)
    if config.loss_kind == HASEPARATOR:
        return haseparator_loss(e, w, labels, config)
    if config.loss_kind == ARCFACE:
        return arcface_loss(e, w, labels, config)
    raise ConfigError(f"unknown loss_kind {config.loss_kind!r}")
