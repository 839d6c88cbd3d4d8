"""Loss heads on the unit hypersphere.

Three losses share one normalized-cosine classification head and one code
path: plain softmax cross-entropy, an additive-angular-margin variant
(arcface), and the hyperplane separator loss (haseparator). The separator
loss augments cross-entropy with a hinge cost on the projections of each
embedding onto the unit normals of its target class's separation
hyperplanes; the normal for class pair (target, other) is the normalized
difference of the two unit weight columns, oriented target-minus-other so
that well-separated embeddings have large positive projections.

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
# relative accuracy in d.
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


@dataclass
class LossResult:
    """Forward values and analytic gradients of one loss evaluation.

    total_loss = ce_loss + separator_loss. projections is None for the
    losses without a separator term. Gradients are with respect to the raw
    (unnormalized) embeddings and classification weights.
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


def _cross_entropy(logits, labels) -> tuple[float, np.ndarray]:
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    loss = float(-np.mean(log_probs[np.arange(batch), labels]))
    grad = np.exp(log_probs)
    grad[np.arange(batch), labels] -= 1.0
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
    return _cross_entropy(logits, labels)


def _hinge(projections, margin, labels) -> tuple[np.ndarray, float]:
    batch = projections.shape[0]
    costs = np.maximum(margin - projections, 0.0)
    costs[np.arange(batch), labels] = 0.0
    return costs, float(costs.sum() / batch)


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
    return _hinge(projections, margin, labels)


def _prepare(e, w, labels):
    """The one validation boundary of a loss call; the kernels trust its output."""
    e = as_matrix(e)
    w = as_matrix(w)
    if e.shape[1] != w.shape[0]:
        raise ConfigError(
            f"embedding dim {e.shape[1]} does not match weight rows {w.shape[0]}"
        )
    labels = as_labels(labels, w.shape[1])
    if labels.shape[0] != e.shape[0]:
        raise ConfigError(
            f"got {labels.shape[0]} labels for batch of {e.shape[0]}"
        )
    return e, w, labels


def _inverse_normal_lengths(w_hat) -> np.ndarray:
    """1 / |w_hat[:, t] - w_hat[:, j]| for every class pair (t, j); 0 where degenerate.

    The squared lengths come from the Gram identity G_tt + G_jj - 2 G_tj.
    Entries below _GRAM_RECHECK (always the diagonal) are recomputed from the
    column difference, so zero and collinear columns give exactly 0.
    """
    gram = w_hat.T @ w_hat
    sq_norms = np.diag(gram)
    sq = sq_norms[:, None] + sq_norms - 2.0 * gram
    t, j = np.nonzero(sq < _GRAM_RECHECK)
    diff = w_hat[:, t] - w_hat[:, j]
    sq[t, j] = np.sum(diff * diff, axis=0)
    lengths = np.sqrt(sq)
    return np.divide(1.0, lengths, out=np.zeros_like(lengths), where=lengths > EPSILON)


def _separator(cosines, w_hat, labels, margin):
    """The hyperplane hinge term, in closed form.

    The normal of pair (t, j) is (w_hat_t - w_hat_j) / d_tj, so the
    projection of sample i is p_ij = (cos_it - cos_ij) / d_tj, and the loss
    and its gradients follow from the B x C cosine matrix and the C x C Gram
    matrix G = w_hat^T w_hat (d_tj^2 = G_tt + G_jj - 2 G_tj), without forming
    the B x N x C normals. Degenerate normals (the target column, and pairs
    of zero or collinear class columns) give a projection of exactly 0, a
    constant hinge cost and no gradient.

    Returns (projections, loss, grad_cos, S): grad_cos is the B x C gradient
    of the loss with respect to the cosines, and S_tj = dL/dG_tj summed over
    the samples of target class t.
    """
    batch, num_classes = cosines.shape
    if num_classes < 2:
        raise ConfigError("separator loss needs at least 2 classes")
    rows = np.arange(batch)
    inv_lengths = _inverse_normal_lengths(w_hat)[labels]  # B x C
    # Projections onto unit normals lie in [-1, 1]. The clip only removes
    # the rounding of cos_it - cos_ij, which 1 / d amplifies for nearly
    # collinear columns.
    projections = np.clip(
        (cosines[rows, labels][:, None] - cosines) * inv_lengths, -1.0, 1.0
    )
    _, loss = _hinge(projections, margin, labels)

    # Hinge subgradient -1/B on active non-target entries, 0 elsewhere
    # (including exactly at the kink p == margin), times dp/dcos = 1/d.
    active = projections < margin
    active[rows, labels] = False
    slope = np.where(active, -1.0 / batch, 0.0) * inv_lengths

    # p_ij rises with cos_it and falls with cos_ij.
    grad_cos = -slope
    grad_cos[rows, labels] += slope.sum(axis=1)

    # Through d_tj, G_tt and G_jj each take -S_tj / 2.
    gram_grad = np.bincount(
        (labels[:, None] * num_classes + np.arange(num_classes)).ravel(),
        weights=(slope * projections * inv_lengths).ravel(),
        minlength=num_classes * num_classes,
    ).reshape(num_classes, num_classes)
    return projections, loss, grad_cos, gram_grad


def _cosine_head_loss(e, w, labels, sigma, arc_margin=0.0, margin=None):
    """Cross-entropy on sigma * cos, the path all three losses share.

    arc_margin > 0 replaces the target logits with arcface's; a margin adds
    the separator's hinge. With neither it is the plain softmax head.
    """
    e, w, labels = _prepare(e, w, labels)
    rows = np.arange(e.shape[0])

    e_hat, e_norms = normalize(e, 1)
    w_hat, w_norms = normalize(w, 0)
    cosines = e_hat @ w_hat

    logits = sigma * cosines
    if arc_margin > 0:
        # Arcface's target logit sigma * cos(theta + m); see arcface_loss.
        target_cos = cosines[rows, labels]
        clamped = np.clip(target_cos, -1.0 + _COS_CLAMP, 1.0 - _COS_CLAMP)
        theta = np.arccos(clamped)
        theta_kept = np.minimum(theta, math.pi - arc_margin)
        logits[rows, labels] = sigma * np.cos(theta_kept + arc_margin)
    ce_loss, grad_logits = _cross_entropy(logits, labels)

    grad_cos = sigma * grad_logits
    if arc_margin > 0:
        # d logit / d cos on the target entries; zero wherever either clamp
        # (cosine range or angle cap) is active.
        live = (np.abs(target_cos) < 1.0 - _COS_CLAMP) & (theta < math.pi - arc_margin)
        slope = np.where(
            live,
            sigma * np.sin(theta_kept + arc_margin) / np.sqrt(1.0 - clamped**2),
            0.0,
        )
        grad_cos[rows, labels] = grad_logits[rows, labels] * slope
    total_loss, separator_loss, projections = ce_loss, 0.0, None
    if margin is not None:
        projections, separator_loss, sep_grad_cos, gram_grad = _separator(
            cosines, w_hat, labels, margin
        )
        total_loss = ce_loss + separator_loss
        grad_cos += sep_grad_cos

    grad_w_hat = e_hat.T @ grad_cos
    if margin is not None:
        # Pulled back through G = w_hat^T w_hat, S adds
        # w_hat (S + S^T - diag(colsum S + rowsum S)).
        grad_w_hat += w_hat @ (gram_grad + gram_grad.T)
        grad_w_hat -= w_hat * (gram_grad.sum(axis=0) + gram_grad.sum(axis=1))

    return LossResult(
        total_loss=total_loss,
        ce_loss=ce_loss,
        separator_loss=separator_loss,
        logits=logits,
        projections=projections,
        grad_embeddings=normalize_backward(e_hat, e_norms, grad_cos @ w_hat.T, 1),
        grad_weights=normalize_backward(w_hat, w_norms, grad_w_hat, 0),
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
    With arc_margin == 0 this follows exactly the softmax code path.
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
