"""Independent numerical oracles shared across the test suite."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict

import numpy as np
from scipy.optimize import linprog

from haseparator import losses
from haseparator.data import Dataset, read_text_lines, standardize
from haseparator.errors import (
    ConfigError,
    DataFormatError,
    NonNumericCellError,
    RaggedRowError,
    ShapeError,
)
from haseparator.losses import HASEPARATOR, ARCFACE, LossResult, compute_loss
from haseparator.model import CHECKPOINT_MAGIC, ForwardTrace, ModelGrads
from haseparator.tensor import EPSILON, as_labels, as_matrix, normalize, normalize_backward

FD_STEP = 1e-6


def finite_difference_grads(e, w, labels, config, step=FD_STEP):
    """Central-difference gradients of total_loss w.r.t. E and W."""
    e = np.array(e, dtype=np.float64)
    w = np.array(w, dtype=np.float64)
    out = []
    for arr in (e, w):
        num = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            up = compute_loss(e, w, labels, config).total_loss
            arr[idx] = orig - step
            down = compute_loss(e, w, labels, config).total_loss
            arr[idx] = orig
            num[idx] = (up - down) / (2.0 * step)
        out.append(num)
    return out


def relative_error(analytic, numeric) -> float:
    scale = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-8)
    return float(np.max(np.abs(np.asarray(analytic) - numeric)) / scale)


def random_instance(rng, batch=4, dim=5, classes=3):
    e = rng.normal(size=(batch, dim))
    w = rng.normal(size=(dim, classes))
    labels = rng.integers(0, classes, size=batch)
    return e, w, labels


def away_from_kinks(e, w, labels, config, slack=1e-3) -> bool:
    """True when the instance sits in a smooth region of the active loss.

    Finite differences are only meaningful away from the hinge kink, the
    arccos boundaries, and zero-norm vectors where normalization is not
    differentiable.
    """
    e = np.asarray(e, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if np.min(np.linalg.norm(e, axis=1)) < 1e-2:
        return False
    if np.min(np.linalg.norm(w, axis=0)) < 1e-2:
        return False
    labels = np.asarray(labels)
    if config.loss_kind == HASEPARATOR:
        proj = compute_loss(e, w, labels, config).projections
        off_target = np.ones_like(proj, dtype=bool)
        off_target[np.arange(labels.size), labels] = False
        if np.min(np.abs(proj[off_target] - config.margin)) < slack:
            return False
    if config.loss_kind == ARCFACE:
        e_hat = e / np.linalg.norm(e, axis=1, keepdims=True)
        w_hat = w / np.linalg.norm(w, axis=0, keepdims=True)
        cos_t = np.einsum("ij,ji->i", e_hat, w_hat[:, labels])
        theta = np.arccos(np.clip(cos_t, -1.0, 1.0))
        if np.min(theta) < slack or np.max(theta) > math.pi - config.arc_margin - slack:
            return False
    return True


def smooth_instances(config, count, seed=0, batch=4, dim=5, classes=3):
    """Yield `count` random instances that pass the kink filter."""
    rng = np.random.default_rng(seed)
    found = 0
    while found < count:
        e, w, labels = random_instance(rng, batch, dim, classes)
        if away_from_kinks(e, w, labels, config):
            found += 1
            yield e, w, labels


def as_tensor3(values) -> np.ndarray:
    """Validate and convert to a 3-d float64 array with positive dimensions."""
    t = np.asarray(values, dtype=np.float64)
    if t.ndim != 3:
        raise ShapeError(f"expected a 3-d array, got shape {t.shape}")
    if min(t.shape) == 0:
        raise ShapeError(f"tensor dimensions must be positive, got {t.shape}")
    return t


def batched_contract(e, h) -> np.ndarray:
    """Per-sample contraction result[i, j] = sum_k e[i, k] * h[i, k, j]."""
    e = as_matrix(e)
    h = as_tensor3(h)
    if e.shape[0] != h.shape[0] or e.shape[1] != h.shape[1]:
        raise ShapeError(f"embeddings {e.shape} incompatible with tensor {h.shape}")
    return np.einsum("ik,ikj->ij", e, h)


def broadcast_weights(w_hat, batch_size: int) -> np.ndarray:
    """Replicate an N x C weight matrix into a batch_size x N x C tensor."""
    w_hat = as_matrix(w_hat)
    if batch_size < 1:
        raise ShapeError(f"batch_size must be >= 1, got {batch_size}")
    return np.broadcast_to(w_hat, (batch_size,) + w_hat.shape).copy()


def gather_target_columns(w_hat, labels, replicate_to: int | None = None) -> np.ndarray:
    """Stack each sample's target weight column into a B x N x 1 tensor.

    With replicate_to=C the single class slot is repeated C times, so slice
    i holds column labels[i] of w_hat in every class position.
    """
    w_hat = as_matrix(w_hat)
    labels = as_labels(labels, w_hat.shape[1])
    gathered = w_hat[:, labels].T[:, :, None]
    if replicate_to is not None:
        if replicate_to < 1:
            raise ShapeError(f"replicate_to must be >= 1, got {replicate_to}")
        gathered = np.repeat(gathered, replicate_to, axis=2)
    return np.ascontiguousarray(gathered)


def hyperplane_normals(w_hat, labels) -> np.ndarray:
    """B x N x C unit normals of each sample's target-class hyperplanes.

    Slice i, column j is (w_hat[:, labels[i]] - w_hat[:, j]) normalized over
    the feature axis; normals of length <= EPSILON (the target column, zero
    or collinear class columns) are the zero vector.
    """
    w_hat = as_matrix(w_hat)
    labels = as_labels(labels, w_hat.shape[1])
    expanded = broadcast_weights(w_hat, labels.shape[0])
    targets = gather_target_columns(w_hat, labels, replicate_to=w_hat.shape[1])
    raw = targets - expanded
    norms = np.sqrt(np.sum(raw * raw, axis=1))  # B x C
    unit = raw / np.where(norms > EPSILON, norms, 1.0)[:, None, :]
    unit[np.broadcast_to((norms <= EPSILON)[:, None, :], raw.shape)] = 0.0
    return unit


def hyperplane_projections(e_hat, h_hat) -> np.ndarray:
    """Projections of unit embeddings onto their per-sample unit normals."""
    return batched_contract(e_hat, h_hat)


def dense_haseparator_loss(e, w, labels, config) -> LossResult:
    """The separator loss built from the explicit B x N x C normals.

    An independent oracle for the closed-form Gram kernel in
    haseparator.losses: projections are dot products with materialized
    normals, and the weight gradient is pulled back through each normal's
    normalization separately.
    """
    e, w, labels = losses._prepare(e, w, labels)
    sigma, margin = config.sigma, config.margin
    batch = e.shape[0]
    rows = np.arange(batch)

    e_hat, e_norms = normalize(e, 1)
    w_hat, w_norms = normalize(w, 0)
    logits = sigma * (e_hat @ w_hat)
    ce_loss, grad_logits = softmax_cross_entropy(logits, labels)

    raw = gather_target_columns(w_hat, labels, w_hat.shape[1]) - broadcast_weights(w_hat, batch)
    h_norms = np.sqrt(np.sum(raw * raw, axis=1))  # B x C
    degenerate = np.broadcast_to((h_norms <= EPSILON)[:, None, :], raw.shape)
    h_safe = np.where(h_norms > EPSILON, h_norms, 1.0)
    h_hat = hyperplane_normals(w_hat, labels)
    projections = hyperplane_projections(e_hat, h_hat)
    _, separator_loss = hinge_cost(projections, margin, labels)

    active = projections < margin
    active[rows, labels] = False
    grad_proj = np.where(active, -1.0 / batch, 0.0)

    grad_e_hat = sigma * (grad_logits @ w_hat.T)
    grad_e_hat += np.einsum("ij,ikj->ik", grad_proj, h_hat)

    grad_h_hat = np.einsum("ij,ik->ikj", grad_proj, e_hat)
    inner = np.sum(h_hat * grad_h_hat, axis=1, keepdims=True)  # B x 1 x C
    grad_raw = (grad_h_hat - h_hat * inner) / h_safe[:, None, :]
    grad_raw[degenerate] = 0.0

    grad_w_hat = sigma * (e_hat.T @ grad_logits)
    grad_w_hat -= grad_raw.sum(axis=0)
    np.add.at(grad_w_hat.T, labels, grad_raw.sum(axis=2))

    return LossResult(
        total_loss=ce_loss + separator_loss,
        ce_loss=ce_loss,
        separator_loss=separator_loss,
        logits=logits,
        projections=projections,
        grad_embeddings=normalize_backward(e_hat, e_norms, grad_e_hat, 1),
        grad_weights=normalize_backward(w_hat, w_norms, grad_w_hat, 0),
    )


def scaled_cosine_logits(e, w, sigma: float) -> np.ndarray:
    """Logits sigma * <e_hat, w_hat>: rows of e and columns of w unit-normalized."""
    if not sigma > 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    e = as_matrix(e)
    w = as_matrix(w)
    if e.shape[1] != w.shape[0]:
        raise ShapeError(f"cannot multiply {e.shape} by {w.shape}")
    return sigma * (normalize(e, 1)[0] @ normalize(w, 0)[0])


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
    loss, grad = losses._cross_entropy(logits, losses._target_index(labels))
    return float(loss), grad


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
    costs, loss = losses._hinge(projections, margin, losses._target_index(labels))
    return costs, float(loss)


# The expressions of the library's step kernels before they reused buffers
# and skipped masks that change nothing. The library must match them byte
# for byte.


def reference_normalize(m, axis):
    norms = np.sqrt(np.sum(m * m, axis=axis, keepdims=True))
    unit = m / np.where(norms > EPSILON, norms, 1.0)
    return np.where(norms <= EPSILON, 0.0, unit), norms


def reference_normalize_backward(unit, norms, grad_unit, axis):
    inner = np.sum(unit * grad_unit, axis=axis, keepdims=True)
    grad = (grad_unit - unit * inner) / np.where(norms > EPSILON, norms, 1.0)
    return np.where(norms <= EPSILON, 0.0, grad)


def reference_cross_entropy(logits, labels):
    batch = logits.shape[-2]
    target = losses._target_index(labels)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    loss = -np.mean(log_probs[target], axis=-1)
    grad = np.exp(log_probs)
    grad[target] -= 1.0
    return loss, grad / batch


def reference_forward(model, x) -> ForwardTrace:
    trace = ForwardTrace(inputs=x)
    activation = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = activation @ w + b[..., None, :]
        trace.pre_activations.append(z)
        activation = z if i == last else np.maximum(z, 0.0)
        trace.activations.append(activation)
    trace.embeddings = activation
    return trace


def reference_backward(model, trace, grad_embeddings) -> ModelGrads:
    n_layers = len(model.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    delta = grad_embeddings
    for i in range(n_layers - 1, -1, -1):
        layer_in = trace.inputs if i == 0 else trace.activations[i - 1]
        grads_w[i] = np.swapaxes(layer_in, -1, -2) @ delta
        grads_b[i] = delta.sum(axis=-2)
        if i > 0:
            delta = (delta @ np.swapaxes(model.weights[i], -1, -2)) * (
                trace.pre_activations[i - 1] > 0
            )
    return ModelGrads(weights=grads_w, biases=grads_b)


def sgd_step(param, grad, velocity, lr, momentum, weight_decay):
    """Reference momentum-SGD update with additive L2 on one parameter:
    v <- mu v + g + wd p, p <- p - lr v. Pure: returns fresh (param, velocity)."""
    param = np.asarray(param, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ShapeError(
            f"param {param.shape}, grad {grad.shape}, velocity {velocity.shape} must match"
        )
    new_velocity = momentum * velocity + grad + weight_decay * param
    return param - lr * new_velocity, new_velocity


def transport_cost(p, q, locations) -> float:
    """Minimum-cost transport between two 1-d distributions, solved as an LP.

    Ground distance |locations[i] - locations[j]|; p and q must sum to 1.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    locations = np.asarray(locations, dtype=np.float64)
    n = p.size
    cost = np.abs(locations[:, None] - locations[None, :]).ravel()
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n : (i + 1) * n] = 1.0  # mass leaving bin i
        a_eq[n + i, i::n] = 1.0  # mass arriving at bin i
    b_eq = np.concatenate([p, q])
    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.success, result.message
    return float(result.fun)


def _loop_rank_sample(total: int, cap: int, rng) -> np.ndarray:
    """Distinct-rank sampling as the library did it first, with np.union1d."""
    if cap >= total:
        return np.arange(total, dtype=np.int64)
    if total <= max(4 * cap, 1_000_000):
        return rng.permutation(total)[:cap].astype(np.int64)
    chosen = np.array([], dtype=np.int64)
    while chosen.size < cap:
        draw = rng.integers(0, total, size=2 * (cap - chosen.size) + 16)
        chosen = np.union1d(chosen, draw)
    return chosen[rng.permutation(chosen.size)[:cap]]


def merged_rank_sample(total: int, cap: int, rng) -> np.ndarray:
    """Distinct-rank sampling with every round's draw, sorted copy, masks and
    merged picks alive until the final permutation (the library's sampler
    before its rounds held one array at a time)."""
    if cap >= total:
        return np.arange(total, dtype=np.int64)
    if total <= max(4 * cap, 1_000_000):
        return rng.permutation(total)[:cap].astype(np.int64)
    chosen = np.array([], dtype=np.int64)
    while chosen.size < cap:
        draw = rng.integers(0, total, size=2 * (cap - chosen.size) + 16)
        # Sorted distinct values, as np.union1d gives, without its hash pass.
        merged = np.sort(np.concatenate([chosen, draw]))
        chosen = merged[np.concatenate([[True], merged[1:] != merged[:-1]])]
    return chosen[rng.permutation(chosen.size)[:cap]]


def _unrank_within_class(ranks, members):
    """Map pair ranks to (i, j) index pairs within one class, lexicographic order."""
    n = members.size
    row_sizes = np.arange(n - 1, 0, -1)
    starts = np.concatenate([[0], np.cumsum(row_sizes)])
    a = np.searchsorted(starts, ranks, side="right") - 1
    b = a + 1 + (ranks - starts[a])
    return members[a], members[b]


def _loop_positive_pairs(members_by_class, ranks):
    totals = np.array([m.size * (m.size - 1) // 2 for m in members_by_class])
    block_starts = np.concatenate([[0], np.cumsum(totals)])
    block = np.searchsorted(block_starts, ranks, side="right") - 1
    first = np.empty(ranks.size, dtype=np.int64)
    second = np.empty(ranks.size, dtype=np.int64)
    for c, members in enumerate(members_by_class):
        in_block = block == c
        if not np.any(in_block):
            continue
        local = ranks[in_block] - block_starts[c]
        first[in_block], second[in_block] = _unrank_within_class(local, members)
    return first, second


def _loop_negative_pairs(members_by_class, ranks):
    num_classes = len(members_by_class)
    blocks = [
        (c1, c2)
        for c1 in range(num_classes)
        for c2 in range(c1 + 1, num_classes)
    ]
    totals = np.array(
        [members_by_class[c1].size * members_by_class[c2].size for c1, c2 in blocks]
    )
    block_starts = np.concatenate([[0], np.cumsum(totals)])
    which = np.searchsorted(block_starts, ranks, side="right") - 1
    first = np.empty(ranks.size, dtype=np.int64)
    second = np.empty(ranks.size, dtype=np.int64)
    for b, (c1, c2) in enumerate(blocks):
        in_block = which == b
        if not np.any(in_block):
            continue
        local = ranks[in_block] - block_starts[b]
        a_local, b_local = np.divmod(local, members_by_class[c2].size)
        first[in_block] = members_by_class[c1][a_local]
        second[in_block] = members_by_class[c2][b_local]
    return first, second


def loop_pair_angles(embeddings, labels, max_pairs_per_kind, seed=0):
    """Pair angles with per-class and per-class-pair Python loops.

    The reference for haseparator.metrics.pair_angles, which must give the
    same arrays bit for bit: ranks are sampled from the same rng stream and
    unranked class by class, then class pair by class pair. Rows of squared
    norm beyond the float range are not handled.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    norms = np.sqrt(np.sum(embeddings * embeddings, axis=1))
    keep = norms > EPSILON
    unit = embeddings[keep] / norms[keep][:, None]
    kept_labels = labels[keep]
    if unit.shape[0] < 2:
        raise ConfigError("need at least 2 nonzero embeddings")

    classes = np.unique(kept_labels)
    members_by_class = [np.flatnonzero(kept_labels == c) for c in classes]
    pos_total = sum(m.size * (m.size - 1) // 2 for m in members_by_class)
    total_pairs = unit.shape[0] * (unit.shape[0] - 1) // 2
    neg_total = total_pairs - pos_total
    if pos_total == 0:
        raise ConfigError("no positive pairs: every class has fewer than 2 members")
    if neg_total == 0:
        raise ConfigError("no negative pairs: need at least 2 distinct classes")

    rng = np.random.default_rng(seed)
    pos_ranks = _loop_rank_sample(pos_total, max_pairs_per_kind, rng)
    neg_ranks = _loop_rank_sample(neg_total, max_pairs_per_kind, rng)
    pos_i, pos_j = _loop_positive_pairs(members_by_class, pos_ranks)
    neg_i, neg_j = _loop_negative_pairs(members_by_class, neg_ranks)

    def _angles(i, j):
        cos = np.einsum("ij,ij->i", unit[i], unit[j])
        return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))

    return _angles(pos_i, pos_j), _angles(neg_i, neg_j)


def assert_embeddings_npz(path, embeddings, labels):
    """The .npz at path loads with pickles refused and holds exactly these
    embeddings as float64 and these labels as int64, bit for bit."""
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == ["embeddings", "labels"]
        for key, want, dtype in (("embeddings", embeddings, np.float64),
                                 ("labels", labels, np.int64)):
            assert npz[key].dtype == dtype
            assert npz[key].shape == np.shape(want)
            assert npz[key].tobytes() == np.asarray(want, dtype=dtype).tobytes()


def per_value_save_delimited(dataset, path):
    """data.save_delimited as first written, one format() call per value.

    This and the six writers below are the byte-for-byte references for
    the library's text files. The library formats a whole table row with
    one %-format string, and takes the columns or keys of report.csv,
    sweep.csv, config.txt and the scores JSON from its dataclass fields;
    these spell out each value and each column or key by hand.
    """
    with open(path, "w") as fh:
        for row, label in zip(dataset.features, dataset.labels):
            cells = [format(v, ".17g") for v in row] + [str(int(label))]
            fh.write(",".join(cells) + "\n")


def per_row_load_delimited(path):
    """data.load_delimited as it was before it read the table with
    np.loadtxt: every cell of every data row through float(), then the same
    checks and standardize. The reference for the loader's table bits and
    for its error types and messages, on columns whose variance stays
    finite: it has no overflow rule."""
    lines = (ln.strip() for ln in read_text_lines(path, DataFormatError))
    rows = (ln for ln in lines if ln and not ln.startswith("#"))
    parsed, width = [], None
    for lineno, row in enumerate(rows, start=1):
        cells = row.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise RaggedRowError(
                f"{path}: row {lineno} has {len(cells)} fields, expected {width}"
            )
        try:
            parsed.append([float(c) for c in cells])
        except ValueError as exc:
            raise NonNumericCellError(f"{path}: row {lineno}: {exc}") from exc
    if not parsed:
        raise RaggedRowError(f"{path}: no data rows")
    table = np.array(parsed)
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonNumericCellError(
            f"{path}: row {row + 1}: non-finite value {float(table[row, col])!r} "
            f"in column {col}"
        )
    if table.shape[1] < 2:
        raise RaggedRowError(f"{path}: need at least 2 columns, got {table.shape[1]}")
    labels = table[:, -1]
    if (np.rint(labels) != labels).any():
        raise NonNumericCellError(f"{path}: the label column is not integral")
    if labels.min() < 0:
        raise NonNumericCellError(f"{path}: negative class label {int(labels.min())}")
    if labels.max() >= len(table):
        raise NonNumericCellError(f"{path}: class label {int(labels.max())} is not below "
                                  f"the {len(table)} data rows")
    return Dataset(standardize(table[:, :-1]), labels, int(labels.max()) + 1)


def per_value_save_checkpoint(model, path):
    lines = [CHECKPOINT_MAGIC]
    lines.append("layer_dims " + " ".join(str(d) for d in model.layer_dims))
    lines.append(f"num_classes {model.num_classes}")
    named = []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        named.append((f"layer{i}.weight", w))
        named.append((f"layer{i}.bias", b.reshape(1, -1)))
    named.append(("class_weights", model.class_weights))
    for name, values in named:
        lines.append(f"param {name} {values.shape[0]} {values.shape[1]}")
        for row in values:
            lines.append(" ".join(format(v, ".17g") for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def per_value_write_histogram_csv(h, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start_deg", "bin_end_deg", "pos_count", "neg_count"])
        for b in range(h.num_bins):
            writer.writerow(
                [format(h.bin_edges[b], ".10g"), format(h.bin_edges[b + 1], ".10g"),
                 int(h.pos_counts[b]), int(h.neg_counts[b])]
            )


def per_value_write_report_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "c_all", "c_ce", "c_sep", "train_acc"])
        for r in report.records:
            writer.writerow(
                [r.step, format(r.lr, ".17g"), format(r.c_all, ".17g"),
                 format(r.c_ce, ".17g"), format(r.c_sep, ".17g"),
                 format(r.train_acc, ".17g")]
            )


def per_value_write_sweep_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loss", "sigma", "margin", "seed", "accuracy", "d_kl", "d_em",
                         "final_c_t", "wall_time_s", "error"])
        for r in records:
            writer.writerow(
                [r.loss_kind, format(r.sigma, ".17g"), format(r.margin, ".17g"), r.seed,
                 format(r.accuracy, ".17g"), format(r.d_kl, ".17g"), format(r.d_em, ".17g"),
                 format(r.final_c_t, ".17g"), format(r.wall_time_s, ".17g"), r.error]
            )


def _flatten_config(value, prefix=""):
    if isinstance(value, dict):
        items = []
        for key, sub in value.items():
            sub_prefix = f"{prefix}.{key}" if prefix else key
            items.extend(_flatten_config(sub, sub_prefix))
        return items
    if isinstance(value, (tuple, list)):
        return [(prefix, ",".join(str(v) for v in value))]
    return [(prefix, str(value))]


def per_value_write_config_echo(config, path):
    with open(path, "w") as fh:
        for key, value in _flatten_config(asdict(config)):
            fh.write(f"{key}={value}\n")


def per_value_write_scores_json(scores, path):
    with open(path, "w") as fh:
        json.dump(
            {"d_kl": scores.d_kl, "d_em": scores.d_em, "accuracy": scores.accuracy},
            fh,
            indent=2,
        )
        fh.write("\n")
