"""End-to-end acceptance checks for the package.

Each test covers one contract and prints a single [PASS]/[FAIL] line on the
real terminal (capture disabled), so a plain pytest run doubles as a
checklist. Failures still raise with the collected details.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np

from helpers import (
    FD_STEP,
    finite_difference_grads,
    hinge_cost,
    random_instance,
    relative_error,
    scaled_cosine_logits,
    smooth_instances,
    transport_cost,
)

from haseparator.data import gaussian_blobs
from haseparator.losses import (
    ARCFACE,
    HASEPARATOR,
    SOFTMAX,
    LossConfig,
    compute_loss,
)
from haseparator.metrics import AngleHistograms, emd_1d, kl_divergence, pair_angles
from haseparator.model import init_model
from haseparator.runner import (
    DatasetConfig,
    ExperimentConfig,
    SweepConfig,
    run_experiment,
    run_sweep,
)
from haseparator.trainer import TrainConfig, train

NO_SAMPLING = 10**9


def _report(capsys, name, failures):
    ok = not failures
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"{name}:\n  " + "\n  ".join(failures)


def test_gradient_oracle(capsys):
    """Analytic gradients match central finite differences on smooth instances."""
    failures = []
    configs = [
        LossConfig(loss_kind=SOFTMAX, sigma=2.5),
        LossConfig(loss_kind=HASEPARATOR, sigma=2.5, margin=0.6),
        LossConfig(loss_kind=ARCFACE, sigma=2.5, arc_margin=0.4),
    ]
    shapes = [(1, 2, 2), (2, 3, 3), (3, 4, 2), (4, 6, 4), (2, 5, 4), (4, 2, 3), (3, 6, 3)]
    start = time.perf_counter()
    for config in configs:
        seen = 0
        for shape_index, (batch, dim, classes) in enumerate(shapes):
            for e, w, labels in smooth_instances(
                config, count=3, seed=101 + shape_index, batch=batch, dim=dim, classes=classes
            ):
                result = compute_loss(e, w, labels, config)
                fd_e, fd_w = finite_difference_grads(e, w, labels, config, step=FD_STEP)
                err = max(
                    relative_error(result.grad_embeddings, fd_e),
                    relative_error(result.grad_weights, fd_w),
                )
                if err >= 1e-5:
                    failures.append(
                        f"{config.loss_kind} shape {batch}x{dim}x{classes}: rel err {err:.2e}"
                    )
                seen += 1
        if seen < 20:
            failures.append(f"{config.loss_kind}: only {seen} instances checked")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _report(capsys, "gradient oracle: analytic vs finite differences", failures)


def test_forward_oracle(capsys):
    """One fully hand-computed separator-loss instance, scalar math only."""
    failures = []
    # e=(1,0) is already unit; w columns are the standard basis. The single
    # hyperplane normal for label 0 is (w0-w1)/|w0-w1| = (1,-1)/sqrt(2), so
    # the projection is 1/sqrt(2) and the hinge cost is 1 - 1/sqrt(2).
    hand_separator = 1.0 - 1.0 / math.sqrt(2.0)
    # Logits at sigma=1 are (1, 0); cross-entropy = log(e^1 + e^0) - 1.
    hand_ce = math.log(math.exp(1.0) + 1.0) - 1.0
    hand_total = hand_separator + hand_ce

    config = LossConfig(loss_kind=HASEPARATOR, sigma=1.0, margin=1.0)
    result = compute_loss([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [0], config)
    if abs(result.separator_loss - hand_separator) >= 1e-9:
        failures.append(f"separator {result.separator_loss!r} != hand {hand_separator!r}")
    if abs(result.total_loss - hand_total) >= 1e-9:
        failures.append(f"total {result.total_loss!r} != hand {hand_total!r}")
    if abs(result.total_loss - 0.60615491) >= 1e-7:
        failures.append(f"total {result.total_loss!r} != 0.60615491")
    _report(capsys, "forward oracle: hand-computed separator example", failures)


def test_structural_invariants(capsys):
    failures = []
    rng = np.random.default_rng(7)

    def check(cond, msg):
        if not cond:
            failures.append(msg)

    for trial in range(50):
        batch = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 7))
        classes = int(rng.integers(2, 5))
        margin = float(rng.uniform(0.05, 1.0))
        e, w, labels = random_instance(rng, batch, dim, classes)
        config = LossConfig(loss_kind=HASEPARATOR, sigma=2.0, margin=margin)
        result = compute_loss(e, w, labels, config)

        proj = result.projections
        check(np.all(proj >= -1.0 - 1e-12) and np.all(proj <= 1.0 + 1e-12),
              f"trial {trial}: projections outside [-1,1]")
        check(result.separator_loss >= 0.0,
              f"trial {trial}: negative separator loss {result.separator_loss}")
        # The hinge is at most margin+1 per off-target column (projections
        # cannot go below -1), so the batch mean is capped by that times C-1.
        check(result.separator_loss <= (margin + 1.0) * (classes - 1) + 1e-12,
              f"trial {trial}: separator loss above (m+1)(C-1)")

        # With every embedding sitting on its own class weight, projections
        # are nonnegative and the tighter m(C-1) cap applies.
        aligned = w[:, labels].T
        aligned_result = compute_loss(aligned, w, labels, config)
        check(np.all(aligned_result.projections >= -1e-12),
              f"trial {trial}: aligned projections negative")
        check(aligned_result.separator_loss <= margin * (classes - 1) + 1e-12,
              f"trial {trial}: aligned separator loss above m(C-1)")

        # Scaling any embedding by a positive factor must not move the
        # separator term: it only sees directions.
        scales = rng.uniform(0.1, 10.0, size=(batch, 1))
        scaled = compute_loss(e * scales, w, labels, config)
        check(abs(scaled.separator_loss - result.separator_loss) <= 1e-12,
              f"trial {trial}: separator loss moved under positive scaling")

    # Projections at or above the margin cost exactly zero.
    margin = 0.35
    proj = np.linspace(margin, 1.0, 12).reshape(3, 4)
    costs, total = hinge_cost(proj, margin, [0, 1, 2])
    check(np.all(costs == 0.0) and total == 0.0, "hinge cost nonzero for p >= m")

    # Zero arc margin must reduce to the softmax path bitwise.
    for trial in range(20):
        e, w, labels = random_instance(rng, 3, 4, 3)
        arc = compute_loss(e, w, labels, LossConfig(loss_kind=ARCFACE, sigma=3.0, arc_margin=0.0))
        soft = compute_loss(e, w, labels, LossConfig(loss_kind=SOFTMAX, sigma=3.0))
        check(arc.total_loss == soft.total_loss
              and np.array_equal(arc.grad_embeddings, soft.grad_embeddings)
              and np.array_equal(arc.grad_weights, soft.grad_weights),
              f"trial {trial}: zero-margin arcface differs from softmax")

    _report(capsys, "structural invariants: projections, bounds, scaling, reductions", failures)


def _hist(pos_counts, neg_counts, span=180.0):
    pos = np.asarray(pos_counts, dtype=np.float64)
    neg = np.asarray(neg_counts, dtype=np.float64)
    edges = np.linspace(0.0, span, pos.size + 1)
    return AngleHistograms(edges, pos, neg)


def test_distance_oracle(capsys):
    """emd_1d against an LP transport solver; KL/EMD edge cases."""
    failures = []
    rng = np.random.default_rng(21)
    for trial in range(100):
        bins = int(rng.integers(2, 17))
        pos = rng.integers(0, 20, size=bins).astype(np.float64)
        neg = rng.integers(0, 20, size=bins).astype(np.float64)
        pos[rng.integers(0, bins)] += 1  # guarantee mass on both sides
        neg[rng.integers(0, bins)] += 1
        hist = _hist(pos, neg)
        centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
        expected = transport_cost(pos / pos.sum(), neg / neg.sum(), centers)
        got = emd_1d(hist)
        if abs(got - expected) >= 1e-9:
            failures.append(f"trial {trial}: emd {got!r} vs transport {expected!r}")

    same = rng.integers(1, 20, size=36).astype(np.float64)
    identical = _hist(same, same * 3.0)  # same shape, different mass
    if kl_divergence(identical) != 0.0:
        failures.append("KL nonzero on identical shapes")
    if emd_1d(identical) != 0.0:
        failures.append("EMD nonzero on identical shapes")

    for bins in (180, 16, 7):
        width = 180.0 / bins
        pos = np.zeros(bins)
        neg = np.zeros(bins)
        pos[int(0.0 // width)] = 50.0
        neg[min(int(90.0 // width), bins - 1)] = 70.0
        gap = emd_1d(_hist(pos, neg))
        if abs(gap - 90.0) > width / 2.0 + 1e-12:
            failures.append(f"{bins} bins: point-mass EMD {gap:.3f} not within {width / 2:.3f} of 90")

    _report(capsys, "distance oracle: EMD vs LP transport, KL/EMD edge cases", failures)


# Frozen setup for the behavioral margin sweep: moderately overlapping blobs
# so discrimination differences have room to show.
SWEEP_MARGINS = tuple(round(0.1 * k, 1) for k in range(1, 11))
SWEEP_SEEDS = (0, 1, 2, 3, 4)
SWEEP_SIGMA = 5.0
SWEEP_TEMPLATE = ExperimentConfig(
    dataset=DatasetConfig(kind="blobs", num_classes=5, per_class=60, dim=16,
                          center_radius=3.0, stddev=1.3),
    hidden_dims=(32, 32),
    embedding_dim=16,
    train=TrainConfig(steps=250, batch_size=64, base_lr=0.1, loss=LossConfig()),
    seed=0,
)


def test_margin_sweep_behavior(capsys):
    """Margin sensitivity at toy scale: the separator loss keeps its
    discrimination across m where the additive-angle loss collapses, beats
    plain softmax at its best margin, and gives up no accuracy."""
    failures = []
    jobs = min(4, os.cpu_count() or 1)
    start = time.perf_counter()
    margin_records = run_sweep(SweepConfig(
        losses=(HASEPARATOR, ARCFACE), sigmas=(SWEEP_SIGMA,), margins=SWEEP_MARGINS,
        seeds=SWEEP_SEEDS, experiment=SWEEP_TEMPLATE, jobs=jobs))
    softmax_records = run_sweep(SweepConfig(
        losses=(SOFTMAX,), sigmas=(SWEEP_SIGMA,), margins=(0.5,),
        seeds=SWEEP_SEEDS, experiment=SWEEP_TEMPLATE, jobs=jobs))
    elapsed = time.perf_counter() - start

    errors = [r for r in margin_records + softmax_records if r.error]
    if errors:
        failures.append(f"{len(errors)} runs failed, first: {errors[0].error}")
    hasep = {(r.margin, r.seed): r for r in margin_records if r.loss_kind == HASEPARATOR}
    arcface = {(r.margin, r.seed): r for r in margin_records if r.loss_kind == ARCFACE}
    softmax = {r.seed: r for r in softmax_records}

    # (a) spread of D_EM across margins, per seed
    stable_wins = sum(
        np.std([hasep[(m, s)].d_em for m in SWEEP_MARGINS])
        < np.std([arcface[(m, s)].d_em for m in SWEEP_MARGINS])
        for s in SWEEP_SEEDS
    )
    if stable_wins < 4:
        failures.append(f"margin stability won only {stable_wins}/5 seeds")

    # (b) best margin by mean D_EM, compared to softmax per seed
    best_margin = max(
        SWEEP_MARGINS,
        key=lambda m: np.mean([hasep[(m, s)].d_em for s in SWEEP_SEEDS]),
    )
    separation_wins = sum(
        hasep[(best_margin, s)].d_em > softmax[s].d_em for s in SWEEP_SEEDS
    )
    if separation_wins < 4:
        failures.append(
            f"best margin {best_margin} beat softmax D_EM in only {separation_wins}/5 seeds"
        )

    # (c) no accuracy give-up at the best margin (within one point)
    hasep_acc = float(np.mean([hasep[(best_margin, s)].accuracy for s in SWEEP_SEEDS]))
    softmax_acc = float(np.mean([softmax[s].accuracy for s in SWEEP_SEEDS]))
    if hasep_acc < softmax_acc - 0.01:
        failures.append(f"accuracy {hasep_acc:.3f} more than 1pt below softmax {softmax_acc:.3f}")

    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.0f}s, budget 600s")
    _report(capsys, "margin sweep: stability, separation gain, accuracy parity", failures)


# Golden record: one seeded run per loss kind on the sweep template at 30
# steps, scoring 200 pairs a kind in 18 bins of 10 degrees. 200 is below
# every kind's pair count in both splits (the test split has 330 positive
# pairs), so the evaluation rng streams pick the pairs. Per loss kind: each
# split's positive and negative counts, d_kl, d_em and accuracy, then the
# last history row (HISTORY_COLUMNS). Counts and accuracy are pinned
# exactly, the rest to a relative 1e-12. A change that means to move them
# updates them and says why in CHANGES.md.
GOLDEN_STEPS, GOLDEN_BINS, GOLDEN_PAIRS = 30, 18, 200
GOLDEN = {
    SOFTMAX: (
        {"train": ([1, 14, 41, 41, 42, 21, 13, 9, 6, 5, 5, 2, 0, 0, 0, 0, 0, 0],
                   [0, 0, 1, 4, 5, 7, 11, 10, 27, 34, 46, 31, 15, 8, 1, 0, 0, 0],
                   3.1451395870537784, 51.4, 0.8958333333333334),
         "test": ([0, 12, 19, 25, 32, 32, 17, 19, 15, 7, 8, 7, 4, 3, 0, 0, 0, 0],
                  [0, 2, 4, 7, 5, 6, 12, 27, 17, 27, 33, 25, 23, 8, 3, 1, 0, 0],
                  0.7681496411354839, 34.39999999999999, 0.7833333333333333)},
        [0.1, 0.44310203030250084, 0.44310203030250084, 0.0, 0.890625],
    ),
    HASEPARATOR: (
        {"train": ([24, 46, 51, 28, 14, 13, 2, 2, 4, 12, 2, 2, 0, 0, 0, 0, 0, 0],
                   [0, 2, 2, 3, 2, 6, 7, 8, 17, 38, 47, 33, 29, 6, 0, 0, 0, 0],
                   4.370777779378294, 66.35000000000001, 0.9083333333333333),
         "test": ([13, 28, 27, 29, 18, 13, 10, 7, 13, 12, 12, 8, 8, 1, 1, 0, 0, 0],
                  [2, 3, 10, 4, 7, 4, 5, 18, 25, 24, 33, 26, 27, 8, 3, 1, 0, 0],
                  0.7624371840468325, 39.900000000000006, 0.7666666666666667)},
        [0.1, 1.3795096151832937, 0.4286800297959927, 0.9508295853873011, 0.875],
    ),
    ARCFACE: (
        {"train": ([7, 50, 49, 29, 31, 9, 1, 3, 7, 5, 6, 3, 0, 0, 0, 0, 0, 0],
                   [0, 2, 3, 2, 1, 8, 8, 10, 23, 39, 52, 29, 15, 7, 1, 0, 0, 0],
                   2.882685123295736, 60.5, 0.8958333333333334),
         "test": ([4, 22, 27, 28, 29, 15, 12, 8, 14, 15, 8, 8, 6, 4, 0, 0, 0, 0],
                  [0, 4, 7, 8, 8, 2, 11, 16, 25, 30, 32, 30, 18, 7, 1, 1, 0, 0],
                  0.9977311343845056, 35.00000000000001, 0.7833333333333333)},
        [0.1, 0.76453722168636, 0.76453722168636, 0.0, 0.8125],
    ),
}


def test_golden_record(capsys):
    failures = []
    for kind, (splits, last_row) in GOLDEN.items():
        train_config = replace(SWEEP_TEMPLATE.train, steps=GOLDEN_STEPS,
                               loss=LossConfig(loss_kind=kind))
        result = run_experiment(replace(SWEEP_TEMPLATE, train=train_config,
                                        bins=GOLDEN_BINS, max_pairs=GOLDEN_PAIRS))
        for split, (pos, neg, d_kl, d_em, acc) in splits.items():
            hist, scores = result.hists[split], result.scores[split]
            if hist.pos_counts.tolist() != pos or hist.neg_counts.tolist() != neg:
                failures.append(f"{kind} {split}: counts {hist.pos_counts.tolist()} "
                                f"{hist.neg_counts.tolist()}")
            if scores.accuracy != acc:
                failures.append(f"{kind} {split}: accuracy {scores.accuracy!r}, pinned {acc!r}")
            for name, got, want in (("d_kl", scores.d_kl, d_kl), ("d_em", scores.d_em, d_em)):
                if not math.isclose(got, want, rel_tol=1e-12):
                    failures.append(f"{kind} {split}: {name} {got!r}, pinned {want!r}")
        row = result.report.history[-1].tolist()
        if not all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(row, last_row, strict=True)):
            failures.append(f"{kind}: last history row {row}, pinned {last_row}")
    _report(capsys, "golden record: counts, scores and last history row per loss kind",
            failures)


def test_training_contract(capsys):
    failures = []

    config = ExperimentConfig(
        dataset=DatasetConfig(kind="blobs", num_classes=3, per_class=30, dim=4),
        hidden_dims=(16,),
        embedding_dim=8,
        train=TrainConfig(steps=40, batch_size=32, loss=LossConfig(loss_kind=HASEPARATOR)),
        seed=11,
    )
    first = run_experiment(config)
    second = run_experiment(config)
    model_equal = (
        all(np.array_equal(a, b) for a, b in zip(first.model.weights, second.model.weights))
        and all(np.array_equal(a, b) for a, b in zip(first.model.biases, second.model.biases))
        and np.array_equal(first.model.class_weights, second.model.class_weights)
    )
    if not model_equal:
        failures.append("same seed produced different parameters")
    if first.report.records != second.report.records:
        failures.append("same seed produced different training records")
    if first.scores != second.scores:
        failures.append("same seed produced different scores")

    # Well-separated blobs must be driven to zero training error quickly.
    train_data, _ = gaussian_blobs(5, 40, 2, center_radius=4.0, stddev=0.35, seed=0)
    model = init_model((2, 16, 8), num_classes=5, seed=1)
    train_config = TrainConfig(steps=200, batch_size=64, base_lr=0.1,
                               loss=LossConfig(loss_kind=SOFTMAX, sigma=3.0))
    trained = train(model, train_data, train_config, seed=1).final_model
    from haseparator.metrics import accuracy
    from haseparator.model import forward

    embeddings = forward(trained, train_data.features).embeddings
    logits = scaled_cosine_logits(embeddings, trained.class_weights, 3.0)
    train_acc = accuracy(logits, train_data.labels)
    if train_acc != 1.0:
        failures.append(f"separable blobs stopped at train accuracy {train_acc:.4f}")

    _report(capsys, "training contract: bitwise reproducibility, separable blobs solved", failures)


def test_pair_metrics_contract(capsys):
    failures = []
    rng = np.random.default_rng(3)
    layouts = [
        rng.integers(0, 4, size=40),
        np.repeat([0, 1, 2], [5, 1, 3]),
        np.array([0, 0, 1, 1]),
        np.repeat(np.arange(6), 2),
    ]
    for i, labels in enumerate(layouts):
        labels = np.asarray(labels)
        emb = rng.normal(size=(labels.size, 5))
        pos, neg = pair_angles(emb, labels, max_pairs_per_kind=NO_SAMPLING, seed=0)
        sizes = np.bincount(labels)
        want_pos = int(sum(n * (n - 1) // 2 for n in sizes))
        want_neg = labels.size * (labels.size - 1) // 2 - want_pos
        if len(pos) != want_pos or len(neg) != want_neg:
            failures.append(
                f"layout {i}: got {len(pos)}/{len(neg)} pairs, want {want_pos}/{want_neg}"
            )
        angles = np.concatenate([pos, neg])
        if np.any(angles < 0.0) or np.any(angles > 180.0):
            failures.append(f"layout {i}: angles outside [0, 180]")
    _report(capsys, "pair metrics contract: exact pair counts, angle range", failures)
