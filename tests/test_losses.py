import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from haseparator.errors import ConfigError, LabelError, ShapeError
from haseparator.losses import (
    ARCFACE,
    HASEPARATOR,
    SOFTMAX,
    LossConfig,
    LossStack,
    compute_loss,
)
from helpers import (
    dense_haseparator_loss,
    finite_difference_grads,
    hinge_cost,
    hyperplane_normals,
    hyperplane_projections,
    random_instance,
    relative_error,
    scaled_cosine_logits,
    smooth_instances,
    softmax_cross_entropy,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestLossConfig:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ConfigError):
            LossConfig(sigma=0.0)

    def test_margin_range_enforced_for_haseparator(self):
        with pytest.raises(ConfigError):
            LossConfig(loss_kind=HASEPARATOR, margin=0.0)
        with pytest.raises(ConfigError):
            LossConfig(loss_kind=HASEPARATOR, margin=1.2)
        LossConfig(loss_kind=HASEPARATOR, margin=1.0)  # boundary allowed

    def test_arc_margin_range(self):
        with pytest.raises(ConfigError):
            LossConfig(loss_kind=ARCFACE, arc_margin=-0.1)
        with pytest.raises(ConfigError):
            LossConfig(loss_kind=ARCFACE, arc_margin=math.pi / 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig(loss_kind="hinge")

    @pytest.mark.parametrize("field", [{"margin": 5.0}, {"arc_margin": 3.0}])
    def test_both_margins_checked_for_every_kind(self, field):
        # the loss functions trust both fields, so a kind that ignores one
        # must still not carry it out of range
        with pytest.raises(ConfigError):
            LossConfig(loss_kind=SOFTMAX, **field)


class TestScaledCosineLogits:
    def test_aligned_gives_sigma(self):
        e = np.array([[2.0, 0.0]])
        w = np.array([[3.0], [0.0]])
        assert scaled_cosine_logits(e, w, 2.0)[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_gives_zero(self):
        e = np.array([[1.0, 0.0]])
        w = np.array([[0.0], [1.0]])
        assert scaled_cosine_logits(e, w, 5.0)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_cos_45(self):
        e = np.array([[1.0, 1.0]])
        w = np.array([[1.0], [0.0]])
        assert scaled_cosine_logits(e, w, 1.0)[0, 0] == pytest.approx(0.70710678, abs=1e-8)

    def test_entries_bounded_by_sigma(self):
        rng = np.random.default_rng(0)
        logits = scaled_cosine_logits(rng.normal(size=(5, 7)), rng.normal(size=(7, 4)), 3.0)
        assert np.all(np.abs(logits) <= 3.0 + 1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            scaled_cosine_logits(np.ones((2, 3)), np.ones((2, 3)), 1.0)


class TestSoftmaxCrossEntropy:
    def test_uniform_two_way(self):
        loss, _ = softmax_cross_entropy(np.array([[0.0, 0.0]]), [0])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_extreme_logits_do_not_overflow(self):
        loss, grad = softmax_cross_entropy(np.array([[1000.0, 0.0]]), [0])
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 4))
        labels = rng.integers(0, 4, size=3)
        _, grad = softmax_cross_entropy(logits, labels)
        step = 1e-6
        numeric = np.zeros_like(logits)
        for idx in np.ndindex(logits.shape):
            orig = logits[idx]
            logits[idx] = orig + step
            up, _ = softmax_cross_entropy(logits, labels)
            logits[idx] = orig - step
            down, _ = softmax_cross_entropy(logits, labels)
            logits[idx] = orig
            numeric[idx] = (up - down) / (2 * step)
        assert relative_error(grad, numeric) < 1e-8

    def test_invalid_label(self):
        with pytest.raises(LabelError):
            softmax_cross_entropy(np.zeros((1, 2)), [5])


class TestHyperplaneNormals:
    def test_two_class_orientation(self):
        # target minus other, normalized: (1,0)-(0,1) scaled by 1/sqrt(2)
        w_hat = np.eye(2)
        h = hyperplane_normals(w_hat, [0])
        np.testing.assert_allclose(h[0, :, 1], [INV_SQRT2, -INV_SQRT2], atol=1e-12)

    def test_target_column_is_zero(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 3))
        w_hat = w / np.linalg.norm(w, axis=0)
        labels = [0, 1, 2, 1]
        h = hyperplane_normals(w_hat, labels)
        for i, label in enumerate(labels):
            assert not h[i, :, label].any()

    def test_columns_unit_or_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = rng.normal(size=(5, 4))
            w_hat = w / np.linalg.norm(w, axis=0)
            labels = rng.integers(0, 4, size=3)
            h = hyperplane_normals(w_hat, labels)
            norms = np.linalg.norm(h, axis=1)
            assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))


class TestHyperplaneProjections:
    def test_known_dot_product(self):
        e_hat = np.array([[1.0, 0.0]])
        h = np.array([[[0.0, INV_SQRT2], [0.0, -INV_SQRT2]]])
        p = hyperplane_projections(e_hat, h)
        assert p[0, 1] == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_orthogonal_gives_zero(self):
        e_hat = np.array([[1.0, 0.0]])
        h = np.array([[[0.0], [1.0]]])
        assert hyperplane_projections(e_hat, h)[0, 0] == 0.0

    def test_matches_loop(self):
        rng = np.random.default_rng(4)
        e = rng.normal(size=(3, 4))
        h = rng.normal(size=(3, 4, 5))
        p = hyperplane_projections(e, h)
        for i in range(3):
            for j in range(5):
                assert p[i, j] == pytest.approx(float(e[i] @ h[i, :, j]), abs=1e-12)


class TestHingeCost:
    def test_above_margin_is_free(self):
        costs, total = hinge_cost(np.array([[0.0, 0.5]]), 0.3, [0])
        assert costs[0, 1] == 0.0 and total == 0.0

    def test_below_margin_linear(self):
        costs, _ = hinge_cost(np.array([[0.0, 0.2]]), 0.5, [0])
        assert costs[0, 1] == pytest.approx(0.3, abs=1e-12)

    def test_opposite_alignment_max(self):
        # J(-1) with m=1 is 2: the hinge can exceed the margin value itself
        costs, _ = hinge_cost(np.array([[0.0, -1.0]]), 1.0, [0])
        assert costs[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_target_column_masked(self):
        costs, total = hinge_cost(np.array([[-1.0, 1.0]]), 1.0, [0])
        assert costs[0, 0] == 0.0
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_mean_over_batch(self):
        p = np.array([[0.0, 0.1], [0.0, 0.3]])
        _, total = hinge_cost(p, 0.5, [0, 0])
        assert total == pytest.approx((0.4 + 0.2) / 2.0, abs=1e-12)

    def test_label_count_must_match_rows(self):
        with pytest.raises(ConfigError, match="2 labels for 3 projection rows"):
            hinge_cost(np.zeros((3, 2)), 0.5, [0, 1])

    @given(
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_bounded(self, p1, p2, m):
        lo, hi = sorted((p1, p2))
        p = np.array([[0.0, lo, hi]])
        costs, _ = hinge_cost(p, m, [0])
        assert costs[0, 1] >= costs[0, 2]
        if lo >= m:
            assert costs[0, 1] == 0.0
        if -1.0 <= lo <= 1.0:
            assert costs[0, 1] <= 2.0


class TestHaseparatorForward:
    def test_worked_example_against_hand_computation(self):
        # independent scalar derivation: embedding on the first axis,
        # identity weights, two classes
        cos_target, cos_other = 1.0, 0.0
        c_c = -math.log(math.exp(cos_target) / (math.exp(cos_target) + math.exp(cos_other)))
        normal = (1.0 - 0.0, 0.0 - 1.0)
        scale = math.sqrt(normal[0] ** 2 + normal[1] ** 2)
        projection = (1.0 * normal[0] + 0.0 * normal[1]) / scale
        c_t = 1.0 - min(projection, 1.0)
        expected_total = c_t + c_c

        config = LossConfig(loss_kind=HASEPARATOR, sigma=1.0, margin=1.0)
        res = compute_loss(np.array([[1.0, 0.0]]), np.eye(2), [0], config)
        assert res.separator_loss == pytest.approx(1.0 - INV_SQRT2, abs=1e-12)
        assert res.projections[0, 1] == pytest.approx(INV_SQRT2, abs=1e-12)
        assert res.total_loss == pytest.approx(expected_total, abs=1e-9)
        assert res.total_loss == pytest.approx(0.60615491, abs=1e-7)

    def test_total_is_sum_of_parts(self):
        rng = np.random.default_rng(5)
        e, w, labels = random_instance(rng)
        res = compute_loss(e, w, labels, LossConfig(sigma=2.0, margin=0.6))
        assert res.total_loss == res.ce_loss + res.separator_loss

    def test_inactive_margin_reduces_to_softmax(self):
        # all non-target projections above m: separator contributes nothing
        e = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = np.eye(2)
        cfg = LossConfig(loss_kind=HASEPARATOR, sigma=2.0, margin=0.5)
        res = compute_loss(e, w, [0, 1], cfg)
        ref = compute_loss(e, w, [0, 1], LossConfig(loss_kind=SOFTMAX, sigma=2.0))
        assert res.separator_loss == 0.0
        assert res.total_loss == pytest.approx(ref.total_loss, abs=1e-15)
        np.testing.assert_allclose(res.grad_embeddings, ref.grad_embeddings, atol=1e-15)
        np.testing.assert_allclose(res.grad_weights, ref.grad_weights, atol=1e-15)

    def test_two_classes_required(self):
        with pytest.raises(ConfigError):
            compute_loss(np.ones((1, 2)), np.ones((2, 1)), [0], LossConfig())

    def test_zero_embedding_row_stays_finite(self):
        e = np.array([[0.0, 0.0], [1.0, 2.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = compute_loss(e, w, [0, 1], LossConfig(sigma=3.0, margin=0.9))
        assert np.isfinite(res.total_loss)
        assert np.all(np.isfinite(res.grad_embeddings))
        assert np.all(np.isfinite(res.grad_weights))
        assert not res.grad_embeddings[0].any()  # no direction to move a zero row

    def test_separator_scale_invariance(self):
        rng = np.random.default_rng(6)
        e, w, labels = random_instance(rng, batch=5, dim=4, classes=3)
        cfg = LossConfig(sigma=3.0, margin=0.8)
        base = compute_loss(e, w, labels, cfg)
        scales = rng.uniform(0.1, 10.0, size=5)
        scaled = compute_loss(e * scales[:, None], w, labels, cfg)
        np.testing.assert_allclose(scaled.projections, base.projections, atol=1e-12)
        assert scaled.separator_loss == pytest.approx(base.separator_loss, abs=1e-12)

    def test_projection_bound_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            e, w, labels = random_instance(rng, batch=6, dim=3, classes=4)
            res = compute_loss(e, w, labels, LossConfig())
            assert np.all(res.projections >= -1.0 - 1e-9)
            assert np.all(res.projections <= 1.0 + 1e-9)

    @given(
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-1e8, 1e8, allow_nan=False)),
        hnp.arrays(np.float64, (4, 3), elements=st.floats(-1e8, 1e8, allow_nan=False)),
        st.lists(st.integers(0, 2), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_separator_loss_nonnegative_and_capped(self, e, w, labels):
        cfg = LossConfig(sigma=1.0, margin=0.7)
        res = compute_loss(e, w, labels, cfg)
        classes = w.shape[1]
        assert res.separator_loss >= 0.0
        # J maxes at m+1 (projection -1), hence the universal cap
        assert res.separator_loss <= (cfg.margin + 1.0) * (classes - 1) + 1e-9

    def test_separator_loss_margin_bound_on_aligned_embeddings(self):
        # embeddings equal to their target weight column give nonnegative
        # projections, the regime where C_t <= m(C-1) holds
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = rng.normal(size=(5, 4))
            labels = rng.integers(0, 4, size=6)
            e = w[:, labels].T
            cfg = LossConfig(sigma=2.0, margin=0.9)
            res = compute_loss(e, w, labels, cfg)
            assert np.all(res.projections >= -1e-12)
            assert res.separator_loss <= cfg.margin * (4 - 1) + 1e-12

    def test_descent_direction(self):
        rng = np.random.default_rng(9)
        e, w, labels = random_instance(rng)
        cfg = LossConfig(sigma=3.0, margin=0.9)
        res = compute_loss(e, w, labels, cfg)
        lr = 1e-5
        stepped = compute_loss(
            e - lr * res.grad_embeddings, w - lr * res.grad_weights, labels, cfg
        )
        assert stepped.total_loss < res.total_loss


def assert_matches_dense_oracle(e, w, labels, config, tol=1e-12, atol=0.0):
    """The closed-form kernel agrees with the dense B x N x C construction.

    Each array must be within tol relative error or, for arrays that are
    analytically zero, within atol absolute error.
    """
    res = compute_loss(e, w, labels, config)
    ref = dense_haseparator_loss(e, w, labels, config)
    for name in ("projections", "grad_embeddings", "grad_weights"):
        got, want = getattr(res, name), getattr(ref, name)
        assert (
            relative_error(got, want) <= tol or np.max(np.abs(got - want)) <= atol
        ), name
    assert res.total_loss == pytest.approx(ref.total_loss, rel=tol, abs=0)
    assert res.separator_loss == pytest.approx(ref.separator_loss, rel=tol, abs=tol)
    return res


def degenerate_normals(w, labels):
    """B x C mask of the normals the dense oracle builds as zero vectors."""
    norms = np.linalg.norm(w, axis=0)
    w_hat = w / np.where(norms > 0, norms, 1.0)
    return np.linalg.norm(hyperplane_normals(w_hat, labels), axis=1) == 0.0


class TestDegenerateClassColumns:
    """Zero or collinear class columns: projection 0, no gradient through the normal."""

    def check(self, e, w, labels, config, atol=0.0):
        res = assert_matches_dense_oracle(e, w, labels, config, atol=atol)
        for arr in (res.projections, res.grad_embeddings, res.grad_weights, res.logits):
            assert np.all(np.isfinite(arr))
        assert np.isfinite(res.total_loss)
        return res

    def test_zero_class_columns(self):
        rng = np.random.default_rng(30)
        e, w, _ = random_instance(rng, batch=8, dim=5, classes=4)
        w[:, 0] = 0.0
        w[:, 3] = 0.0
        labels = np.array([0, 3, 1, 2, 0, 3, 1, 2])
        degenerate = degenerate_normals(w, labels)
        assert degenerate[0, 3] and degenerate[1, 0]  # the two zero columns pair up
        res = self.check(e, w, labels, LossConfig(sigma=3.0, margin=0.8))
        assert np.all(res.projections[degenerate] == 0.0)

    def test_duplicate_class_column(self):
        rng = np.random.default_rng(31)
        e, w, _ = random_instance(rng, batch=9, dim=6, classes=5)
        w[:, 2] = 2.0 * w[:, 1]
        labels = np.array([0, 1, 2, 3, 4, 1, 2, 1, 2])
        degenerate = degenerate_normals(w, labels)
        # each target column, plus the other duplicate for the six samples of class 1 or 2
        assert degenerate.sum() == labels.size + 6
        res = self.check(e, w, labels, LossConfig(sigma=2.0, margin=0.6))
        assert np.all(res.projections[degenerate] == 0.0)

    def test_two_collinear_classes_single_sample(self):
        # the only non-target normal is degenerate: the hinge is the constant
        # margin and the gradients are exactly those of softmax, whose
        # embedding gradient is analytically zero here (equal cosines)
        e = np.array([[0.3, -1.2, 0.5]])
        w = np.array([[1.0, 0.5], [2.0, 1.0], [-1.0, -0.5]])
        config = LossConfig(sigma=2.5, margin=0.7)
        res = self.check(e, w, [1], config, atol=1e-15)
        assert res.projections.tolist() == [[0.0, 0.0]]
        assert res.separator_loss == config.margin
        ref = compute_loss(e, w, [1], LossConfig(loss_kind=SOFTMAX, sigma=2.5))
        np.testing.assert_array_equal(res.grad_embeddings, ref.grad_embeddings)
        np.testing.assert_array_equal(res.grad_weights, ref.grad_weights)

    def test_nearly_collinear_columns_keep_projection_range(self):
        # Two class columns 1e-9 rad apart in a rotated basis: the rounding
        # of cos_t - cos_j, about 1e-16, is divided by d ~ 1e-9. Embeddings
        # along the pair's normal must still project into [-1, 1], and each
        # hinge cost stays within margin + 1.
        dim, delta, margin = 8, 1e-9, 1.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            w = np.zeros((dim, 3))
            w[0, 0], w[0, 1], w[1, 1], w[2, 2] = 1.0, math.cos(delta), math.sin(delta), 1.0
            w = basis @ w
            normal = -basis[:, 1]  # direction of w_hat_0 - w_hat_1
            e = np.stack([normal, -normal, normal + 0.3 * basis[:, 2]])
            labels = np.array([0, 1, 0])
            res = compute_loss(e, w, labels, LossConfig(sigma=3.0, margin=margin))
            for arr in (res.projections, res.grad_embeddings, res.grad_weights):
                assert np.all(np.isfinite(arr))
            assert np.all(np.abs(res.projections) <= 1.0)
            np.testing.assert_allclose(res.projections[:2, :2], [[0, 1], [1, 0]], atol=1e-6)
            costs, _ = hinge_cost(res.projections, margin, labels)
            assert np.all(costs <= margin + 1.0)
            assert res.separator_loss <= (margin + 1.0) * (w.shape[1] - 1)


class TestClosedFormMatchesDenseOracle:
    @given(
        st.integers(1, 64),
        st.integers(1, 16),
        st.integers(2, 50),
        st.integers(0, 2**32 - 1),
        st.floats(0.5, 16.0),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    # d^2 = 7.2e-4: through the Gram form this case lost 1.2e-12 of relative
    # accuracy in the weight gradient.
    @example(batch=19, dim=2, classes=2, seed=767, sigma=1.0, margin=1.0)
    def test_random_shapes(self, batch, dim, classes, seed, sigma, margin):
        rng = np.random.default_rng(seed)
        e, w, labels = random_instance(rng, batch, dim, classes)
        # Near-duplicate class directions (0 < d^2 < 1e-4) are outside the
        # claim: the cancellation in cos_t - cos_j costs about eps / d^2 of
        # relative accuracy there. Exact duplicates are covered above.
        w_hat = w / np.linalg.norm(w, axis=0)
        sq = np.sum((w_hat[:, :, None] - w_hat[:, None, :]) ** 2, axis=0)
        assume(np.all((sq == 0.0) | (sq >= 1e-4)))
        assert_matches_dense_oracle(e, w, labels, LossConfig(sigma=sigma, margin=margin))

    def test_near_collinear_pairs(self):
        # Two classes in the plane at d^2 in [1e-4, 3e-4], margin 1 so every
        # hinge is active: the gradient is a small remainder of 1 / d^2 terms,
        # and the Gram form of the kernel lost up to 3.1e-12 here.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            angle = 2.0 * math.asin(math.sqrt(rng.uniform(1e-4, 3e-4)) / 2.0)
            turns = rng.uniform(0.0, 2.0 * math.pi) + np.array([0.0, angle])
            w = np.stack([np.cos(turns), np.sin(turns)]) * rng.uniform(0.5, 2.0, size=2)
            e = rng.normal(size=(int(rng.integers(16, 33)), 2))
            labels = rng.integers(0, 2, size=e.shape[0])
            config = LossConfig(sigma=rng.uniform(0.5, 16.0), margin=1.0)
            assert_matches_dense_oracle(e, w, labels, config)


    def test_stack_with_near_pairs_matches_each_run_bitwise(self):
        # A near pair, a duplicate column and neither, in one stack: the
        # near-pair projections and pull-back keep each run's own values.
        rng = np.random.default_rng(41)
        e, w, labels = random_instance(rng, batch=12, dim=3, classes=4)
        e, w, labels = np.stack([e] * 3), np.stack([w] * 3), np.stack([labels] * 3)
        w[0, :, 1] = w[0, :, 0] + 0.01 * rng.normal(size=3)
        w[1, :, 2] = 3.0 * w[1, :, 3]
        configs = [LossConfig(sigma=s, margin=m) for s, m in [(2.0, 1.0), (4.0, 0.5), (8.0, 0.8)]]
        stacked = compute_loss(e, w, labels, LossStack.of(configs))
        for k, config in enumerate(configs):
            run = compute_loss(e[k], w[k], labels[k], config)
            assert stacked.total_loss[k] == run.total_loss
            assert stacked.separator_loss[k] == run.separator_loss
            for name in ("projections", "grad_embeddings", "grad_weights"):
                np.testing.assert_array_equal(getattr(stacked, name)[k], getattr(run, name))

    @pytest.mark.parametrize("kind", [SOFTMAX, HASEPARATOR, ARCFACE])
    def test_stack_beside_a_non_finite_run_matches_each_finite_run_bitwise(self, kind):
        # Run 0's class weights are all NaN, run 1 has a near class pair and
        # run 2 has neither: the NaN run must not hide run 1's near pair.
        rng = np.random.default_rng(43)
        e, w, labels = random_instance(rng, batch=8, dim=3, classes=4)
        e, w, labels = np.stack([e] * 3), np.stack([w] * 3), np.stack([labels] * 3)
        w[0] = np.nan
        w[1, :, 2] = w[1, :, 1] + 1e-3 * np.array([1.0, 0.0, 0.0])
        configs = [LossConfig(loss_kind=kind, sigma=s, margin=0.8) for s in (2.0, 4.0, 8.0)]
        with np.errstate(invalid="ignore"):
            stacked = compute_loss(e, w, labels, LossStack.of(configs))
        assert not np.isfinite(stacked.total_loss[0])
        for k in (1, 2):
            run = compute_loss(e[k], w[k], labels[k], configs[k])
            for name in ("total_loss", "ce_loss", "separator_loss", "projections",
                         "grad_embeddings", "grad_weights"):
                want = getattr(run, name)
                if want is not None:
                    got = np.broadcast_to(getattr(stacked, name), (3, *np.shape(want)))[k]
                    assert got.tobytes() == np.asarray(want).tobytes(), name

class TestGradientOracles:
    @pytest.mark.parametrize(
        "config",
        [
            LossConfig(loss_kind=SOFTMAX, sigma=2.0),
            LossConfig(loss_kind=HASEPARATOR, sigma=3.0, margin=0.7),
            LossConfig(loss_kind=ARCFACE, sigma=3.0, arc_margin=0.4),
        ],
        ids=[SOFTMAX, HASEPARATOR, ARCFACE],
    )
    def test_matches_finite_differences(self, config):
        for e, w, labels in smooth_instances(config, count=6, seed=10):
            res = compute_loss(e, w, labels, config)
            num_e, num_w = finite_difference_grads(e, w, labels, config)
            assert relative_error(res.grad_embeddings, num_e) < 1e-5
            assert relative_error(res.grad_weights, num_w) < 1e-5


class TestArcface:
    def test_zero_margin_is_bitwise_softmax(self):
        rng = np.random.default_rng(11)
        e, w, labels = random_instance(rng)
        arc = compute_loss(e, w, labels, LossConfig(loss_kind=ARCFACE, sigma=4.0, arc_margin=0.0))
        soft = compute_loss(e, w, labels, LossConfig(loss_kind=SOFTMAX, sigma=4.0))
        assert arc.total_loss == soft.total_loss
        np.testing.assert_array_equal(arc.logits, soft.logits)
        np.testing.assert_array_equal(arc.grad_embeddings, soft.grad_embeddings)
        np.testing.assert_array_equal(arc.grad_weights, soft.grad_weights)

    def test_exact_angle_sum(self):
        # target at 60 degrees, margin 30 degrees: shifted logit is cos 90 = 0
        e = np.array([[0.5, math.sqrt(3.0) / 2.0]])
        w = np.eye(2)
        cfg = LossConfig(loss_kind=ARCFACE, sigma=1.0, arc_margin=math.radians(30.0))
        res = compute_loss(e, w, [0], cfg)
        assert res.logits[0, 0] == pytest.approx(0.0, abs=1e-9)
        # non-target logit is the unshifted cosine
        assert res.logits[0, 1] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)

    def test_theta_capped_near_pi(self):
        e = np.array([[-1.0, 0.0]])
        w = np.eye(2)
        cfg = LossConfig(loss_kind=ARCFACE, sigma=2.0, arc_margin=0.3)
        res = compute_loss(e, w, [0], cfg)
        assert res.logits[0, 0] == pytest.approx(-2.0, abs=1e-6)
        assert np.all(np.isfinite(res.grad_embeddings))
        assert np.all(np.isfinite(res.grad_weights))

    def test_separator_loss_zero(self):
        rng = np.random.default_rng(12)
        e, w, labels = random_instance(rng)
        res = compute_loss(e, w, labels, LossConfig(loss_kind=ARCFACE, arc_margin=0.2))
        assert res.separator_loss == 0.0
        assert res.projections is None


class TestComputeLossDispatch:
    def test_routes_by_kind(self):
        rng = np.random.default_rng(13)
        e, w, labels = random_instance(rng)
        assert compute_loss(e, w, labels, LossConfig(loss_kind=SOFTMAX)).projections is None
        hasep = compute_loss(e, w, labels, LossConfig(loss_kind=HASEPARATOR))
        assert hasep.projections is not None

    def test_softmax_ignores_margin_knobs(self):
        rng = np.random.default_rng(14)
        e, w, labels = random_instance(rng)
        a = compute_loss(e, w, labels, LossConfig(loss_kind=SOFTMAX, sigma=2.0, margin=0.3))
        b = compute_loss(e, w, labels, LossConfig(loss_kind=SOFTMAX, sigma=2.0, margin=0.9))
        assert a.total_loss == b.total_loss

    def test_unknown_kind_of_a_hand_built_stack_rejected(self):
        rng = np.random.default_rng(15)
        e, w, labels = random_instance(rng)
        setting = np.full((1, 1, 1), 0.5)
        with pytest.raises(ConfigError, match="bogus"):
            compute_loss(e[None], w[None], labels[None], LossStack("bogus", setting, setting, setting))
