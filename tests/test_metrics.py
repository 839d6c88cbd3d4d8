import json
import math
import re
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haseparator import metrics
from haseparator.errors import ConfigError, LabelError
from haseparator.metrics import (
    PAIR_CHUNK,
    AngleHistograms,
    DiscriminationScores,
    accuracy,
    build_histograms,
    emd_1d,
    kl_divergence,
    pair_angles,
    unit_rows,
    write_histogram_csv,
    write_scores_json,
)
from haseparator.tensor import normalize
from helpers import loop_pair_angles, merged_rank_sample, transport_cost

counts_strategy = st.lists(st.integers(0, 50), min_size=2, max_size=16)


def hist_from_counts(pos, neg, span=180.0):
    pos = np.asarray(pos, dtype=np.int64)
    neg = np.asarray(neg, dtype=np.int64)
    edges = np.linspace(0.0, span, pos.size + 1)
    return AngleHistograms(
        bin_edges=edges,
        pos_counts=pos,
        neg_counts=neg,
        pos_total=int(pos.sum()),
        neg_total=int(neg.sum()),
    )


class TestPairAngles:
    def test_identical_vectors_zero_degrees(self):
        e = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        pos, _ = pair_angles(e, [0, 0, 1])
        assert pos[0] == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_ninety_degrees(self):
        e = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        _, neg = pair_angles(e, [0, 0, 1, 1])
        np.testing.assert_allclose(neg, 90.0, atol=1e-9)

    def test_opposite_one_eighty(self):
        e = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        _, neg = pair_angles(e, [0, 0, 1, 1])
        np.testing.assert_allclose(neg, 180.0, atol=1e-9)

    def test_all_angles_in_range(self):
        rng = np.random.default_rng(0)
        e = rng.normal(size=(40, 6))
        labels = rng.integers(0, 4, size=40)
        pos, neg = pair_angles(e, labels)
        for arr in (pos, neg):
            assert np.all(arr >= 0.0) and np.all(arr <= 180.0)

    def test_exact_pair_counts_without_sampling(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=25)
        e = rng.normal(size=(25, 4))
        pos, neg = pair_angles(e, labels)
        sizes = [int(np.sum(labels == c)) for c in range(3)]
        expected_pos = sum(n * (n - 1) // 2 for n in sizes)
        assert len(pos) == expected_pos
        assert len(neg) == 25 * 24 // 2 - expected_pos

    def test_zero_rows_excluded_with_warning(self):
        e = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        labels = [0, 0, 1, 1, 0]
        with pytest.warns(UserWarning, match="2 zero embeddings"):
            pos, neg = pair_angles(e, labels)
        assert len(pos) == 1  # rows 0 and 4 remain in class 0
        assert len(neg) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rows_rejected_not_dropped_as_zero(self, bad):
        e = np.array([[1.0, 0.0], [bad, 0.0], [0.0, 1.0], [0.0, bad], [1.0, 1.0]])
        with pytest.raises(ConfigError, match="2 embeddings are non-finite"):
            pair_angles(e, [0, 0, 1, 1, 0])

    def test_sampling_caps_counts_and_is_deterministic(self):
        rng = np.random.default_rng(2)
        e = rng.normal(size=(60, 5))
        labels = rng.integers(0, 3, size=60)
        pos_a, neg_a = pair_angles(e, labels, max_pairs_per_kind=50, seed=42)
        pos_b, neg_b = pair_angles(e, labels, max_pairs_per_kind=50, seed=42)
        assert len(pos_a) == len(neg_a) == 50
        np.testing.assert_array_equal(pos_a, pos_b)
        np.testing.assert_array_equal(neg_a, neg_b)
        pos_c, _ = pair_angles(e, labels, max_pairs_per_kind=50, seed=43)
        assert not np.array_equal(pos_a, pos_c)

    def test_sampled_angles_are_a_subset_of_full_enumeration(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        pos_full, neg_full = pair_angles(e, labels)
        pos_s, neg_s = pair_angles(e, labels, max_pairs_per_kind=20, seed=5)
        for sample, full in ((pos_s, pos_full), (neg_s, neg_full)):
            full_sorted = np.sort(full)
            idx = np.searchsorted(full_sorted, sample)
            assert np.allclose(full_sorted[np.clip(idx, 0, full_sorted.size - 1)], sample)

    def test_sampling_agrees_with_brute_force_pair_space(self):
        # cap equal to the space size must reproduce the full enumeration
        rng = np.random.default_rng(4)
        e = rng.normal(size=(20, 3))
        labels = rng.integers(0, 2, size=20)
        pos_full, neg_full = pair_angles(e, labels)
        brute_pos = []
        brute_neg = []
        unit = e / np.linalg.norm(e, axis=1, keepdims=True)
        for i, j in combinations(range(20), 2):
            angle = math.degrees(math.acos(max(-1.0, min(1.0, float(unit[i] @ unit[j])))))
            (brute_pos if labels[i] == labels[j] else brute_neg).append(angle)
        np.testing.assert_allclose(np.sort(pos_full), np.sort(brute_pos), atol=1e-9)
        np.testing.assert_allclose(np.sort(neg_full), np.sort(brute_neg), atol=1e-9)

    def test_rows_whose_squared_norm_overflows_keep_their_direction(self):
        e = np.array([[1e200, 0.0], [1e200, 1e200], [0.0, 1.0], [-1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pos, neg = pair_angles(e, [0, 0, 1, 1])
        np.testing.assert_allclose(pos, [45.0, 45.0], atol=1e-9)
        np.testing.assert_allclose(neg, [90.0, 135.0, 45.0, 90.0], atol=1e-9)

    def test_unit_rows_rescales_only_rows_whose_norm_overflows(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(8, 4))
        scaled = rows * np.array([2.0**1000, 1.0] * 4)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit, norms = unit_rows(scaled)
        assert np.isinf(norms[::2]).all() and np.isfinite(norms[1::2]).all()
        assert unit[1::2].tobytes() == normalize(rows[1::2], -1)[0].tobytes()
        np.testing.assert_allclose(unit[::2], normalize(rows[::2], -1)[0], rtol=0, atol=1e-15)

    def test_empty_labels_rejected_as_label_error(self):
        with pytest.raises(LabelError, match="non-empty"):
            pair_angles(np.ones((3, 2)), [])

    def test_single_class_has_no_negatives(self):
        with pytest.raises(ConfigError):
            pair_angles(np.eye(3), [0, 0, 0])

    def test_singleton_classes_have_no_positives(self):
        with pytest.raises(ConfigError):
            pair_angles(np.eye(3), [0, 1, 2])


class TestPairAnglesMatchLoopOracle:
    """Vectorized unranking against the per-class loops, bit for bit."""

    @given(
        counts=st.lists(st.integers(0, 7), min_size=2, max_size=9),
        zero_rows=st.integers(0, 3),
        cap=st.integers(1, 60),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    # The iid-draw branch of the rank sampler needs more than 1e6 pairs.
    @example(counts=[1500, 1500], zero_rows=2, cap=1000, data_seed=0, seed=0)
    @example(counts=[0, 2, 0, 1, 3], zero_rows=0, cap=1, data_seed=1, seed=1)
    @settings(max_examples=300, deadline=None)
    def test_same_angles_as_loop_oracle(self, counts, zero_rows, cap, data_seed, seed):
        # Class ids with a count of 0 are absent, a count of 1 is a singleton.
        rng = np.random.default_rng(data_seed)
        labels = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        if labels.size == 0:
            return
        e = rng.normal(size=(labels.size, 3))
        e[rng.permutation(labels.size)[:zero_rows]] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                expected = loop_pair_angles(e, labels, cap, seed)
            except ConfigError as err:
                with pytest.raises(ConfigError, match=re.escape(str(err))):
                    pair_angles(e, labels, max_pairs_per_kind=cap, seed=seed)
                return
            got = pair_angles(e, labels, max_pairs_per_kind=cap, seed=seed)
        for actual, reference in zip(got, expected):
            assert actual.dtype == reference.dtype
            assert actual.tobytes() == reference.tobytes()


class TestPairAngleChunks:
    """Cosines computed chunk by chunk: exact across chunk edges, bounded memory."""

    @pytest.mark.parametrize(
        "counts, cap",
        [
            ([120, 120, 120], 10_000),  # both kinds sampled by partial permutation
            ([120, 120, 120], 50_000),  # every pair of both kinds
            ([1500, 1500], 9_000),  # more than 1e6 pairs: the iid-draw sampler
        ],
    )
    def test_chunk_edges_match_loop_oracle(self, counts, cap):
        rng = np.random.default_rng(sum(counts) + cap)
        labels = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        e = rng.normal(size=(labels.size, 5))
        expected = loop_pair_angles(e, labels, cap, seed=cap)
        got = pair_angles(e, labels, max_pairs_per_kind=cap, seed=cap)
        for actual, reference in zip(got, expected):
            assert actual.size > 2 * PAIR_CHUNK and actual.size % PAIR_CHUNK
            assert actual.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 1024, 4096])
    @pytest.mark.parametrize(
        "counts, cap",
        [
            ([30, 30, 30], 500),  # partial permutation
            ([1500, 1500], 300),  # more than 1e6 pairs: the iid-draw sampler
        ],
    )
    def test_chunk_size_does_not_reach_the_output(self, monkeypatch, chunk, counts, cap):
        # The angles are computed in rank order and put back in sample order.
        monkeypatch.setattr(metrics, "PAIR_CHUNK", chunk)
        rng = np.random.default_rng(sum(counts) + cap)
        labels = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        e = rng.normal(size=(labels.size, 5))
        expected = loop_pair_angles(e, labels, cap, seed=cap)
        got = pair_angles(e, labels, max_pairs_per_kind=cap, seed=cap)
        for actual, reference in zip(got, expected):
            assert actual.tobytes() == reference.tobytes()

    def test_memory_does_not_grow_with_the_pair_cap(self):
        # Gathering both rows of all 200 000 pairs at once traces ~227 MB, and
        # unranking every pair before the chunked gathers ~31 MiB; unranking
        # each chunk just before its gather traced 19.6 MiB. With one array
        # per round of the iid-draw sampler and the positive ranks dropped
        # before the negatives are scored, it traced ~14.8 MiB, and with two
        # 0.5 MiB gather buffers of 1024 rows in place of 2 MiB ones ~13.5 MiB.
        rng = np.random.default_rng(8)
        e = rng.normal(size=(8000, 64))
        labels = np.repeat(np.arange(50), 160)
        tracemalloc.start()
        try:
            pair_angles(e, labels, max_pairs_per_kind=200_000, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14.5 * 2**20


class RepeatingRng:
    """A Generator whose integers() gives each draw four times in a row, so
    that a round of the iid-draw sampler finds too few distinct ranks and
    draws again. It counts those calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.calls = 0

    def integers(self, low, high, size):
        self.calls += 1
        return np.repeat(self._rng.integers(low, high, size=-(-size // 4)), 4)[:size]

    def permutation(self, n):
        return self._rng.permutation(n)


class TestRankSampler:
    """The rank sampler against the merged-round reference: the same ranks
    and the same rng state after the call."""

    @given(
        total=st.one_of(st.integers(1, 5000), st.integers(1_000_001, 10**12)),
        cap=st.integers(1, 6000),
        seed=st.integers(0, 2**32 - 1),
        repeating=st.booleans(),
    )
    @example(total=1_000_000, cap=1000, seed=0, repeating=False)  # the largest permutation
    @example(total=1_000_001, cap=1000, seed=0, repeating=True)  # the smallest iid draw
    @example(total=40, cap=40, seed=0, repeating=False)  # every rank
    @settings(max_examples=200, deadline=None)
    def test_same_ranks_and_rng_state_as_reference(self, total, cap, seed, repeating):
        rng, reference = (
            (RepeatingRng(seed), RepeatingRng(seed)) if repeating
            else (np.random.default_rng(seed), np.random.default_rng(seed))
        )
        got = metrics._pair_rank_sample(total, cap, rng)
        want = merged_rank_sample(total, cap, reference)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_repeated_draws_take_more_rounds(self):
        rng, reference = RepeatingRng(5), RepeatingRng(5)
        got = metrics._pair_rank_sample(10**9, 5000, rng)
        assert rng.calls >= 2
        assert got.tobytes() == merged_rank_sample(10**9, 5000, reference).tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state


class TestBuildHistograms:
    def test_all_zero_angles_fill_first_bin(self):
        h = build_histograms([0.0, 0.0, 0.0], [90.0], num_bins=180)
        assert h.pos_counts[0] == 3 and h.pos_counts[1:].sum() == 0

    def test_exact_180_lands_in_final_bin(self):
        h = build_histograms([180.0], [0.0], num_bins=180)
        assert h.pos_counts[-1] == 1

    def test_totals_match_counts(self):
        rng = np.random.default_rng(5)
        h = build_histograms(rng.uniform(0, 180, 100), rng.uniform(0, 180, 50), num_bins=18)
        assert h.pos_counts.sum() == h.pos_total == 100
        assert h.neg_counts.sum() == h.neg_total == 50

    def test_empty_angles_rejected(self):
        with pytest.raises(ValueError):
            build_histograms([], [90.0])

    def test_too_few_bins_rejected(self):
        with pytest.raises(ConfigError):
            build_histograms([0.0], [90.0], num_bins=1)

    def test_uniform_angles_give_roughly_uniform_counts(self):
        rng = np.random.default_rng(6)
        n, bins = 36_000, 18
        h = build_histograms(rng.uniform(0, 180, n), rng.uniform(0, 180, n), num_bins=bins)
        expected = n / bins
        sd = math.sqrt(n * (1 / bins) * (1 - 1 / bins))
        assert np.all(np.abs(h.pos_counts - expected) < 5 * sd)


class TestKlDivergence:
    def test_identical_histograms_zero(self):
        h = hist_from_counts([5, 3, 2], [5, 3, 2])
        assert kl_divergence(h) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_point_masses_closed_form(self):
        counts_pos = np.zeros(180, dtype=int)
        counts_neg = np.zeros(180, dtype=int)
        counts_pos[0] = 7
        counts_neg[90] = 4
        h = hist_from_counts(counts_pos, counts_neg)
        eps = 1e-10
        z = 1.0 + 180 * eps
        one = (1.0 + eps) / z
        tiny = eps / z
        expected = one * math.log(one / tiny) + tiny * math.log(tiny / one)
        assert kl_divergence(h) == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance_of_counts(self):
        a = hist_from_counts([4, 1, 5], [2, 2, 6])
        b = hist_from_counts([8, 2, 10], [1, 1, 3])
        assert kl_divergence(a) == pytest.approx(kl_divergence(b), rel=1e-12)

    @given(counts_strategy, counts_strategy)
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, pos, neg):
        size = min(len(pos), len(neg))
        pos, neg = pos[:size], neg[:size]
        if sum(pos) == 0 or sum(neg) == 0:
            return
        assert kl_divergence(hist_from_counts(pos, neg)) >= -1e-12


class TestEmd1d:
    def test_identical_histograms_zero(self):
        h = hist_from_counts([1, 2, 3], [1, 2, 3])
        assert emd_1d(h) == 0.0

    def test_point_masses_at_zero_and_ninety(self):
        counts_pos = np.zeros(180, dtype=int)
        counts_neg = np.zeros(180, dtype=int)
        counts_pos[0] = 10
        counts_neg[90] = 10
        assert emd_1d(hist_from_counts(counts_pos, counts_neg)) == pytest.approx(90.0, abs=1e-9)

    def test_symmetry(self):
        h = hist_from_counts([5, 0, 2, 1], [1, 3, 0, 4])
        swapped = hist_from_counts([1, 3, 0, 4], [5, 0, 2, 1])
        assert emd_1d(h) == pytest.approx(emd_1d(swapped), abs=1e-12)

    def test_bounded_by_span(self):
        h = hist_from_counts([9, 0, 0, 0], [0, 0, 0, 9])
        assert emd_1d(h) <= 180.0

    def test_matches_transport_lp_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            bins = int(rng.integers(2, 17))
            pos = rng.integers(0, 20, size=bins)
            neg = rng.integers(0, 20, size=bins)
            if pos.sum() == 0 or neg.sum() == 0:
                continue
            h = hist_from_counts(pos, neg)
            expected = transport_cost(
                pos / pos.sum(), neg / neg.sum(), h.bin_centers
            )
            assert emd_1d(h) == pytest.approx(expected, abs=1e-9)
            checked += 1

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            emd_1d(hist_from_counts([0, 0], [1, 1]))


class TestAccuracy:
    def test_one_hot_logits(self):
        logits = np.eye(3)
        assert accuracy(logits, [0, 1, 2]) == 1.0

    def test_anti_aligned(self):
        logits = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, [0, 1]) == 0.0

    def test_tie_breaks_to_lowest_index(self):
        logits = np.zeros((4, 3))
        assert accuracy(logits, [0, 0, 0, 0]) == 1.0
        assert accuracy(logits, [1, 1, 1, 1]) == 0.0

    def test_fraction(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, [0, 1, 1, 0]) == 0.75


class TestExports:
    def test_histogram_csv_round_trip(self, tmp_path):
        h = build_histograms([0.0, 45.0, 90.1], [120.0, 179.0, 180.0], num_bins=18)
        path = tmp_path / "hist.csv"
        write_histogram_csv(h, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_start_deg,bin_end_deg,pos_count,neg_count"
        assert len(lines) == 19
        pos = [int(line.split(",")[2]) for line in lines[1:]]
        neg = [int(line.split(",")[3]) for line in lines[1:]]
        assert pos == h.pos_counts.tolist()
        assert neg == h.neg_counts.tolist()

    def test_scores_json_round_trip(self, tmp_path):
        scores = DiscriminationScores(d_kl=1.5, d_em=42.25, accuracy=0.9)
        path = tmp_path / "scores.json"
        write_scores_json(scores, path)
        loaded = json.loads(path.read_text())
        assert loaded == {"d_kl": 1.5, "d_em": 42.25, "accuracy": 0.9}
