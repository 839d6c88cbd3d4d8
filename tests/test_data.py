import math
import os
import re
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from haseparator.cli import main
from haseparator.data import (
    ROW_CHUNK,
    Dataset,
    gaussian_blobs,
    load_delimited,
    save_delimited,
    split_dataset,
    standardize,
    two_rings,
)
from haseparator.errors import (
    ConfigError,
    DataFormatError,
    LabelError,
    NonNumericCellError,
    RaggedRowError,
)
from haseparator.losses import LOSS_KINDS
from haseparator.metrics import (
    AngleHistograms,
    DiscriminationScores,
    write_histogram_csv,
    write_scores_json,
)
from haseparator.model import MlpModel, load_checkpoint, save_checkpoint
from haseparator.runner import SweepRecord, read_sweep_csv, write_embeddings_csv, write_sweep_csv
from haseparator.trainer import TrainReport, write_report_csv
from helpers import (
    assert_embeddings_npz,
    per_value_save_checkpoint,
    per_value_save_delimited,
    per_value_write_histogram_csv,
    per_value_write_report_csv,
    per_value_write_scores_json,
    per_value_write_sweep_csv,
    per_row_load_delimited,
)

# Signed zero, subnormals, the ends of the float range and integral values,
# each of which the 17-digit text must round-trip exactly.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308,
               3.0, -42.0, 2.0**53 + 2, 1e16, 0.1]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# What a sweep row or a scores file may also hold: nan and the infinities.
any_floats = st.one_of(st.sampled_from([*EDGE_FLOATS, math.nan, math.inf, -math.inf]), st.floats())
# Text with every character that csv must quote: commas, quotes, CR and LF.
csv_text = st.one_of(st.text(st.sampled_from(list('a\u00e9 ,"\r\n:'))), st.text())


def float_table(rows, cols):
    return arrays(np.float64, (rows, cols), elements=floats)


class TestDataset:
    def test_validates_label_range(self):
        with pytest.raises(LabelError):
            Dataset(np.ones((2, 2)), [0, 5], num_classes=2)

    def test_length_and_dim(self):
        d = Dataset(np.ones((3, 4)), [0, 1, 0], num_classes=2)
        assert len(d) == 3 and d.dim == 4


class TestGaussianBlobs:
    def test_zero_stddev_puts_points_on_centers(self):
        train, test = gaussian_blobs(3, 10, 2, center_radius=2.0, stddev=0.0, seed=0)
        for data in (train, test):
            radii = np.linalg.norm(data.features, axis=1)
            np.testing.assert_allclose(radii, 2.0, atol=1e-12)

    def test_same_seed_identical(self):
        a_train, a_test = gaussian_blobs(3, 8, 4, seed=5)
        b_train, b_test = gaussian_blobs(3, 8, 4, seed=5)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    def test_centers_evenly_spaced_in_2d(self):
        train, test = gaussian_blobs(3, 50, 2, center_radius=1.0, stddev=0.0, seed=1)
        feats = np.vstack([train.features, test.features])
        labels = np.concatenate([train.labels, test.labels])
        centers = np.array([feats[labels == c][0] for c in range(3)])
        angles = np.degrees(np.arctan2(centers[:, 1], centers[:, 0]))
        gaps = np.sort((angles - angles[0]) % 360.0)
        np.testing.assert_allclose(gaps, [0.0, 120.0, 240.0], atol=1e-9)

    def test_split_sizes_and_disjoint_labels(self):
        train, test = gaussian_blobs(4, 20, 3, seed=2)
        assert len(train) == 4 * 16 and len(test) == 4 * 4
        for c in range(4):
            assert np.sum(train.labels == c) == 16
            assert np.sum(test.labels == c) == 4

    def test_counts_validated(self):
        with pytest.raises(ConfigError):
            gaussian_blobs(1, 10, 2)
        with pytest.raises(ConfigError):
            gaussian_blobs(3, 1, 2)


class TestTwoRings:
    def test_zero_noise_exact_radii(self):
        train, test = two_rings(20, noise=0.0, seed=3)
        for data in (train, test):
            radii = np.linalg.norm(data.features, axis=1)
            inner = radii[data.labels == 0]
            outer = radii[data.labels == 1]
            np.testing.assert_allclose(inner, 1.0, atol=1e-12)
            np.testing.assert_allclose(outer, 2.0, atol=1e-12)

    def test_label_balance_exact(self):
        train, test = two_rings(25, seed=4)
        labels = np.concatenate([train.labels, test.labels])
        assert np.sum(labels == 0) == 25 and np.sum(labels == 1) == 25

    def test_deterministic(self):
        a, _ = two_rings(10, seed=6)
        b, _ = two_rings(10, seed=6)
        np.testing.assert_array_equal(a.features, b.features)


class TestSplit:
    def test_split_is_disjoint_and_covers(self):
        full = Dataset(np.arange(40.0).reshape(20, 2), [i % 2 for i in range(20)], 2)
        train, test = split_dataset(full, seed=7)
        key = lambda d: {tuple(row) for row in d.features}
        assert key(train) & key(test) == set()
        assert key(train) | key(test) == key(full)

    def test_split_deterministic(self):
        full = Dataset(np.arange(40.0).reshape(20, 2), [i % 2 for i in range(20)], 2)
        a, _ = split_dataset(full, seed=8)
        b, _ = split_dataset(full, seed=8)
        np.testing.assert_array_equal(a.features, b.features)


class TestStandardize:
    def test_mean_zero_unit_variance(self):
        rng = np.random.default_rng(9)
        out = standardize(rng.normal(3.0, 5.0, size=(200, 4)))
        assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-9)

    def test_constant_column_maps_to_zeros(self):
        features = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        out = standardize(features)
        assert not out[:, 0].any()


class TestLoadDelimited:
    def test_round_trip_pre_standardization(self, tmp_path):
        rng = np.random.default_rng(10)
        original = Dataset(rng.normal(size=(12, 3)), rng.integers(0, 3, size=12), 3)
        path = tmp_path / "data.csv"
        save_delimited(original, path)
        loaded = load_delimited(path)
        assert loaded.features.tobytes() == standardize(original.features).tobytes()
        assert loaded.labels.tobytes() == original.labels.tobytes()

    def test_standardized_by_default(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,10.0,0\n2.0,20.0,1\n3.0,30.0,0\n4.0,40.0,1\n")
        loaded = load_delimited(path)
        assert np.all(np.abs(loaded.features.mean(axis=0)) < 1e-9)
        np.testing.assert_allclose(loaded.features.var(axis=0), 1.0, atol=1e-9)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_delimited(tmp_path / "absent.csv")

    def test_non_utf8_file_names_path(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe" + "1,2,0\n3,4,1\n".encode("utf-16-le"))
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            load_delimited(path)
        code = main(["train", "--dataset", f"file:{path}", "--steps", "2",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:")

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,0\n1,2,3,0\n")
        with pytest.raises(RaggedRowError):
            load_delimited(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1,2,0\n1,oops,1\n")
        with pytest.raises(NonNumericCellError):
            load_delimited(path)

    def test_whitespace_padded_cells_parse_to_the_same_bits(self, tmp_path):
        rng = np.random.default_rng(11)
        original = Dataset(rng.normal(size=(9, 3)), rng.integers(0, 3, size=9), 3)
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        save_delimited(original, plain)
        padded.write_text("".join(
            ",".join(f" \t{cell} " for cell in line.split(",")) + "\n"
            for line in plain.read_text().splitlines()
        ))
        a, b = load_delimited(plain), load_delimited(padded)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.features.tobytes() == standardize(original.features).tobytes()
        assert a.labels.tolist() == b.labels.tolist()

    def test_non_numeric_cell_names_path_and_row(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1,2,0\n 3 , oops ,1\n")
        with pytest.raises(NonNumericCellError, match=re.escape(f"{path}: row 2: ")):
            load_delimited(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_the_row(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1,2,0\n3,{cell},1\n")
        with pytest.raises(NonNumericCellError, match="row 2"):
            load_delimited(path)

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("1,2,0.5\n3,4,1\n")
        with pytest.raises(NonNumericCellError):
            load_delimited(path)

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1,2,-1\n3,4,0\n")
        with pytest.raises(NonNumericCellError):
            load_delimited(path)

    @pytest.mark.parametrize("cell", ["1000.004", "2.00001"])
    def test_near_integer_label_rejected(self, tmp_path, cell):
        # A relative tolerance, as np.allclose's default, rounds these to classes 1000 and 2.
        path = tmp_path / "near.csv"
        path.write_text(f"1,2,{cell}\n" + "3,4,0\n" * 1001)
        with pytest.raises(NonNumericCellError, match=re.escape(f"{path}: ") + ".*not integral"):
            load_delimited(path)

    def test_integer_labels_written_as_floats_load(self, tmp_path):
        path = tmp_path / "floats.csv"
        path.write_text("1,2,3.0\n3,4,0\n5,6,1e0\n7,8,2\n")
        assert load_delimited(path).labels.tolist() == [3, 0, 1, 2]

    def test_label_not_below_the_row_count_rejected(self, tmp_path, capsys):
        # A label of 10**12 would ask for a 10**12-column head and stall the
        # stratified split, which walks every class id up to the largest.
        path = tmp_path / "big.csv"
        path.write_text("1,2,0\n3,4,1\n5,6,1000000000000\n")
        with pytest.raises(NonNumericCellError,
                           match=re.escape(f"{path}: class label 1000000000000 ") + ".* 3 data rows"):
            load_delimited(path)
        code = main(["train", "--dataset", f"file:{path}", "--steps", "2",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: class label")

    def test_header_line_is_a_non_numeric_first_row(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x,y,label\n1,2,0\n3,4,1\n")
        with pytest.raises(NonNumericCellError, match=re.escape(f"{path}: row 1: ")):
            load_delimited(path)

    def test_comment_only_file_has_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# features, then a label\n\n   \n  # indented\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RaggedRowError, match=re.escape(f"{path}: no data rows")):
                load_delimited(path)

    @pytest.mark.parametrize("column", [
        # The sum overflows: the column standardized to nan, and training on
        # it diverged at step 0.
        np.random.default_rng(15).uniform(1e308, 1.7e308, 40),
        # The sum is finite but the squares overflow: the column
        # standardized to all zeros.
        np.array([1.5e308, -1.5e308, 1e308, -1e308, 0.5, 0.25]),
    ], ids=["sum", "squares"])
    def test_column_that_overflows_when_standardized_rejected(self, tmp_path, capsys, column):
        rows = column.size
        features = np.column_stack([column, np.arange(rows) * 0.5])
        path = tmp_path / "huge.csv"
        save_delimited(Dataset(features, np.arange(rows) % 2, 2), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonNumericCellError, match=re.escape(f"{path}: column 0 ")):
                load_delimited(path)
            code = main(["train", "--dataset", f"file:{path}", "--steps", "2",
                         "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: column 0 ")


# Cell texts beside %.17g floats: ones float() and numpy's reader both take,
# ones only float() takes (digit underscores, non-ASCII digits) and ones
# neither takes.
ODD_CELLS = [" +1e5 ", "1_000", "infinity", "nan", "", "0x10", "\u0661\u0662"]
LABEL_CELLS = ["0", "1", " 2 ", "1.0", "1_0", "\u0661", "nan", "-1", ""]
# What now and then ends a row: a trailing comma or a "#" inside the row.
ROW_ENDS = [",", " # note", "#"]
NON_DATA_LINES = ["", "   ", "\t", "# comment", "  # indented comment"]


def _rarely(draw, odd, usual):
    """One draw from `odd` about one time in eight, else from `usual`, so
    that most small tables still load."""
    return draw(st.sampled_from(odd) if draw(st.integers(0, 7)) == 0 else usual)


@st.composite
def mixed_table_text(draw):
    """The text of a small table whose cells mix %.17g floats with odd cell
    texts, with ragged rows, row ends, blank lines and comment lines."""
    width = draw(st.integers(1, 4))
    # Magnitudes whose sums and squares stay finite: the overflow rule is
    # tested on its own.
    float_text = st.floats(-1e150, 1e150).map("%.17g".__mod__)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        lines.extend(draw(st.lists(st.sampled_from(NON_DATA_LINES), max_size=2)))
        cells = _rarely(draw, range(1, 6), st.just(width))
        row = [_rarely(draw, ODD_CELLS, float_text) for _ in range(cells - 1)]
        row.append(_rarely(draw, LABEL_CELLS, st.sampled_from(["0", "1"])))
        lines.append(",".join(row) + _rarely(draw, ROW_ENDS, st.just("")))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + ending for line in lines)


class TestLoaderMatchesPerRowReference:
    """One numpy read with a per-row fallback against the per-row float()
    loader: the same table bits, or the same error type and message."""

    @given(text=mixed_table_text())
    @settings(max_examples=300, deadline=None)
    def test_same_table_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("mixed") / "data.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            want = per_row_load_delimited(path)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as raised:
                load_delimited(path)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            return
        got = load_delimited(path)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.num_classes == want.num_classes


def chunk_table(seed=12):
    """A table two ROW_CHUNK blocks and 7 rows long, so every chunk edge is crossed."""
    rng = np.random.default_rng(seed)
    rows = 2 * ROW_CHUNK + 7
    return Dataset(rng.normal(size=(rows, 4)), rng.integers(0, 5, size=rows), 5)


class TestChunkEdges:
    """The chunked loader and writers across ROW_CHUNK boundaries."""

    def test_writers_bytes_and_read_back_bits(self, tmp_path):
        data = chunk_table()
        save_delimited(data, tmp_path / "new.csv")
        per_value_save_delimited(data, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        loaded = load_delimited(tmp_path / "new.csv")
        assert loaded.features.tobytes() == standardize(data.features).tobytes()
        assert loaded.labels.tobytes() == data.labels.tobytes()

    @pytest.mark.parametrize("cell, error", [
        ("oops", NonNumericCellError), ("nan", NonNumericCellError), ("1,2", RaggedRowError),
    ])
    def test_bad_cell_in_the_last_chunk_names_its_data_row(self, tmp_path, cell, error):
        path = tmp_path / "data.csv"
        save_delimited(chunk_table(), path)
        lines = path.read_text().splitlines(keepends=True)
        bad = 2 * ROW_CHUNK + 3  # 0-based data row inside the last, partial chunk
        lines[bad] = f"{cell},{lines[bad].split(',', 1)[1]}"
        # A comment and a blank line are not data rows.
        path.write_text("# comment\n\n" + "".join(lines))
        with pytest.raises(error, match=rf"{re.escape(str(path))}: row {bad + 1}\b"):
            load_delimited(path)

    def test_bytes_not_utf8_after_the_first_chunk_name_the_path(self, tmp_path):
        path = tmp_path / "data.csv"
        save_delimited(chunk_table(), path)
        text = path.read_bytes().split(b"\n")
        text[ROW_CHUNK + 5] = b"\xff\xfe" + text[ROW_CHUNK + 5]
        path.write_bytes(b"\n".join(text))
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: not UTF-8 text")):
            load_delimited(path)


class TestFilePathMemory:
    """Tracemalloc peaks of the file path follow its arrays, not its text."""

    def test_load_does_not_hold_the_text(self, tmp_path):
        # A 3.1 MB file of 5000 x 33 cells parses to a 1.3 MB table. Holding
        # every line and every parsed row as Python objects traced 14.2 MiB;
        # streaming it in ROW_CHUNK blocks traces 5.0 MiB.
        rng = np.random.default_rng(13)
        path = tmp_path / "data.csv"
        save_delimited(Dataset(rng.normal(size=(5000, 32)), np.arange(5000) % 50, 50), path)
        tracemalloc.start()
        try:
            load_delimited(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_fallback_load_does_not_hold_the_text(self, tmp_path):
        # The same table with one "1_000" cell, which numpy refuses and
        # float() takes, in its last row: numpy reads the whole table before
        # it fails, then the per-row fallback reads it again. A whole-table
        # list of Python floats traced 7.0 MiB; float64 blocks of ROW_CHUNK
        # rows trace 3.6 MiB.
        rng = np.random.default_rng(13)
        path = tmp_path / "data.csv"
        save_delimited(Dataset(rng.normal(size=(5000, 32)), np.arange(5000) % 50, 50), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[-1] = "1_000," + lines[-1].split(",", 1)[1]
        path.write_text("".join(lines))
        tracemalloc.start()
        try:
            loaded = load_delimited(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.features.shape == (5000, 32)
        assert peak < 5 * 2**20

    def test_save_delimited_does_not_hold_the_table_as_floats(self):
        # 8000 x 64 embeddings (4 MB): one tolist() of the whole table traced
        # 16.2 MiB; formatting ROW_CHUNK rows at a time traces 2.1 MiB.
        rng = np.random.default_rng(14)
        table = Dataset(rng.normal(size=(8000, 64)), np.repeat(np.arange(50), 160), 50)
        tracemalloc.start()
        try:
            save_delimited(table, os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestTextTables:
    """Row-at-a-time writers give the per-value writers' bytes and round-trip;
    the embeddings .npz, which holds the same tables, repeats its bytes and
    round-trips."""

    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_delimited_and_embeddings_bytes(self, tmp_path_factory, data, rows, cols):
        out = tmp_path_factory.mktemp("rows")
        features = data.draw(float_table(rows, cols))
        # The loader takes class ids below the number of data rows only.
        labels = data.draw(arrays(np.int64, rows, elements=st.integers(0, rows - 1)))
        dataset = Dataset(features, labels, rows)
        save_delimited(dataset, out / "new.csv")
        per_value_save_delimited(dataset, out / "old.csv")
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
        with np.errstate(over="ignore", invalid="ignore"):
            overflows = not np.isfinite(features.var(axis=0)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if not overflows:
                loaded = load_delimited(out / "new.csv")
                assert loaded.features.tobytes() == standardize(features).tobytes()
                assert loaded.labels.tobytes() == labels.tobytes()
            else:  # edge floats whose column sum or squares overflow float64
                with pytest.raises(NonNumericCellError,
                                   match=re.escape(f"{out / 'new.csv'}: column ")):
                    load_delimited(out / "new.csv")

        write_embeddings_csv(features, labels, out / "emb.npz")
        write_embeddings_csv(features, labels, out / "again.npz")
        assert (out / "emb.npz").read_bytes() == (out / "again.npz").read_bytes()
        assert_embeddings_npz(out / "emb.npz", features, labels)

    @given(data=st.data(), dims=st.lists(st.integers(1, 4), min_size=2, max_size=4),
           num_classes=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_checkpoint_bytes(self, tmp_path_factory, data, dims, num_classes):
        out = tmp_path_factory.mktemp("checkpoint")
        pairs = list(zip(dims[:-1], dims[1:]))
        model = MlpModel(
            tuple(dims),
            [data.draw(float_table(a, b)) for a, b in pairs],
            [data.draw(float_table(1, b)).reshape(-1) for _, b in pairs],
            data.draw(float_table(dims[-1], num_classes)),
        )
        save_checkpoint(model, out / "new.txt")
        per_value_save_checkpoint(model, out / "old.txt")
        assert (out / "new.txt").read_bytes() == (out / "old.txt").read_bytes()
        loaded = load_checkpoint(out / "new.txt")
        assert loaded.layer_dims == model.layer_dims
        for got, want in zip(loaded.weights + loaded.biases + [loaded.class_weights],
                             model.weights + model.biases + [model.class_weights]):
            assert got.tobytes() == want.tobytes()

    @given(data=st.data(), bins=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_histogram_bytes(self, tmp_path_factory, data, bins):
        out = tmp_path_factory.mktemp("hist")
        counts = arrays(np.int64, bins, elements=st.integers(0, 2**40))
        pos, neg = data.draw(counts), data.draw(counts)
        h = AngleHistograms(data.draw(float_table(1, bins + 1)).reshape(-1), pos, neg)
        write_histogram_csv(h, out / "new.csv")
        per_value_write_histogram_csv(h, out / "old.csv")
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

    @given(steps=st.lists(st.tuples(*[st.floats()] * 5), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_report_bytes(self, tmp_path_factory, steps):
        out = tmp_path_factory.mktemp("report")
        report = TrainReport(np.array(steps, dtype=np.float64).reshape(-1, 5), final_model=None)
        write_report_csv(report, out / "new.csv")
        per_value_write_report_csv(report, out / "old.csv")
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

    @given(records=st.lists(st.builds(
        SweepRecord,
        loss_kind=st.one_of(st.sampled_from(LOSS_KINDS), csv_text),
        sigma=any_floats, margin=any_floats, seed=st.integers(),
        accuracy=any_floats, d_kl=any_floats, d_em=any_floats, final_c_t=any_floats,
        wall_time_s=any_floats, error=csv_text,
    ), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_sweep_bytes(self, tmp_path_factory, records):
        out = tmp_path_factory.mktemp("sweep")
        write_sweep_csv(records, out / "new.csv")
        per_value_write_sweep_csv(records, out / "old.csv")
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
        loaded = read_sweep_csv(out / "new.csv")
        assert [repr(astuple(r)) for r in loaded] == [repr(astuple(r)) for r in records]

    @given(values=st.tuples(any_floats, any_floats, any_floats))
    @settings(max_examples=100, deadline=None)
    def test_scores_bytes(self, tmp_path_factory, values):
        out = tmp_path_factory.mktemp("scores")
        scores = DiscriminationScores(*values)
        write_scores_json(scores, out / "new.json")
        per_value_write_scores_json(scores, out / "old.json")
        assert (out / "new.json").read_bytes() == (out / "old.json").read_bytes()
