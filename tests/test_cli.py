import csv

import pytest

from haseparator.cli import main, parse_config_file
from haseparator.runner import read_sweep_csv

TINY = [
    "--dataset", "blobs", "--num-classes", "3", "--per-class", "20", "--dim", "4",
    "--hidden-dims", "8", "--embedding-dim", "6", "--steps", "30",
    "--batch-size", "16",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfigFile:
    def test_comments_blanks_and_whitespace(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\n  steps = 30  # trailing\nsigma=2.5\n")
        assert parse_config_file(path) == {"steps": "30", "sigma": "2.5"}

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps=30\njusttext\n")
        with pytest.raises(Exception, match=":2:"):
            parse_config_file(path)


class TestTrain:
    def test_writes_artifacts_and_reports_scores(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            ["train", *TINY, "--loss", "softmax", "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "train: accuracy" in stdout and "test: accuracy" in stdout
        for name in ("checkpoint.txt", "report.csv", "scores_test.json",
                     "hist_train.csv", "embeddings_test.csv", "config.txt"):
            assert (out / name).exists()

    def test_missing_out_is_a_user_error(self, capsys):
        code, _, stderr = run_cli(["train", *TINY], capsys)
        assert code == 2
        assert stderr.startswith("error:")
        assert "--out" in stderr

    def test_unknown_loss_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--loss", "hinge", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_steps_and_epochs_together_rejected(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["train", *TINY, "--epochs", "2", "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "steps" in stderr and "epochs" in stderr

    def test_file_dataset_kind(self, tmp_path, capsys):
        import numpy as np

        from haseparator.data import Dataset, save_delimited

        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(40, 3)), rng.integers(0, 2, size=40), 2, "all")
        csv_path = tmp_path / "points.csv"
        save_delimited(data, csv_path)
        code, stdout, _ = run_cli(
            ["train", "--dataset", f"file:{csv_path}", "--hidden-dims", "8",
             "--embedding-dim", "4", "--steps", "20", "--loss", "softmax",
             "--out", str(tmp_path / "run")],
            capsys,
        )
        assert code == 0
        assert "test: accuracy" in stdout


class TestConfigFile:
    def test_flags_override_file_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "dataset=blobs\nnum-classes=3\nper-class=20\ndim=4\n"
            "hidden-dims=8\nembedding-dim=6\nsteps=30\nbatch-size=16\n"
            "loss=softmax\nsigma=2.0\n"
        )
        out = tmp_path / "run"
        code, _, _ = run_cli(
            ["train", "--config", str(cfg), "--sigma", "4.0", "--out", str(out)],
            capsys,
        )
        assert code == 0
        echo = dict(
            line.split("=", 1) for line in (out / "config.txt").read_text().splitlines()
        )
        assert float(echo["train.loss.sigma"]) == 4.0
        assert echo["train.loss.loss_kind"] == "softmax"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stepz=30\n")
        code, _, stderr = run_cli(
            ["train", "--config", str(cfg), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "unknown config keys" in stderr and "stepz" in stderr

    def test_bad_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=soon\n")
        code, _, stderr = run_cli(
            ["train", "--config", str(cfg), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "steps" in stderr


class TestEval:
    def train_once(self, tmp_path, capsys, seed="3"):
        out = tmp_path / "trained"
        args = ["train", *TINY, "--loss", "softmax", "--sigma", "2.5",
                "--seed", seed, "--out", str(out)]
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        return out

    def test_reproduces_training_evaluation_exactly(self, tmp_path, capsys):
        trained = self.train_once(tmp_path, capsys)
        out = tmp_path / "reeval"
        code, _, _ = run_cli(
            ["eval", "--checkpoint", str(trained / "checkpoint.txt"),
             "--dataset", "blobs", "--num-classes", "3", "--per-class", "20",
             "--dim", "4", "--seed", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        for name in ("scores_train.json", "scores_test.json",
                     "hist_test.csv", "embeddings_test.csv"):
            assert (out / name).read_bytes() == (trained / name).read_bytes()

    def test_dimension_mismatch_reported(self, tmp_path, capsys):
        trained = self.train_once(tmp_path, capsys)
        code, _, stderr = run_cli(
            ["eval", "--checkpoint", str(trained / "checkpoint.txt"),
             "--dataset", "blobs", "--num-classes", "3", "--per-class", "20",
             "--dim", "5", "--out", str(tmp_path / "bad")],
            capsys,
        )
        assert code == 2
        assert "input dim" in stderr

    def test_class_count_mismatch_reported(self, tmp_path, capsys):
        trained = self.train_once(tmp_path, capsys)
        code, _, stderr = run_cli(
            ["eval", "--checkpoint", str(trained / "checkpoint.txt"),
             "--dataset", "blobs", "--num-classes", "4", "--per-class", "20",
             "--dim", "4", "--out", str(tmp_path / "bad")],
            capsys,
        )
        assert code == 2
        assert "classes" in stderr

    def test_corrupt_checkpoint_reported(self, tmp_path, capsys):
        bad = tmp_path / "checkpoint.txt"
        bad.write_text("not a checkpoint\n")
        code, _, stderr = run_cli(
            ["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert stderr.startswith("error:")

    def test_missing_checkpoint_reported(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["eval", "--checkpoint", str(tmp_path / "absent.txt"),
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2


class TestSweep:
    SWEEP = ["sweep", *TINY, "--loss", "softmax,haseparator", "--sigma", "3.0",
             "--margin", "0.4,0.8", "--num-seeds", "2", "--seed", "5",
             "--jobs", "1"]

    def test_grid_written_with_derived_seeds(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, stdout, _ = run_cli([*self.SWEEP, "--out", str(out)], capsys)
        assert code == 0
        assert "8 rows" in stdout
        records = read_sweep_csv(out / "sweep.csv")
        assert len(records) == 2 * 1 * 2 * 2
        assert {r.seed for r in records} == {5, 6}
        assert (out / "config.txt").exists()
        assert all(r.error == "" for r in records)

    def test_rerun_identical_except_wall_time(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli([*self.SWEEP, "--out", str(out_a)], capsys)[0] == 0
        assert run_cli([*self.SWEEP, "--out", str(out_b)], capsys)[0] == 0
        with open(out_a / "sweep.csv") as fa, open(out_b / "sweep.csv") as fb:
            rows_a, rows_b = list(csv.DictReader(fa)), list(csv.DictReader(fb))
        assert len(rows_a) == len(rows_b)
        for row_a, row_b in zip(rows_a, rows_b):
            row_a.pop("wall_time_s")
            row_b.pop("wall_time_s")
            assert row_a == row_b

    def test_failed_cells_reported_on_stderr(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["sweep", *TINY, "--loss", "haseparator", "--margin", "0.5,1.5",
             "--jobs", "1", "--out", str(tmp_path / "sweep")],
            capsys,
        )
        assert code == 0
        assert "1 runs failed" in stderr
