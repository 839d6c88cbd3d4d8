"""The benchmark's span recorder (perfbench/spans.py) wraps names that the
library's modules import from each other. A refactor that drops one of them
must fail here rather than break the benchmark."""

import importlib.util
import os

import pytest

from haseparator.losses import LOSS_KINDS, LossConfig
from haseparator.runner import DatasetConfig, ExperimentConfig, run_experiment
from haseparator.trainer import TrainConfig

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(spans):
    targets = spans.tracing_targets()
    originals = [getattr(module, attr) for module, attr, _ in targets]
    with spans.Recorder("test").patched(targets):
        pass
    assert [getattr(module, attr) for module, attr, _ in targets] == originals


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_labels_validated_once_per_loss_call(spans, kind):
    config = ExperimentConfig(
        dataset=DatasetConfig(kind="blobs", num_classes=3, per_class=20, dim=4),
        hidden_dims=(8,),
        embedding_dim=6,
        train=TrainConfig(steps=4, batch_size=16, loss=LossConfig(loss_kind=kind)),
    )
    recorder = spans.Recorder("test")
    with recorder.patched(spans.tracing_targets()):
        run_experiment(config)
    layers = spans.layer_metrics(recorder)
    # One as_labels in the loss's boundary and one in the step's accuracy.
    assert layers["tensor.as_labels.per_step"] == 2
    assert layers["tensor.as_matrix.per_step"] == 5
    assert layers[f"losses.{kind}.call_ms"] > 0
