"""Each head runs once per encoded batch.

``evaluate``, the validation metric and ``predict`` read one
``MeasurementModel.outputs`` record, so each runs every head the variant owns
exactly once and no other head.
"""

from collections import Counter

import pytest

from measured import training
from measured.data import ingest, split
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.evaluation import evaluate
from measured.model import (
    VARIANT_RECORDS,
    VARIANTS,
    MeasurementModel,
    MissingHead,
    ModelSpec,
    batch_arrays,
)
from measured.synth import SynthConfig, generate_records
from measured.training import TrainConfig

HEAD_METHODS = {"D": "dim_logits", "U": "unit_logits", "Y": "number_locations"}
CASES = [(variant, False) for variant in VARIANTS] + [
    (v.name, True) for v in VARIANT_RECORDS.values() if v.mixture_readout
]


@pytest.fixture(scope="module")
def corpus(registry):
    records = generate_records(SynthConfig(n_examples=150, seed=5), registry)
    return split(ingest(records, registry).examples, seed=5)


@pytest.fixture
def forwards(monkeypatch):
    """Counts of each head's forward calls, by head name."""
    counts = Counter()
    for head, name in HEAD_METHODS.items():
        method = getattr(MeasurementModel, name)

        def counted(self, h, head=head, method=method):
            counts[head] += 1
            return method(self, h)

        monkeypatch.setattr(MeasurementModel, name, counted)
    return counts


def make_model(registry, variant, mixture):
    enc = HashedNgramEncoder(EncoderConfig(feature_dim=512, hidden_dim=8), seed=3)
    spec = ModelSpec(variant, 8, mixture_number_prediction=mixture)
    return MeasurementModel(spec, registry, enc, seed=3)


def once_each(model):
    return Counter({head: 1 for head in model.spec.record.heads})


@pytest.mark.parametrize("variant, mixture", CASES)
def test_evaluate_runs_each_head_once(variant, mixture, registry, corpus, forwards):
    model = make_model(registry, variant, mixture)
    evaluate(model, corpus)
    assert forwards == once_each(model)


@pytest.mark.parametrize("variant, mixture", CASES)
def test_val_metric_runs_each_head_once(variant, mixture, registry, corpus, forwards):
    model = make_model(registry, variant, mixture)
    val = list(corpus.val)
    H = model.encoder.encode_matrix(
        model.encoder.feature_matrix([ex.masked_text for ex in val])
    )
    arrays = batch_arrays(registry, val)
    for metric in ("joint-nll", "macro-f1", "log-mae"):
        try:
            TrainConfig(selection_metric=metric).resolve(False, variant)
        except ValueError:
            continue  # a metric the variant cannot compute
        forwards.clear()
        training._val_metric(model, metric, model.outputs(H), arrays)
        assert forwards == once_each(model), metric


@pytest.mark.parametrize("variant, mixture", CASES)
def test_predict_runs_each_head_once(variant, mixture, registry, forwards):
    model = make_model(registry, variant, mixture)
    h = model.encode("the bridge is [#NUM] [#UNIT] long")
    forwards.clear()
    if {"D", "U", "Y"} <= set(model.spec.record.heads):
        model.predict(h)
    else:
        with pytest.raises(MissingHead):
            model.predict(h)
    assert forwards == once_each(model)
