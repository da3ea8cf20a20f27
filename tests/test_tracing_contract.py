"""The benchmark's tracer must find every entry point it wraps.

``perfbench/tracing.py`` only reports a renamed or removed entry point as
missing, which silently zeroes that layer's span in a traced run.  This
test makes such a rename fail the test suite instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert len(tracing.TARGETS) > 0


def test_the_traced_loss_is_the_one_training_runs():
    from measured import model, training

    assert training._forward_backward is model._forward_backward


def test_feature_matrix_records_one_featurize_span_per_text():
    """The traced text and gram counts rest on one outer span per text."""
    from measured.encoding import EncoderConfig, HashedNgramEncoder, ngram_strings

    tracing = load_tracing()
    config = EncoderConfig(feature_dim=256, hidden_dim=2)
    texts = ["a beam of [#NUM] [#UNIT]", "", "a beam of [#NUM] [#UNIT]", "µm naïve"]
    encoder = HashedNgramEncoder(config)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        X = encoder.feature_matrix(texts)
    finally:
        tracer.uninstall()
    assert X.shape == (len(texts), config.feature_dim)
    m = tracing.summarize(tracer, 1.0, lambda t: ngram_strings(t, config))
    assert m["encoding.featurize_texts"] == len(texts)
    assert m["encoding.grams"] == sum(len(ngram_strings(t, config)) for t in texts)


def test_each_training_step_records_one_head_backward_and_projection_span(registry):
    """The traced per-step layers fire once per step of ``train()``."""
    from measured.data import DatasetSplit, ingest
    from measured.encoding import EncoderConfig, HashedNgramEncoder
    from measured.model import MeasurementModel, ModelSpec
    from measured.synth import SynthConfig, generate_records
    from measured.training import TrainConfig, train

    records = generate_records(SynthConfig(n_examples=60, seed=3), registry)
    examples = ingest(records, registry).examples
    data = DatasetSplit(examples[:40], examples[40:], [], 0)
    encoder = HashedNgramEncoder(EncoderConfig(feature_dim=256, hidden_dim=4), seed=0)
    model = MeasurementModel(ModelSpec("joint", 4), registry, encoder, seed=0)
    config = TrainConfig(batch_size=16, max_epochs=2, patience=2, learning_rate=1e-3)
    steps = 2 * 3  # two epochs of batches 16 + 16 + 8

    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        result = train(model, data, config)
    finally:
        tracer.uninstall()
    assert len(result.history) == 2

    def outside_validation(span):
        parent = span[3]
        while parent is not None:
            if tracer.spans[parent][0] == "training.validation":
                return False
            parent = tracer.spans[parent][3]
        return True

    names = [s[0] for s in tracer.spans if outside_validation(s)]
    assert names.count("training.head_backward") == steps
    assert names.count("encoding.projection_gradient") == steps
    assert names.count("training.adamw_step") == steps
