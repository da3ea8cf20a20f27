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
