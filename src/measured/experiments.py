"""Prepackaged experiment protocols built from the library pieces.

The few-shot grid trains the dimension classifier and the pure number
model on class-balanced subsets of k examples per dimension, once with the
encoder projection frozen at its random initialization and once trainable,
across several seeds, and reports test macro-F1 and log-mae next to the
majority/median baselines.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import mean, stdev

from measured import evaluation
from measured.data import DatasetSplit, fewshot_sample
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.model import MeasurementModel, ModelSpec
from measured.training import TrainConfig, TrainResult, train
from measured.units import UnitRegistry


def _summary(values: list[float]) -> dict:
    return {
        "mean": mean(values),
        "sd": stdev(values) if len(values) > 1 else 0.0,
        "values": values,
    }


def train_variant(
    variant: str,
    split: DatasetSplit,
    registry: UnitRegistry,
    encoder_config: EncoderConfig,
    train_config: TrainConfig,
    seed: int,
    mixture_number_prediction: bool = False,
) -> TrainResult:
    """Build and train one model; ``seed`` drives init and shuffling.  The
    config is resolved before the encoder draws ``W_S``, so a bad one fails fast."""
    spec = ModelSpec(
        variant,
        encoder_config.hidden_dim,
        mixture_number_prediction=mixture_number_prediction,
    )
    config = replace(train_config, seed=seed).resolve(encoder_config.frozen, variant)
    encoder = HashedNgramEncoder(encoder_config, seed=seed)
    model = MeasurementModel(spec, registry, encoder, seed=seed)
    return train(model, split, config)


def fewshot_grid(
    split: DatasetSplit,
    registry: UnitRegistry,
    encoder_config: EncoderConfig,
    train_config: TrainConfig,
    ks: tuple[int, ...] = (10, 40, 70, 100),
    seeds: tuple[int, ...] = (0, 1, 2),
) -> dict:
    """Frozen-vs-finetuned few-shot comparison over k examples per class.

    For each k and seed, a balanced sample of the train split feeds two
    regimes of the dimension classifier (scored by the test ``dim`` probe's
    macro-F1) and of the number model (scored by the ``num`` probe's
    log-mae), next to the :func:`~measured.evaluation.baselines` of the
    whole split.  Returns a report keyed by regime and k with per-seed
    values and mean/sd.  The config is resolved for both variants before
    any model trains, so a selection metric one cannot compute fails fast,
    as do a ``k`` below 1 and an encoder config with ``frozen`` set (the
    grid sets it for each regime).
    """
    if encoder_config.frozen:
        raise ValueError("the few-shot grid runs both regimes; pass frozen=False")
    for k in ks:
        if k < 1:
            raise ValueError(f"few-shot k must be >= 1, got {k}")
    # (report table, variant trained, probe scored, probe metric)
    tasks = (
        ("dimension_macro_f1", "dim", "dim", "macro_f1"),
        ("number_log_mae", "number", "num", "log_mae"),
    )
    for _, variant, _, _ in tasks:
        train_config.resolve(False, variant)
    base = evaluation.baselines(split, registry)
    majority = base["majority_dimension"]
    report: dict = {
        "ks": list(ks),
        "seeds": list(seeds),
        "dimension_macro_f1": {
            "finetuned": {},
            "frozen": {},
            "majority": {key: majority[key] for key in ("macro_f1", "accuracy")},
        },
        "number_log_mae": {
            "finetuned": {},
            "frozen": {},
            "median": base["median_number"]["log_mae"],
        },
    }
    for table, variant, probe, key in tasks:
        for regime, frozen in (("finetuned", False), ("frozen", True)):
            config = replace(encoder_config, frozen=frozen)
            for k in ks:
                values = []
                for seed in seeds:
                    shot = fewshot_sample(split, k, seed=seed)
                    shot_split = DatasetSplit(shot, split.val, split.test, split.seed)
                    model = train_variant(
                        variant, shot_split, registry, config, train_config, seed
                    ).model
                    probes = evaluation.evaluate(model, split, (probe,)).probes
                    values.append(probes[probe][key])
                report[table][regime][str(k)] = _summary(values)
    return report
