from dataclasses import replace

import pytest

from measured.data import DatasetSplit, fewshot_sample, ingest, split
from measured.encoding import EncoderConfig
from measured.evaluation import evaluate
from measured.experiments import fewshot_grid, train_variant
from measured.synth import SynthConfig, generate_records
from measured.training import TrainConfig

ENCODER = EncoderConfig(feature_dim=512, hidden_dim=8)
TRAIN = TrainConfig(batch_size=16, max_epochs=2, warmup_steps=5, learning_rate=5e-3)
KS = (2, 3)
SEEDS = (0, 1)


@pytest.fixture(scope="module")
def corpus(registry):
    records = generate_records(SynthConfig(n_examples=300, seed=41), registry)
    return split(ingest(records, registry).examples, seed=41)


@pytest.fixture(scope="module")
def grid(corpus, registry):
    return fewshot_grid(corpus, registry, ENCODER, TRAIN, ks=KS, seeds=SEEDS)


class TestFewshotGrid:
    def test_scores_are_the_evaluate_probes(self, grid, corpus, registry):
        """Each grid value is ``evaluate``'s probe on the same trained model."""
        for k in KS:
            for regime, frozen in (("finetuned", False), ("frozen", True)):
                config = replace(ENCODER, frozen=frozen)
                f1s, maes = [], []
                for seed in SEEDS:
                    shot = fewshot_sample(corpus, k, seed=seed)
                    shot_split = DatasetSplit(shot, corpus.val, corpus.test, corpus.seed)

                    def probe(variant, name):
                        model = train_variant(
                            variant, shot_split, registry, config, TRAIN, seed
                        ).model
                        return evaluate(model, corpus, (name,)).probes[name]

                    f1s.append(probe("dim", "dim")["macro_f1"])
                    maes.append(probe("number", "num")["log_mae"])
                assert grid["dimension_macro_f1"][regime][str(k)]["values"] == f1s
                assert grid["number_log_mae"][regime][str(k)]["values"] == maes

    def test_baselines_are_the_evaluate_baselines(self, grid, corpus, registry):
        model = train_variant("dim", corpus, registry, ENCODER, TRAIN, 0).model
        baselines = evaluate(model, corpus, ("dim",)).baselines
        majority = baselines["majority_dimension"]
        assert grid["dimension_macro_f1"]["majority"] == {
            "macro_f1": majority["macro_f1"],
            "accuracy": majority["accuracy"],
        }
        assert grid["number_log_mae"]["median"] == baselines["median_number"]["log_mae"]

    def test_report_keys(self, grid):
        assert grid["ks"] == list(KS) and grid["seeds"] == list(SEEDS)
        for table in ("dimension_macro_f1", "number_log_mae"):
            for regime in ("finetuned", "frozen"):
                assert set(grid[table][regime]) == {str(k) for k in KS}
