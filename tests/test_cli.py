import hashlib
import json
import subprocess
import sys
import weakref

import numpy as np
import pytest

from measured.cli import build_parser, main
from measured.data import ingest, read_jsonl, split
from measured.encoding import EncoderConfig
from measured.experiments import train_variant
from measured.model import save_model
from measured.training import TrainConfig
from measured.units import default_registry


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SUBCOMMANDS = [
    "ingest", "synth", "stats", "train", "eval", "predict", "fewshot", "export",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny end-to-end workspace: corpus, checkpoint, reports."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    ckpt = root / "model.npz"
    code = main(["synth", "--out", str(corpus), "--n", "280", "--seed", "5"])
    assert code == 0
    code = main(
        [
            "train",
            "--data", str(corpus),
            "--out", str(ckpt),
            "--variant", "joint-unit",
            "--feature-dim", "1024",
            "--hidden-dim", "12",
            "--batch-size", "32",
            "--epochs", "3",
            "--warmup", "10",
            "--lr", "5e-3",
            "--history", str(root / "history.jsonl"),
            "--seed", "3",
        ]
    )
    assert code == 0
    return root


class TestHelp:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_documents_shared_flags(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--registry", "--seed", "--out", "--config"):
            assert flag in out

    def test_unknown_flag_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--frobnicate", "3"])
        assert exc.value.code == 2

    def test_every_documented_option_has_help_text(self):
        parser, commands = build_parser()
        for cmd in commands.values():
            for action in cmd.parser._actions:
                assert action.help, action.dest


class TestSynthIngestStats:
    def test_synth_deterministic_and_idempotent(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["synth", "--out", str(a), "--n", "60", "--seed", "9"]) == 0
        assert main(["synth", "--out", str(b), "--n", "60", "--seed", "9"]) == 0
        assert sha(a) == sha(b)

    def test_ingest_adds_fields_and_reports_drops(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        records = [
            {"text": "a [#NUM] [#UNIT] b", "number": 2.0, "unit": "km"},
            {"text": "a [#NUM] [#UNIT] b", "number": -5.0, "unit": "km"},
            {"text": "a [#NUM] [#UNIT] b", "number": 1.0, "unit": "wug"},
        ]
        raw.write_text("\n".join(json.dumps(r) for r in records))
        out = tmp_path / "canonical.jsonl"
        code, _, err = run(
            ["ingest", "--data", str(raw), "--out", str(out)], capsys
        )
        assert code == 0
        assert "negative: 1" in err
        assert "unknown-unit: 1" in err
        kept = list(read_jsonl(out))
        assert len(kept) == 1
        assert kept[0]["dimension"] == "length"
        assert kept[0]["canonical_number"] == 2000.0

    @pytest.mark.parametrize("command", ["stats", "ingest"])
    def test_line_that_is_not_json_is_named(self, command, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            '{"text": "a [#NUM] [#UNIT] b", "number": 2.0, "unit": "km"}\n'
            '{"text": "a [#NUM\n'
        )
        out = tmp_path / "out"
        code, _, err = run([command, "--data", str(raw), "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith(f"measured: error: {raw}:2: Unterminated string")
        assert not out.exists()

    def test_bad_registry_file_is_named(self, workdir, tmp_path, capsys):
        registry = tmp_path / "bad.txt"
        registry.write_text(
            "dim length L1 M0 T0 I0 Θ0 N0 J0\n"
            "# the canonical unit\n"
            "unit m length scale=one offset=0\n",
            encoding="utf-8",
        )
        out = tmp_path / "stats.json"
        code, stdout, err = run(
            [
                "stats",
                "--registry", str(registry),
                "--data", str(workdir / "corpus.jsonl"),
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err == f"measured: error: {registry}: line 3: bad scale/offset decimal\n"
        assert not out.exists()

    def test_stats_document(self, workdir, tmp_path, capsys):
        out = tmp_path / "stats.json"
        code, _, _ = run(
            ["stats", "--data", str(workdir / "corpus.jsonl"), "--out", str(out)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_examples"] == 280
        assert set(doc["dimension_counts"]) == {
            "length", "mass", "time", "area", "velocity", "power", "temperature",
        }


class TestTrainEval:
    def test_history_written(self, workdir):
        records = list(read_jsonl(workdir / "history.jsonl"))
        assert records
        assert set(records[0]) == {"epoch", "train_loss", "val_metric", "lr"}

    def test_train_summary_on_stdout(self, tmp_path, workdir, capsys):
        ckpt = tmp_path / "m.npz"
        code, out, _ = run(
            [
                "train",
                "--data", str(workdir / "corpus.jsonl"),
                "--out", str(ckpt),
                "--variant", "dim",
                "--feature-dim", "512",
                "--hidden-dim", "8",
                "--batch-size", "32",
                "--epochs", "2",
                "--warmup", "5",
                "--lr", "5e-3",
                "--seeds", "2",
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["seeds"] == 2
        assert "mean" in summary and "sd" in summary

    def test_train_is_train_variant_per_seed(self, tmp_path, workdir, capsys):
        """Each seed trains as ``train_variant`` does; the first seed is saved."""
        corpus, ckpt = workdir / "corpus.jsonl", tmp_path / "m.npz"
        history = tmp_path / "history.jsonl"
        code, out, _ = run(
            [
                "train",
                "--data", str(corpus),
                "--out", str(ckpt),
                "--history", str(history),
                "--feature-dim", "512",
                "--hidden-dim", "8",
                "--batch-size", "32",
                "--epochs", "2",
                "--warmup", "5",
                "--lr", "5e-3",
                "--seeds", "2",
                "--seed", "4",
            ],
            capsys,
        )
        assert code == 0
        registry = default_registry()
        corpus_split = split(ingest(read_jsonl(corpus), registry).examples, seed=4)
        encoder_config = EncoderConfig(feature_dim=512, hidden_dim=8)
        train_config = TrainConfig(
            batch_size=32, max_epochs=2, warmup_steps=5, learning_rate=5e-3
        )
        results = [
            train_variant(
                "joint", corpus_split, registry, encoder_config, train_config, seed
            )
            for seed in (4, 5)
        ]
        values = [result.best_value for result in results]
        save_model(results[0].model, tmp_path / "ref.npz")
        with np.load(ckpt) as got, np.load(tmp_path / "ref.npz") as want:
            assert sorted(got.files) == sorted(want.files)
            for name in want.files:
                assert np.array_equal(got[name], want[name]), name
        assert json.loads(out) == {
            "variant": "joint",
            "selection_metric": "joint-nll",
            "seeds": 2,
            "mean": float(np.mean(values)),
            "sd": float(np.std(values, ddof=1)),
            "checkpoint": str(ckpt),
        }
        assert list(read_jsonl(history)) == results[0].history

    def test_seeds_keep_only_the_first_model_alive(
        self, tmp_path, workdir, capsys, monkeypatch
    ):
        """While a seed trains, the only earlier model alive is the first one.

        At the default size each model holds a 512 MB ``W_S``.
        """
        from measured import cli

        models, alive = [], []
        original = cli.experiments.train_variant

        def tracked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in models))
            result = original(*args, **kwargs)
            models.append(weakref.ref(result.model))
            return result

        monkeypatch.setattr(cli.experiments, "train_variant", tracked)
        code, _, _ = run(
            [
                "train",
                "--data", str(workdir / "corpus.jsonl"),
                "--out", str(tmp_path / "m.npz"),
                "--variant", "dim",
                "--feature-dim", "512",
                "--hidden-dim", "8",
                "--batch-size", "32",
                "--epochs", "1",
                "--seeds", "4",
            ],
            capsys,
        )
        assert code == 0
        assert alive == [0, 1, 1, 1]

    def test_checkpoint_written_at_the_given_path(self, tmp_path, workdir, capsys):
        ckpt = tmp_path / "x.ckpt"
        code, out, _ = run(
            [
                "train",
                "--data", str(workdir / "corpus.jsonl"),
                "--out", str(ckpt),
                "--variant", "dim",
                "--feature-dim", "512",
                "--hidden-dim", "8",
                "--epochs", "1",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["checkpoint"] == str(ckpt)
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]
        code, _, _ = run(
            [
                "eval",
                "--checkpoint", str(ckpt),
                "--data", str(workdir / "corpus.jsonl"),
                "--out", str(tmp_path / "report.json"),
            ],
            capsys,
        )
        assert code == 0

    def test_resume_reports_the_checkpoint_variant_and_metric(
        self, tmp_path, workdir, capsys
    ):
        data = ["--data", str(workdir / "corpus.jsonl"), "--epochs", "1"]
        ckpt = tmp_path / "dim.npz"
        code, _, _ = run(
            [
                "train", *data,
                "--variant", "dim",
                "--feature-dim", "512",
                "--hidden-dim", "8",
                "--out", str(ckpt),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            ["train", *data, "--resume", str(ckpt), "--out", str(tmp_path / "r.npz")],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["variant"] == "dim"
        assert summary["selection_metric"] == "macro-f1"

    def test_resume_rejects_options_that_contradict_the_checkpoint(
        self, tmp_path, workdir, capsys
    ):
        data = ["--data", str(workdir / "corpus.jsonl"), "--epochs", "1"]
        ckpt = tmp_path / "joint.npz"
        code, _, _ = run(
            ["train", *data, "--feature-dim", "256", "--hidden-dim", "8",
             "--out", str(ckpt)],
            capsys,
        )
        assert code == 0
        resumed = tmp_path / "resumed.npz"
        resume = ["train", *data, "--resume", str(ckpt), "--out", str(resumed)]
        code, out, err = run(
            [*resume, "--feature-dim", "1024", "--hidden-dim", "16",
             "--hash-seed", "5", "--frozen", "--variant", "dim"],
            capsys,
        )
        assert code == 1 and out == ""
        for conflict in (
            "--feature-dim 1024 (checkpoint: 256)",
            "--hidden-dim 16 (checkpoint: 8)",
            "--hash-seed 5 (checkpoint: 0)",
            "--frozen True (checkpoint: False)",
            "--variant dim (checkpoint: joint)",
        ):
            assert conflict in err
        assert not resumed.exists()

        config = tmp_path / "resume.cfg"
        config.write_text("word-ngrams=1,2,3\n")
        code, _, err = run([*resume, "--config", str(config)], capsys)
        assert code == 1
        assert "--word-ngrams 1,2,3 (checkpoint: 1,2)" in err

        # options that agree with the checkpoint are fine
        code, out, err = run(
            [*resume, "--feature-dim", "256", "--variant", "joint", "--no-frozen"],
            capsys,
        )
        assert code == 0, err
        assert json.loads(out)["variant"] == "joint"

    def test_resume_with_several_seeds_fails_before_any_work(
        self, tmp_path, workdir, capsys, monkeypatch
    ):
        from measured import cli, training

        def never(*args, **kwargs):
            raise AssertionError("nothing may be loaded or trained")

        monkeypatch.setattr(training, "train", never)
        monkeypatch.setattr(cli, "load_model", never)
        out = tmp_path / "r.npz"
        code, stdout, err = run(
            [
                "train",
                "--data", str(workdir / "corpus.jsonl"),
                "--resume", str(workdir / "model.npz"),
                "--seeds", "2",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert "measured: error: --resume trains a single model; drop --seeds" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "fewshot"])
    def test_seeds_below_one_rejected(self, command, tmp_path, workdir, capsys):
        out = tmp_path / "out"
        code, stdout, err = run(
            [
                command,
                "--data", str(workdir / "corpus.jsonl"),
                "--seeds", "0",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err == "measured: error: --seeds must be >= 1\n"
        assert not out.exists()

    def test_no_ngram_order_rejected_before_training(
        self, tmp_path, workdir, capsys, monkeypatch
    ):
        from measured import experiments

        def never(*args, **kwargs):
            raise AssertionError("nothing may be trained")

        monkeypatch.setattr(experiments, "train_variant", never)
        out = tmp_path / "model.npz"
        code, stdout, err = run(
            [
                "train",
                "--data", str(workdir / "corpus.jsonl"),
                "--word-ngrams", "",
                "--char-ngrams", "",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err == (
            "measured: error: need at least one word or character n-gram order\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["joint-unit", "dim", "number", "latent-dim"])
    def test_mixture_number_rejected_where_it_does_nothing(
        self, variant, tmp_path, workdir, capsys
    ):
        out = tmp_path / "model.npz"
        code, stdout, err = run(
            [
                "train",
                "--data", str(workdir / "corpus.jsonl"),
                "--variant", variant,
                "--mixture-number",
                "--feature-dim", "256",
                "--hidden-dim", "4",
                "--epochs", "1",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err.startswith("measured: error: mixture_number_prediction")
        assert "dim-number, joint" in err and repr(variant) in err
        assert not out.exists()

    def test_eval_accepts_registry_with_added_comment(self, workdir, tmp_path, capsys):
        from importlib import resources

        text = (
            resources.files("measured")
            .joinpath("resources/default_registry.txt")
            .read_text(encoding="utf-8")
        )
        commented = tmp_path / "registry.txt"
        commented.write_text("# local copy of the default registry\n" + text)
        code, _, err = run(
            [
                "eval",
                "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "corpus.jsonl"),
                "--registry", str(commented),
                "--out", str(tmp_path / "report.json"),
            ],
            capsys,
        )
        assert code == 0, err

    def test_eval_report(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.json"
        csv_dir = tmp_path / "tables"
        code, _, _ = run(
            [
                "eval",
                "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "corpus.jsonl"),
                "--out", str(out),
                "--csv-dir", str(csv_dir),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert {"dim", "unit", "num"} <= set(doc["probes"])
        assert "majority_dimension" in doc["baselines"]
        assert (csv_dir / "dim_confusion.csv").exists()

    def test_eval_probe_subset(self, workdir, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _, _ = run(
            [
                "eval",
                "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "corpus.jsonl"),
                "--probes", "dim,num",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert "dim" in doc["probes"] and "num" in doc["probes"]
        assert "unit" not in doc["probes"]

    def test_eval_rejects_foreign_registry(self, workdir, tmp_path, capsys):
        other = tmp_path / "registry.txt"
        other.write_text(
            "dim length L1 M0 T0 I0 Θ0 N0 J0\n"
            "unit m length scale=1 offset=0\n"
        )
        code, _, err = run(
            [
                "eval",
                "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "corpus.jsonl"),
                "--registry", str(other),
            ],
            capsys,
        )
        assert code == 1
        assert "fingerprint" in err


class TestPredictExport:
    def test_predict_jsonl(self, workdir, tmp_path, capsys):
        sentences = tmp_path / "in.jsonl"
        sentences.write_text(
            json.dumps({"text": "The plant generates [#NUM] [#UNIT] for the grid ."})
            + "\n"
            + "The tower stands [#NUM] [#UNIT] tall above the plaza .\n"
        )
        out = tmp_path / "pred.jsonl"
        code, _, _ = run(
            [
                "predict",
                "--checkpoint", str(workdir / "model.npz"),
                "--input", str(sentences),
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        records = list(read_jsonl(out))
        assert len(records) == 2
        for r in records:
            assert {"text", "dimension", "unit", "number", "canonical_number"} <= set(r)
            assert r["number"] > 0
            assert abs(sum(r["dim_probs"].values()) - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "bad", [{"sentence": "a [#NUM] [#UNIT] b"}, {"text": 3}, '{"text": "a'],
    )
    def test_predict_names_the_bad_input_line(self, bad, workdir, tmp_path, capsys):
        sentences = tmp_path / "in.jsonl"
        bad_line = bad if isinstance(bad, str) else json.dumps(bad)
        sentences.write_text(f"The tower stands [#NUM] [#UNIT] tall .\n\n{bad_line}\n")
        out = tmp_path / "pred.jsonl"
        argv = [
            "predict",
            "--checkpoint", str(workdir / "model.npz"),
            "--input", str(sentences),
            "--out", str(out),
        ]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith(f"measured: error: {sentences}:3: ")
        assert not out.exists()
        out.write_bytes(b"earlier run\n")
        assert run(argv, capsys)[0] == 1
        assert out.read_bytes() == b"earlier run\n"

    def test_export_reports_dropped_records(self, workdir, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        kept = (workdir / "corpus.jsonl").read_text().splitlines()[:3]
        negative = {"text": "a [#NUM] [#UNIT] b", "number": -5.0, "unit": "km"}
        corpus.write_text("\n".join([*kept, json.dumps(negative)]) + "\n")
        out = tmp_path / "emb.tsv"
        code, _, err = run(
            [
                "export",
                "--checkpoint", str(workdir / "model.npz"),
                "--data", str(corpus),
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "ingest: kept 3, dropped 1 (negative: 1)\n" in err
        assert len(out.read_text().splitlines()) == 1 + len(kept)

    def test_export_tsv(self, workdir, tmp_path, capsys):
        out = tmp_path / "emb.tsv"
        code, _, _ = run(
            [
                "export",
                "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "corpus.jsonl"),
                "--out", str(out),
                "--limit", "10",
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 11
        header = lines[0].split("\t")
        assert header[-3:] == ["dimension", "unit", "exponent_bin"]
        assert header[0] == "h_0" and header[11] == "h_11"

    @pytest.mark.parametrize("limit", [0, 3])
    def test_export_limit_counts_rows(self, limit, workdir, tmp_path, capsys):
        out = tmp_path / "emb.tsv"
        code, _, _ = run(
            [
                "export",
                "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "corpus.jsonl"),
                "--out", str(out),
                "--limit", str(limit),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + limit
        assert lines[0].startswith("h_0\t")

    def test_export_negative_limit_rejected(self, workdir, tmp_path, capsys):
        out = tmp_path / "emb.tsv"
        code, _, err = run(
            [
                "export",
                "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "corpus.jsonl"),
                "--out", str(out),
                "--limit", "-5",
            ],
            capsys,
        )
        assert code == 1
        assert err == "measured: error: --limit must be >= 0\n"
        assert not out.exists()


class TestFewshot:
    def test_tiny_grid_shape(self, workdir, tmp_path, capsys):
        out = tmp_path / "fewshot.json"
        code, _, _ = run(
            [
                "fewshot",
                "--data", str(workdir / "corpus.jsonl"),
                "--k", "3,5",
                "--seeds", "1",
                "--feature-dim", "512",
                "--hidden-dim", "8",
                "--batch-size", "16",
                "--epochs", "2",
                "--warmup", "5",
                "--lr", "5e-3",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        for table in ("dimension_macro_f1", "number_log_mae"):
            for regime in ("finetuned", "frozen"):
                assert set(doc[table][regime]) == {"3", "5"}
                for cell in doc[table][regime].values():
                    assert {"mean", "sd", "values"} <= set(cell)
        assert "majority" in doc["dimension_macro_f1"]
        assert "median" in doc["number_log_mae"]


    def test_frozen_is_not_an_option(self, workdir, tmp_path, capsys):
        """The grid always runs both regimes, so ``frozen`` is refused."""
        corpus = str(workdir / "corpus.jsonl")
        with pytest.raises(SystemExit) as exc:
            main(["fewshot", "--data", corpus, "--frozen"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --frozen" in capsys.readouterr().err
        config = tmp_path / "run.conf"
        config.write_text("frozen=true\n")
        out = tmp_path / "fewshot.json"
        code, stdout, err = run(
            ["fewshot", "--data", corpus, "--config", str(config), "--out", str(out)],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err == "measured: error: unknown config keys: frozen\n"
        assert not out.exists()

    def test_bad_selection_metric_fails_before_any_training(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        """macro-f1 suits ``dim`` but not ``number``: no ``dim`` model trains."""
        from measured import experiments

        calls = []
        train_variant = experiments.train_variant

        def spy(*args, **kwargs):
            calls.append(args)
            return train_variant(*args, **kwargs)

        monkeypatch.setattr(experiments, "train_variant", spy)
        out = tmp_path / "fewshot.json"
        code, stdout, err = run(
            [
                "fewshot",
                "--data", str(workdir / "corpus.jsonl"),
                "--selection-metric", "macro-f1",
                "--k", "5",
                "--seeds", "2",
                "--feature-dim", "256",
                "--hidden-dim", "4",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err == (
            "measured: error: variant 'number' has no supervised D for macro-f1\n"
        )
        assert calls == []
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("n=30\nseed=4\n")
        a = tmp_path / "a.jsonl"
        code, _, _ = run(
            ["synth", "--config", str(config), "--out", str(a)], capsys
        )
        assert code == 0
        assert len(list(read_jsonl(a))) == 30

        b = tmp_path / "b.jsonl"
        code, _, _ = run(
            ["synth", "--config", str(config), "--n", "44", "--out", str(b)],
            capsys,
        )
        assert code == 0
        assert len(list(read_jsonl(b))) == 44

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("wibble=1\n")
        code, _, err = run(
            ["synth", "--config", str(config), "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 1
        assert "wibble" in err

    def test_boolean_config_value(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("balanced=false\nn=40\n")
        out = tmp_path / "c.jsonl"
        code, _, _ = run(
            ["synth", "--config", str(config), "--out", str(out), "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert len(list(read_jsonl(out))) == 40


class TestInstalledEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "measured.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "measured" in proc.stdout
