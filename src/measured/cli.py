"""Command-line interface: ``measured <subcommand>``.

Subcommands cover the full pipeline: ``ingest`` raw records, ``synth`` a
synthetic corpus, ``stats`` a corpus, ``train`` a model variant, ``eval``
its probes, ``predict`` on new sentences, run the ``fewshot`` grid, and
``export`` hidden-vector embeddings.

Configuration precedence is flags > config file > defaults.  The config
file is flat ``key=value`` text whose keys mirror the long flag names
(without the leading dashes); unknown keys are rejected.  ``train --resume``
continues the checkpoint's model, so it rejects a model option (an encoder
flag, ``--variant`` or ``--mixture-number``) that a flag or the config file
sets to a value other than the checkpoint's.  Every random choice derives
from the single ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from measured import data as data_mod
from measured import evaluation, experiments, synth, training
from measured.encoding import EncoderConfig, export_embeddings
from measured.model import (
    MeasurementModel,
    VARIANTS,
    load_model,
    save_model,
)
from measured.units import UnitRegistry, default_registry, load_registry


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _csv_strs(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


class _Command:
    """One subcommand: its parser, handler, and coercion/default table."""

    def __init__(self, subparsers, name: str, help_: str, handler):
        self.parser = subparsers.add_parser(name, help=help_, description=help_)
        self.parser.set_defaults(_command=name)
        self.name = name
        self.handler = handler
        self.options: dict[str, tuple] = {}
        self.required: list[str] = []
        # shared flags
        self.add("registry", str, None, "registry file (default: built-in registry)")
        self.add("seed", int, 0, "master seed for all random choices")
        self.add("out", str, None, "output path (default varies by command)")
        self.add("config", str, None, "flat key=value config file")

    def add(self, name: str, coerce, default, help_: str, choices=None, required=False):
        if required:
            self.required.append(name)
        dest = name.replace("-", "_")
        kwargs = {"default": None, "help": help_, "dest": dest}
        if coerce is bool:
            self.parser.add_argument(
                f"--{name}", action="store_const", const=True, **kwargs
            )
            self.parser.add_argument(
                f"--no-{name}",
                action="store_const",
                const=False,
                dest=dest,
                help=f"negate --{name}",
            )
            self.options[name] = (_bool, default)
        else:
            if choices:
                kwargs["choices"] = choices
            self.parser.add_argument(f"--{name}", type=coerce, **kwargs)
            self.options[name] = (coerce, default)

    def run(self, args: argparse.Namespace) -> int:
        """Apply flags > config > defaults, check required options, run the handler.

        Unknown config keys are rejected.  ``args._explicit`` names the
        options a flag or the config file set.
        """
        config: dict[str, str] = {}
        config_path = getattr(args, "config", None)
        if config_path:
            config = _read_config(config_path)
            unknown = set(config) - set(self.options)
            if unknown:
                raise ValueError(
                    f"unknown config keys: {', '.join(sorted(unknown))}"
                )
        explicit = set()
        for name, (coerce, default) in self.options.items():
            dest = name.replace("-", "_")
            value = getattr(args, dest, None)
            if value is None and name in config:
                value = coerce(config[name])
            if value is None:
                value = default
            else:
                explicit.add(name)
            setattr(args, dest, value)
        args._explicit = explicit
        for name in self.required:
            if getattr(args, name.replace("-", "_")) is None:
                raise ValueError(f"--{name} is required for '{self.name}'")
        return self.handler(args)


def _read_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _load_registry(args) -> UnitRegistry:
    return load_registry(args.registry) if args.registry else default_registry()


def _open_out(path):
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


def _write_json(doc, path) -> None:
    """Indented JSON to ``path``, or to stdout when it is None."""
    with _open_out(path) as f:
        json.dump(doc, f, indent=2, ensure_ascii=False)
        f.write("\n")


def _add_encoder_options(cmd: _Command) -> None:
    cmd.add("feature-dim", int, 2**18, "hash buckets for n-gram features")
    cmd.add("hidden-dim", int, 256, "width of the encoded hidden vector")
    cmd.add("word-ngrams", _csv_ints, (1, 2), "word n-gram orders, e.g. 1,2")
    cmd.add("char-ngrams", _csv_ints, (3, 4), "character n-gram orders, e.g. 3,4")
    cmd.add("hash-seed", int, 0, "feature hashing seed")
    cmd.add("frozen", bool, False, "freeze the encoder projection (heads only)")


def _add_train_options(cmd: _Command) -> None:
    cmd.add("batch-size", int, 200, "examples per gradient step")
    cmd.add("epochs", int, 100, "maximum training epochs")
    cmd.add("lr", float, None, "learning rate (default 1e-4, or 1e-3 frozen)")
    cmd.add("warmup", int, 500, "linear warmup steps")
    cmd.add("patience", int, 5, "early-stopping patience in epochs")
    cmd.add("weight-decay", float, 0.01, "decoupled weight decay")
    cmd.add(
        "weighting",
        str,
        None,
        "cross-entropy class weighting: uniform or log-frequency "
        "(default: log-frequency when frozen)",
    )
    cmd.add(
        "selection-metric",
        str,
        None,
        "early-stopping metric: joint-nll, macro-f1, or log-mae "
        "(default: per variant)",
    )
    cmd.add("ratios", _csv_floats, (0.8, 0.1, 0.1), "train,val,test split ratios")


def _encoder_config(args, frozen: bool | None = None) -> EncoderConfig:
    names = [f.name for f in fields(EncoderConfig)]
    config = EncoderConfig(**{name: getattr(args, name) for name in names})
    return config if frozen is None else replace(config, frozen=frozen)


def _train_config(args) -> training.TrainConfig:
    return training.TrainConfig(
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        learning_rate=args.lr,
        warmup_steps=args.warmup,
        patience=args.patience,
        weight_decay=args.weight_decay,
        weighting=args.weighting,
        selection_metric=args.selection_metric,
        seed=args.seed,
    )


def _check_resume_options(args, model: MeasurementModel) -> None:
    """Reject model options given for ``--resume`` that the checkpoint contradicts."""
    stored = {
        "variant": model.spec.variant,
        "mixture-number": model.spec.mixture_number_prediction,
        **{k.replace("_", "-"): v for k, v in asdict(model.encoder.config).items()},
    }

    def shown(value):
        return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

    conflicts = []
    for name, value in stored.items():
        given = getattr(args, name.replace("-", "_"))
        if name in args._explicit and given != value:
            conflicts.append(f"--{name} {shown(given)} (checkpoint: {shown(value)})")
    if conflicts:
        raise ValueError(
            "--resume continues the checkpoint's model, which these options "
            "contradict: " + "; ".join(conflicts)
        )


def _load_examples(args, registry) -> list[data_mod.MeasurementExample]:
    """Ingest the ``--data`` file, reporting dropped records on stderr."""
    result = data_mod.ingest(data_mod.read_jsonl(args.data), registry)
    if result.drops:
        print(f"ingest drops: {dict(result.drops)}", file=sys.stderr)
    return result.examples


def _load_split(args, registry) -> data_mod.DatasetSplit:
    examples = _load_examples(args, registry)
    if not examples:
        raise ValueError(f"no usable examples in {args.data}")
    return data_mod.split(examples, tuple(args.ratios), seed=args.seed)


# -- subcommands -----------------------------------------------------------------

def cmd_ingest(args) -> int:
    registry = _load_registry(args)
    result = data_mod.ingest(data_mod.read_jsonl(args.data), registry)
    out = args.out or "canonical.jsonl"
    data_mod.write_jsonl(
        out, (data_mod.example_to_record(ex) for ex in result.examples)
    )
    summary = ", ".join(
        f"{reason}: {count}" for reason, count in sorted(result.drops.items())
    )
    print(
        f"ingest: kept {result.kept}, dropped {result.dropped}"
        + (f" ({summary})" if summary else ""),
        file=sys.stderr,
    )
    return 0


def cmd_synth(args) -> int:
    registry = _load_registry(args)
    config = synth.SynthConfig(
        n_examples=args.n,
        seed=args.seed,
        ambiguity=args.ambiguity,
        balanced=args.balanced,
    )
    records = synth.generate_records(config, registry)
    out = args.out or "synthetic.jsonl"
    n = data_mod.write_jsonl(out, records)
    print(f"synth: wrote {n} records to {out}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    registry = _load_registry(args)
    _write_json(data_mod.stats(_load_examples(args, registry)).to_json_dict(), args.out)
    return 0


def cmd_train(args) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    if args.resume and args.seeds > 1:
        raise ValueError("--resume trains a single model; drop --seeds")
    registry = _load_registry(args)
    split = _load_split(args, registry)
    train_config = _train_config(args)

    metrics = []
    first_result = None
    for i in range(args.seeds):
        seed = args.seed + i
        if args.resume:  # a single seed, so train_config.seed is already it
            model = load_model(args.resume, registry)
            _check_resume_options(args, model)
            result = training.train(model, split, train_config)
        else:
            result = experiments.train_variant(
                args.variant, split, registry, _encoder_config(args), train_config,
                seed, mixture_number_prediction=args.mixture_number,
            )
        metrics.append(result.best_value)
        if first_result is None:
            first_result = result
            if args.history:
                data_mod.write_jsonl(args.history, result.history)
        print(
            f"train[seed {seed}]: best {result.selection_metric} = "
            f"{result.best_value:.6g} at epoch {result.best_epoch}",
            file=sys.stderr,
        )

    out = args.out or "model.npz"
    save_model(first_result.model, out)
    summary = {
        "variant": first_result.model.spec.variant,
        "selection_metric": first_result.selection_metric,
        "seeds": args.seeds,
        "mean": float(np.mean(metrics)),
        "sd": float(np.std(metrics, ddof=1)) if len(metrics) > 1 else 0.0,
        "checkpoint": str(out),
    }
    print(json.dumps(summary))
    return 0


def cmd_eval(args) -> int:
    registry = _load_registry(args)
    model = load_model(args.checkpoint, registry)
    split = _load_split(args, registry)
    probes = None if args.probes == "auto" else _csv_strs(args.probes)
    doc = evaluation.evaluate(model, split, probes).to_json_dict()
    _write_json(doc, args.out)
    if args.csv_dir:
        _write_csv_tables(doc, Path(args.csv_dir))
    return 0


def _write_csv_tables(doc: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)

    def write_confusion(name: str, section: dict) -> None:
        with open(directory / f"{name}.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["gold\\pred", *section["labels"]])
            for label, row in zip(section["labels"], section["matrix"]):
                writer.writerow([label, *row])

    def write_pairs(name: str, pairs: dict) -> None:
        with open(directory / f"{name}.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["key", "value"])
            for key, value in pairs.items():
                writer.writerow([key, value])

    for probe, section in doc.get("probes", {}).items():
        if "confusion" in section:
            write_confusion(f"{probe}_confusion", section["confusion"])
        if "manhattan_histogram" in section:
            write_pairs(f"{probe}_manhattan_histogram", section["manhattan_histogram"])
        if "group_log_mae" in section:
            for group, table in section["group_log_mae"].items():
                write_pairs(f"{probe}_log_mae_by_{group}", table)
        for dim_name, sub in section.get("confusion_by_dimension", {}).items():
            write_confusion(f"{probe}_confusion_{dim_name.replace('/', '-')}", sub)


def cmd_predict(args) -> int:
    registry = _load_registry(args)
    model = load_model(args.checkpoint, registry)
    texts = []
    with open(args.input, encoding="utf-8") as lines:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            text = line
            if line.startswith("{"):
                try:
                    text = json.loads(line).get("text")
                except json.JSONDecodeError as err:
                    raise ValueError(f"{args.input}:{lineno}: {err}") from None
                if not isinstance(text, str):
                    raise ValueError(f'{args.input}:{lineno}: no "text" string')
            texts.append(text)
    # --out is opened only once every line has been read and predicted, so a
    # failed run leaves no file, or the previous one as it was
    out_lines = []
    for text in texts:
        pred = model.predict(model.encode(text))
        record = {
            "text": text,
            "dimension": pred.dimension.name,
            "unit": pred.unit.name,
            "number": pred.surface_number,
            "canonical_number": pred.canonical_number,
            "dim_probs": {
                d.name: float(p) for d, p in zip(registry.dimensions, pred.dim_probs)
            },
        }
        out_lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    with _open_out(args.out) as f:
        f.writelines(out_lines)
    return 0


def cmd_fewshot(args) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    registry = _load_registry(args)
    split = _load_split(args, registry)
    report = experiments.fewshot_grid(
        split,
        registry,
        _encoder_config(args, frozen=False),
        _train_config(args),
        ks=tuple(args.k),
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
    )
    _write_json(report, args.out)
    return 0


def cmd_export(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be >= 0")
    registry = _load_registry(args)
    model = load_model(args.checkpoint, registry)
    examples = _load_examples(args, registry)[: args.limit]
    out = args.out or "embeddings.tsv"
    n = export_embeddings(model.encoder, examples, out)
    print(f"export: wrote {n} rows to {out}", file=sys.stderr)
    return 0


# -- parser ---------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    parser = argparse.ArgumentParser(
        prog="measured",
        description="Masked measurement prediction: corpora, models, evaluation.",
    )
    subparsers = parser.add_subparsers(dest="_command", required=True)
    commands: dict[str, _Command] = {}

    def command(name: str, help_: str, handler) -> _Command:
        commands[name] = _Command(subparsers, name, help_, handler)
        return commands[name]

    cmd = command("ingest", "canonicalize raw JSONL records", cmd_ingest)
    cmd.add("data", str, None, "raw JSONL input path", required=True)

    cmd = command("synth", "generate a synthetic corpus", cmd_synth)
    cmd.add("n", int, 7000, "number of records")
    cmd.add("ambiguity", float, 0.0, "fraction of dimension-neutral sentences")
    cmd.add("balanced", bool, True, "equal examples per dimension")

    cmd = command("stats", "corpus statistics as JSON", cmd_stats)
    cmd.add("data", str, None, "JSONL input path", required=True)

    cmd = command("train", "train a model variant", cmd_train)
    cmd.add("data", str, None, "JSONL corpus path", required=True)
    cmd.add("variant", str, "joint", "model variant", choices=list(VARIANTS))
    cmd.add("history", str, None, "write per-epoch history JSONL here")
    cmd.add("seeds", int, 1, "train this many seeds and report mean/sd")
    cmd.add("resume", str, None, "checkpoint to continue; model options must match it")
    cmd.add("mixture-number", bool, False, "predict numbers via the dimension mixture")
    _add_encoder_options(cmd)
    _add_train_options(cmd)

    cmd = command("eval", "evaluate a checkpoint's probes", cmd_eval)
    cmd.add("checkpoint", str, None, "model checkpoint path", required=True)
    cmd.add("data", str, None, "JSONL corpus path", required=True)
    cmd.add("probes", str, "auto", "comma list: dim,dim-given-y,unit,num (or auto)")
    cmd.add("csv-dir", str, None, "also write per-table CSV files here")
    cmd.add("ratios", _csv_floats, (0.8, 0.1, 0.1), "train,val,test split ratios")

    cmd = command("predict", "predict measurements for masked sentences", cmd_predict)
    cmd.add("checkpoint", str, None, "model checkpoint path", required=True)
    cmd.add(
        "input",
        str,
        None,
        "sentences: JSONL with a 'text' field, or raw lines",
        required=True,
    )

    cmd = command("fewshot", "frozen-vs-finetuned few-shot grid", cmd_fewshot)
    cmd.add("data", str, None, "JSONL corpus path", required=True)
    cmd.add("k", _csv_ints, (10, 40, 70, 100), "examples per class, comma list")
    cmd.add("seeds", int, 3, "number of seeds to average")
    _add_encoder_options(cmd)
    _add_train_options(cmd)

    cmd = command("export", "export hidden vectors with labels (TSV)", cmd_export)
    cmd.add("checkpoint", str, None, "model checkpoint path", required=True)
    cmd.add("data", str, None, "JSONL corpus path", required=True)
    cmd.add("limit", int, None, "export at most this many rows")

    return parser, commands


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        return commands[args._command].run(args)
    except (ValueError, KeyError, OSError, RuntimeError) as err:
        print(f"measured: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
