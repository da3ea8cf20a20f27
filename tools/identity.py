"""Bit-identity check: sha256 of everything training and inference write.

For the ``measured`` package on ``PYTHONPATH``, trains each case of a shape
and writes one sha256 per (shape, variant, frozen, mixture flag, artifact)
to JSON.  The artifacts are each trained head and ``W_S``, the history with
the best epoch and value, the ``evaluate()`` JSON, and, for variants with
dimension, unit and number heads, the records ``measured predict`` writes.
``val_joint_nll`` hashes ``training.batch_loss`` on the validation split,
the value the benchmark reports under that name.
``reloaded/W_S`` and ``reloaded/predict`` hash the same two artifacts of the
model after ``save_model`` and ``load_model``, so the checkpoint path is
covered too, and ``export`` hashes the TSV ``measured export`` writes from
the saved checkpoint.  ``<shape>/stats`` hashes the JSON ``measured stats``
writes for the shape's corpus.  ``<shape>/miss-dense-features`` hashes the
``feature_matrix`` (indices, data, indptr) that a cold encoder of the shape's
hash config builds from its test texts, each wrapped in seeded words of
random ASCII and 2- to 4-byte UTF-8 letters, so nearly every memo lookup
misses and the bench shape's batch outgrows the memo.  A shape that trains
``dim`` and ``number`` also runs
the few-shot grid (k = 5, the shape's seed); ``fewshot`` hashes each
variant and regime's row of the report with its baseline.  Two trees that
hash equal behave bit for bit the same on these cases.

Shapes: ``toy`` trains all seven variants, frozen and unfrozen, plus the
mixture read-out of ``joint`` and ``dim-number`` (synth n=700 seed 21,
2^11 x 12, batch 32, 3 epochs); ``bench`` trains ``joint`` on the benchmark
corpus at the default 2^18 x 256 (synth 2,000, ambiguity 0.3, seed 7, one
epoch).  Hashes depend on the BLAS build, so compare two trees on one host.

    PYTHONPATH=src python tools/identity.py --out before.json
    PYTHONPATH=src python tools/identity.py --compare before.json after.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from measured import data, evaluation, synth, training
from measured.cli import main as measured_main
from measured.cli import prediction_record
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.experiments import fewshot_grid, train_variant
from measured.model import VARIANT_RECORDS, VARIANTS, load_model, save_model
from measured.training import TrainConfig
from measured.units import default_registry

# the variants whose number read-out can be the dimension-mixture median
MIXTURE_VARIANTS = tuple(v.name for v in VARIANT_RECORDS.values() if v.mixture_readout)
# few-shot report rows: (variant, report table, baseline entry of that table)
# letters of the miss-dense words: ASCII, then 2-, 3- and 4-byte UTF-8
MISS_DENSE_ALPHABET = list("abcdefghijklmnopqrstuvwxyz" "éµ°ß" "€中" "𝛼😀")
MISS_DENSE_WORDS = 8  # on each side of a text
FEWSHOT_TABLES = (
    ("dim", "dimension_macro_f1", "majority"),
    ("number", "number_log_mae", "median"),
)


@dataclass(frozen=True)
class Shape:
    """One corpus, encoder size and training budget, and the cases it trains."""

    name: str
    n: int
    seed: int
    feature_dim: int
    hidden_dim: int
    batch_size: int
    epochs: int
    ambiguity: float = 0.0
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    variants: tuple[str, ...] = VARIANTS
    frozen: tuple[bool, ...] = (False, True)
    mixture: bool = True
    predict_texts: int = 200


SHAPES = {
    "toy": Shape("toy", n=700, seed=21, feature_dim=2**11, hidden_dim=12,
                 batch_size=32, epochs=3),
    "bench": Shape("bench", n=2000, seed=7, feature_dim=2**18, hidden_dim=256,
                   batch_size=200, epochs=1, ambiguity=0.3,
                   ratios=(0.2, 0.4, 0.4), variants=("joint",), frozen=(False,),
                   mixture=False),
}


def _sha(payload) -> str:
    if isinstance(payload, np.ndarray):
        head = f"{payload.dtype.str}{payload.shape}".encode()
        return hashlib.sha256(head + np.ascontiguousarray(payload).tobytes()).hexdigest()
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()


def miss_dense_texts(texts: list[str], seed: int) -> list[str]:
    """Each text between two runs of seeded random words, so few n-grams repeat."""
    rng = np.random.default_rng(seed)

    def words() -> str:
        return " ".join(
            "".join(rng.choice(MISS_DENSE_ALPHABET, size=rng.integers(1, 10)))
            for _ in range(MISS_DENSE_WORDS)
        )

    return [f"{words()} {text} {words()}" for text in texts]


def _cases(shape: Shape):
    for variant in shape.variants:
        for frozen in shape.frozen:
            yield variant, frozen, False
            if shape.mixture and variant in MIXTURE_VARIANTS:
                yield variant, frozen, True


def _key(shape: Shape, variant: str, frozen: bool, mixture: bool) -> str:
    return "/".join((
        shape.name, variant, "frozen" if frozen else "trainable",
        "mixture" if mixture else "plain",
    ))


def _predict_records(model, texts) -> list[dict]:
    """The records ``measured predict`` writes for the texts."""
    return [prediction_record(model, text) for text in texts]


def _cli_file(command: str, out: Path, *args: str) -> str:
    """The file ``measured <command> ... --out out`` writes."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = measured_main([command, *args, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"measured {command} failed: {err.getvalue()}")
    return out.read_text(encoding="utf-8")


def shape_hashes(shape: Shape) -> dict[str, str]:
    """``{"shape/variant/frozen|trainable/plain|mixture/artifact": sha256}``."""
    registry = default_registry()
    records = synth.generate_records(
        synth.SynthConfig(n_examples=shape.n, seed=shape.seed, ambiguity=shape.ambiguity),
        registry,
    )
    split = data.split(
        data.ingest(records, registry).examples, shape.ratios, shape.seed
    )
    texts = [ex.masked_text for ex in split.test][: shape.predict_texts]
    train_config = TrainConfig(batch_size=shape.batch_size, max_epochs=shape.epochs)
    out = {}
    scratch = tempfile.TemporaryDirectory()
    checkpoint = Path(scratch.name) / "model.npz"
    corpus = Path(scratch.name) / "corpus.jsonl"
    data.write_jsonl(corpus, records)
    out[f"{shape.name}/stats"] = _sha(
        _cli_file("stats", corpus.with_suffix(".json"), "--data", str(corpus))
    )
    # a one-column projection hashes like the shape's own at no memory cost
    cold = HashedNgramEncoder(EncoderConfig(feature_dim=shape.feature_dim, hidden_dim=1))
    X = cold.feature_matrix(
        miss_dense_texts([ex.masked_text for ex in split.test], shape.seed)
    )
    out[f"{shape.name}/miss-dense-features"] = _sha(
        [_sha(X.indices), _sha(X.data), _sha(X.indptr)]
    )
    for variant, frozen, mixture in _cases(shape):
        key = _key(shape, variant, frozen, mixture)
        encoder_config = EncoderConfig(
            feature_dim=shape.feature_dim, hidden_dim=shape.hidden_dim, frozen=frozen
        )
        result = train_variant(
            variant, split, registry, encoder_config, train_config, shape.seed,
            mixture_number_prediction=mixture,
        )
        model = result.model
        for name, array in sorted(model.params.items()):
            out[f"{key}/head.{name}"] = _sha(array)
        out[f"{key}/W_S"] = _sha(model.encoder.W_S)
        out[f"{key}/history"] = _sha({
            "history": result.history,
            "best_epoch": result.best_epoch,
            "best_value": result.best_value,
            "selection_metric": result.selection_metric,
        })
        out[f"{key}/val_joint_nll"] = _sha(training.batch_loss(model, split.val))
        out[f"{key}/evaluate"] = _sha(evaluation.evaluate(model, split).to_json_dict())
        full = set(VARIANT_RECORDS[variant].heads) == {"D", "U", "Y"}
        if full:
            out[f"{key}/predict"] = _sha(_predict_records(model, texts))
        del result
        save_model(model, checkpoint)
        del model  # one W_S at a time
        out[f"{key}/export"] = _sha(_cli_file(
            "export", checkpoint.with_suffix(".tsv"),
            "--checkpoint", str(checkpoint), "--data", str(corpus),
        ))
        model = load_model(checkpoint, registry)
        out[f"{key}/reloaded/W_S"] = _sha(model.encoder.W_S)
        if full:
            out[f"{key}/reloaded/predict"] = _sha(_predict_records(model, texts))
        del model
    scratch.cleanup()
    if {"dim", "number"} <= set(shape.variants):
        encoder_config = EncoderConfig(
            feature_dim=shape.feature_dim, hidden_dim=shape.hidden_dim
        )
        report = fewshot_grid(
            split, registry, encoder_config, train_config, ks=(5,), seeds=(shape.seed,)
        )
        for variant, table, baseline in FEWSHOT_TABLES:
            for regime, frozen in (("finetuned", False), ("frozen", True)):
                row = [report[table][regime], report[table][baseline]]
                out[f"{_key(shape, variant, frozen, False)}/fewshot"] = _sha(row)
    return out


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """One line per artifact whose hash differs or that only one side has."""
    lines = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            lines.append(f"only in {'B' if key not in a else 'A'}: {key}")
        elif a[key] != b[key]:
            lines.append(f"differs: {key}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shapes", default="toy,bench",
                        help=f"comma list of {', '.join(SHAPES)}")
    parser.add_argument("--out", help="write the hashes here (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="name every artifact whose hash differs between A and B")
    args = parser.parse_args(argv)
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        lines = compare(*docs)
        for line in lines:
            print(line)
        print(f"{len(lines)} of {len(set(docs[0]) | set(docs[1]))} artifacts differ")
        return 1 if lines else 0
    hashes = {}
    for name in args.shapes.split(","):
        if name not in SHAPES:
            parser.error(f"unknown shape {name!r}; choose from {', '.join(SHAPES)}")
        hashes.update(shape_hashes(SHAPES[name]))
    text = json.dumps(hashes, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
