"""The benchmark's workloads, their seeded inputs and their correctness checks.

Each workload runs repetitions until its time is spent.  A repetition does
the whole job a user would run once, so its timings are end-to-end numbers;
the run reports medians over repetitions and checks that repeated work gives
bit-identical results, which the package promises for a fixed seed.

* ``train-finetune``: ``train()`` of the ``joint`` variant with the default
  encoder (2^18 x 256, trainable ``W_S``) and default ``TrainConfig`` for a
  fixed epoch budget, then ``evaluate()``.  Dense AdamW over ``W_S`` dominates.
* ``predict-novel``: a saved default ``joint`` checkpoint serving text whose
  n-grams rarely repeat, in process and through ``measured predict``.

Every workload also evaluates its model and serves single-text predictions,
so every end-to-end metric exists on every workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import measured.model
from measured import cli, data, evaluation, synth, training
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.model import MeasurementModel, ModelSpec
from measured.units import default_registry

# End-to-end metrics: (name, unit).  Names and units match BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("eval_s", "s"),
    ("predict_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("val_joint_nll", "log10"),
    ("test_log_mae", "log10"),
)

# Per-layer metrics from the traced run: (name, unit).
PER_LAYER = (
    ("synth.generate_s", "s"),
    ("data.ingest_s", "s"),
    ("encoding.init_s", "s"),
    ("model.load_s", "s"),
    ("encoding.featurize_s", "s"),
    ("encoding.featurize_texts", "count"),
    ("encoding.grams", "count"),
    ("encoding.unique_gram_share", "ratio"),
    ("encoding.encode_matrix_s", "s"),
    ("encoding.encode_matrix_calls", "count"),
    ("encoding.projection_gradient_s", "s"),
    ("encoding.ws_rows_touched_per_step", "count"),
    ("training.train_s", "s"),
    ("training.train_self_s", "s"),
    ("training.adamw_step_s", "s"),
    ("training.steps", "count"),
    ("training.adamw_bytes_per_step", "B"),
    ("training.head_backward_s", "s"),
    ("training.adamw_share", "ratio"),
    ("training.featurize_encode_share", "ratio"),
    ("model.head_forward_s", "s"),
    ("model.predict_s", "s"),
    ("serve.request_s", "s"),
    ("serve.featurize_share", "ratio"),
    ("evaluation.evaluate_s", "s"),
    ("evaluation.evaluate_self_s", "s"),
    ("cli.predict_self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.missing_spans", "count"),
)


@dataclass(frozen=True)
class Sizes:
    corpus: int = 2000
    # a small train split keeps default-config finetuning (about 3 s per
    # step of dense AdamW) to 2 steps, so about four repetitions fit in a
    # run and every phase is sampled across it; large val/test splits keep
    # quality steady across seeds
    ratios: tuple[float, float, float] = (0.2, 0.4, 0.4)
    epochs: int = 1
    requests: int = 500  # closed-loop single-text predictions per repetition
    # training must lower the val joint NLL at least this much, about 40% of
    # the smallest drop seen over ten seeds (2.5e-5; toy: 2.3e-6)
    val_drop: float = 1e-5
    cli_lines: int = 1000  # lines per `measured predict` invocation
    context_words: int = 7  # random words on each side of a novel sentence
    feature_dim: int = EncoderConfig.feature_dim
    hidden_dim: int = EncoderConfig.hidden_dim


FULL = Sizes()
TOY = Sizes(corpus=120, ratios=(0.5, 0.25, 0.25), epochs=2, requests=20, cli_lines=30,
            val_drop=1e-6, feature_dim=2**10, hidden_dim=8)

AMBIGUITY = 0.3
# set-up and evaluate() are short, so each repetition times them this many
# times, and the run reports the slowest of all those samples
PHASE_SAMPLES = 2
CHECK_SAMPLE = 50  # CLI records compared against in-process predictions
WARM_UP_REQUESTS = 20
IDLE_ROWS = 4096  # W_S rows no batch touches, checked to move by weight decay at most
BATCH = training.TrainConfig.batch_size


def _now() -> float:
    return time.perf_counter()


def records_sha256(records: list[dict]) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True, ensure_ascii=False).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def novel_records(records: list[dict], seed: int, words_per_side: int) -> list[dict]:
    """Wrap each sentence in random-letter words, so most n-grams are unseen.

    The words come from the benchmark's own generator (not the package's
    seeding), so the inputs stay fixed when the package changes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6E6F76656C]))
    n_words = 2 * words_per_side * len(records)
    lengths = rng.integers(3, 9, size=n_words)
    letters = rng.integers(0, 26, size=int(lengths.sum())) + ord("a")
    chars = letters.astype(np.uint8).tobytes().decode("ascii")
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    words = [chars[bounds[i] : bounds[i + 1]] for i in range(n_words)]
    out = []
    for i, record in enumerate(records):
        w = words[2 * words_per_side * i : 2 * words_per_side * (i + 1)]
        before = " ".join(w[:words_per_side])
        after = " ".join(w[words_per_side:])
        out.append(dict(record, text=f"{before} {record['text']} {after}"))
    return out


def _prediction_key(pred) -> tuple:
    return (
        pred.dimension.name,
        pred.unit.name,
        pred.canonical_number,
        pred.surface_number,
        tuple(float(p) for p in pred.dim_probs),
    )


@dataclass
class TrainingReference:
    """The untrained model's state, against which a trained one is checked.

    ``rows`` are the ``W_S`` rows the training batches touch and
    ``idle_rows`` a sample of those they never touch.  ``lrs`` is the
    learning rate of every step of the budget.
    """

    val_loss: float
    rows: np.ndarray
    idle_rows: np.ndarray
    W_rows: np.ndarray
    W_idle: np.ndarray
    heads: dict
    lrs: list
    weight_decay: float


def check_training(ref: TrainingReference, model) -> list[str]:
    """What is wrong with the parameters of ``model`` after training.

    Dense AdamW and lazy (row-sparse) AdamW both pass.  Adam moves every
    parameter with a gradient by about the learning rate per step, and never
    by much more, while weight decay alone moves one by ``wd * lr * |p|``.
    So every head and every touched ``W_S`` row must move by at least half
    the smallest step and at most twice the summed steps, beyond decay.  An
    untouched row may move by decay only.
    """
    W = model.encoder.parameters()["W_S"]
    params = model.trainable_parameters()
    least, most = 0.5 * min(ref.lrs), 2.0 * sum(ref.lrs)
    decay = ref.weight_decay * sum(ref.lrs)

    def step(now, before):  # movement beyond what weight decay allows
        return np.abs(now - before) - decay * np.abs(before)

    problems = []
    moved = step(W[ref.rows], ref.W_rows)
    still = int(np.sum(moved.max(axis=1) < least))
    if still:
        problems.append(f"{still} of {len(ref.rows)} touched W_S rows took no AdamW step")
    if moved.max() > most:
        problems.append(f"W_S moved {moved.max():.3g}, more than AdamW's {most:.3g}")
    slack = 4 * np.spacing(np.abs(ref.W_idle))
    drifted = int(np.sum((step(W[ref.idle_rows], ref.W_idle) > slack).any(axis=1)))
    if drifted:
        problems.append(f"{drifted} untouched W_S rows moved beyond weight decay")
    for name, before in ref.heads.items():
        moved = step(params[name], before).max()
        if not least <= moved <= most:
            problems.append(f"head {name} moved {moved:.3g}, outside [{least:.3g}, {most:.3g}]")
    return problems


@dataclass
class Rep:
    """Timings and outcomes of one repetition.

    ``setup_s`` and ``eval_s`` hold one sample per set-up and ``evaluate()``.
    """

    traced: bool = False
    wall_s: float = 0.0
    setup_s: list = field(default_factory=list)
    throughput_per_s: float = 0.0
    eval_s: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    predictions: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)


class Workload:
    """Inputs prepared once per run, plus one repetition of the job."""

    def __init__(self, name: str, seed: int, sizes: Sizes, workdir: Path):
        self.name, self.seed, self.sizes, self.workdir = name, seed, sizes, workdir
        self.registry = default_registry()
        self.encoder_config = EncoderConfig(
            feature_dim=sizes.feature_dim, hidden_dim=sizes.hidden_dim
        )
        self.synth_config = synth.SynthConfig(
            n_examples=sizes.corpus, seed=seed, ambiguity=AMBIGUITY
        )
        self.epochs = sizes.epochs
        records = synth.generate_records(self.synth_config, self.registry)
        if name == "predict-novel":
            records = novel_records(records, seed, sizes.context_words)
        self.corpus_sha256 = records_sha256(records)
        self.texts = [r["text"] for r in records]
        split = data.split(data.ingest(records, self.registry).examples, sizes.ratios, seed)
        # requests go to text the model never trained on
        self.request_texts = [ex.masked_text for ex in (*split.val, *split.test)][: sizes.requests]
        if name == "predict-novel":
            self.split = split
            self._prepare_serving(records)
            model = measured.model.load_model(self.checkpoint, self.registry)
        else:
            model = self._new_model()
            self.reference = self._training_reference(model, split)
        self._warm_up(model, split)

    def _new_model(self) -> MeasurementModel:
        encoder = HashedNgramEncoder(self.encoder_config, seed=self.seed)
        return MeasurementModel(
            ModelSpec("joint", self.encoder_config.hidden_dim),
            self.registry, encoder, seed=self.seed,
        )

    def _train_config(self) -> training.TrainConfig:
        # patience above the budget: every repetition runs every epoch
        return training.TrainConfig(
            max_epochs=self.epochs, patience=self.epochs + 1, seed=self.seed
        )

    def _training_reference(self, model, split) -> TrainingReference:
        """Untimed: the untrained model's state, for :func:`check_training`."""
        config = self._train_config().resolve(frozen=False, variant="joint")
        X = model.encoder.feature_matrix([ex.masked_text for ex in split.train])
        rows = np.unique(X.indices)
        idle = np.setdiff1d(np.arange(self.encoder_config.feature_dim), rows)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x69646C65]))
        idle = np.sort(rng.choice(idle, size=min(IDLE_ROWS, len(idle)), replace=False))
        W = model.encoder.parameters()["W_S"]
        steps = self.epochs * math.ceil(len(split.train) / config.batch_size)
        return TrainingReference(
            val_loss=training.batch_loss(model, split.val),
            rows=rows, idle_rows=idle, W_rows=W[rows], W_idle=W[idle],
            heads={
                name: p.copy() for name, p in model.trainable_parameters().items()
                if not name.startswith("encoder.")
            },
            lrs=[training.lr_at(t, config) for t in range(1, steps + 1)],
            weight_decay=config.weight_decay,
        )

    def _warm_up(self, model, split) -> None:
        """Untimed: run the job's parts once, so the first repetition pays no
        one-time cost that later ones skip.  Besides first calls, that is the
        kernel's first supply of the memory training allocates: on a 2-vCPU VM
        the first finetune ``train()`` of a process took 10.3 s against 7.0 s,
        6.2 s of it in the kernel against 3.3 s."""
        if self.name != "predict-novel":
            training.train(model, split, self._train_config())
        evaluation.evaluate(model, split)
        for text in self.request_texts[:WARM_UP_REQUESTS]:
            model.predict(model.encode(text))

    def _prepare_serving(self, records: list[dict]) -> None:
        """Untimed: save a default-config joint checkpoint and the CLI input."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.checkpoint = self.workdir / "model.npz"
        measured.model.save_model(self._new_model(), self.checkpoint)
        self.cli_input = self.workdir / "input.jsonl"
        self.cli_output = self.workdir / "predictions.jsonl"
        self.cli_texts = [r["text"] for r in records[: self.sizes.cli_lines]]
        data.write_jsonl(self.cli_input, ({"text": t} for t in self.cli_texts))

    def input_properties(self, ngrams) -> dict:
        """Shares of the workload's text that a gram cache or sparse update sees.

        ``unique_gram_share`` is distinct n-grams over all n-grams of the
        corpus (0 when ``ngrams`` is ``None``); ``ws_rows_per_batch`` is the
        mean number of distinct ``W_S`` rows a batch of 200 texts touches.
        """
        seen, total = set(), 0
        for text in self.texts if ngrams else ():
            grams = ngrams(text)
            total += len(grams)
            seen.update(grams)
        # a one-column projection hashes like the real one at no memory cost
        probe = HashedNgramEncoder(
            EncoderConfig(feature_dim=self.encoder_config.feature_dim, hidden_dim=1)
        )
        X = probe.feature_matrix(self.texts)
        rows = [
            len(np.unique(X[s : s + BATCH].indices))
            for s in range(0, X.shape[0] - BATCH + 1, BATCH)
        ]
        return {
            "texts": len(self.texts),
            "grams_per_text": total / len(self.texts),
            "unique_gram_share": len(seen) / total if total else 0.0,
            "ws_rows_per_batch": float(np.mean(rows)) if rows else 0.0,
            "ws_rows": self.encoder_config.feature_dim,
        }

    # -- one repetition ----------------------------------------------------------

    def rep(self, phase=None) -> Rep:
        phase = phase or (lambda name: nullcontext())
        out = Rep()
        start = _now()
        if self.name == "predict-novel":
            self._serve_rep(out, phase)
        else:
            self._train_rep(out, phase)
        out.wall_s = _now() - start
        return out

    def _closed_loop(self, model, out: Rep, phase) -> None:
        """One client sends the next text only after the previous answer."""
        for text in self.request_texts:
            out.attempted += 1
            t0 = _now()
            try:
                with phase("bench.request"):
                    pred = model.predict(model.encode(text))
            except Exception as err:  # a failed request counts, the run goes on
                out.fail(1, f"predict failed: {err!r}")
                out.predictions.append(None)
                continue
            out.latencies_s.append(_now() - t0)
            out.predictions.append(_prediction_key(pred))

    def _evaluate(self, model, split, out: Rep, phase) -> None:
        for _ in range(PHASE_SAMPLES):
            t0 = _now()
            with phase("bench.eval"):
                report = evaluation.evaluate(model, split)
            out.eval_s.append(_now() - t0)
        with phase("bench.quality"):
            out.quality["val_joint_nll"] = training.batch_loss(model, split.val)
        out.quality["test_log_mae"] = report.probes["num"]["log_mae"]
        out.quality["test_dim_macro_f1"] = report.probes["dim"]["macro_f1"]
        out.quality["probes"] = sorted(report.probes)

    def _setup_training(self):
        records = synth.generate_records(self.synth_config, self.registry)
        examples = data.ingest(records, self.registry).examples
        split = data.split(examples, self.sizes.ratios, self.seed)
        return records, split, self._new_model()

    def _train_rep(self, out: Rep, phase) -> None:
        for _ in range(PHASE_SAMPLES):
            model = None  # let the previous W_S go before drawing the next
            t0 = _now()
            with phase("bench.setup"):
                records, split, model = self._setup_training()
            out.setup_s.append(_now() - t0)
        problems = []
        if records_sha256(records) != self.corpus_sha256:
            problems.append("corpus differs between repetitions")

        out.attempted += 1
        t0 = _now()
        with phase("bench.train"):
            result = training.train(model, split, self._train_config())
        train_s = _now() - t0
        out.throughput_per_s = len(split.train) * self.epochs / train_s
        history = result.history
        if len(history) != self.epochs:
            problems.append(f"history has {len(history)} epochs, budget is {self.epochs}")
        if not all(math.isfinite(h[k]) for h in history for k in ("train_loss", "val_metric")):
            problems.append("non-finite loss in history")
        out.quality["history"] = [(h["train_loss"], h["val_metric"]) for h in history]
        del result
        with phase("bench.check"):
            problems.extend(check_training(self.reference, model))

        self._evaluate(model, split, out, phase)
        drop = out.quality["val_drop"] = self.reference.val_loss - out.quality["val_joint_nll"]
        if not drop >= self.sizes.val_drop:
            problems.append(
                f"training lowered the val joint NLL by {drop:.3g}, not {self.sizes.val_drop:.3g}"
            )
        if problems:
            out.fail(1, "; ".join(problems))
        self._closed_loop(model, out, phase)

    def _serve_rep(self, out: Rep, phase) -> None:
        for _ in range(PHASE_SAMPLES):
            model = None  # let the previous copy go before loading the next
            t0 = _now()
            with phase("bench.setup"):
                # through the module, so the tracer's wrapper sees the call
                model = measured.model.load_model(self.checkpoint, self.registry)
            out.setup_s.append(_now() - t0)
        self._evaluate(model, self.split, out, phase)
        self._closed_loop(model, out, phase)
        del model  # the CLI loads its own copy

        n = len(self.cli_texts)
        out.attempted += n
        self.cli_output.unlink(missing_ok=True)
        argv = ["predict", "--checkpoint", str(self.checkpoint),
                "--input", str(self.cli_input), "--out", str(self.cli_output)]
        t0 = _now()
        with phase("bench.cli"):
            code = cli.main(argv)
        out.throughput_per_s = n / (_now() - t0)
        if code != 0:
            out.fail(n, f"measured predict exited {code}")
            return
        self._check_cli_output(out)

    def _check_cli_output(self, out: Rep) -> None:
        """One record per input line; a seeded sample equals in-process predict."""
        with open(self.cli_output, encoding="utf-8") as f:
            records = [json.loads(line) for line in f if line.strip()]
        n = len(self.cli_texts)
        if len(records) != n:
            out.fail(n, f"measured predict wrote {len(records)} records for {n} lines")
            return
        bad = sum(r.get("text") != t for r, t in zip(records, self.cli_texts))
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x636C69]))
        index = {t: i for i, t in enumerate(self.request_texts)}
        shared = [i for i, t in enumerate(self.cli_texts) if t in index]
        for i in rng.choice(shared, size=min(CHECK_SAMPLE, len(shared)), replace=False):
            r = records[i]
            want = out.predictions[index[self.cli_texts[i]]]
            got = (r["dimension"], r["unit"], r["canonical_number"], r["number"],
                   tuple(r["dim_probs"].values()))
            bad += want is None or got != want
        if bad:
            out.fail(bad, f"{bad} CLI records disagree with in-process predictions")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    """Each phase is reported at its slowest in the run, as requests are at
    their p90.  On a shared 2-vCPU VM the CPU ran in a slow mode, with fast
    spells about 1.5x quicker that came and went every 10-20 s and varied in
    share over minutes.  The median or mean of a phase's samples followed
    that share from run to run; the slowest sample stayed in the slow mode."""
    latencies_ms = np.array([x for r in reps for x in r.latencies_s]) * 1e3
    q = reps[0].quality
    return {
        "setup_s": max(x for r in reps for x in r.setup_s),
        "throughput_per_s": min(r.throughput_per_s for r in reps),
        "eval_s": max(x for r in reps for x in r.eval_s),
        "predict_p90_ms": float(np.percentile(latencies_ms, 90)),
        # not gated: the host's speed modes move p50, its steal moves p99
        "predict_p50_ms": float(np.percentile(latencies_ms, 50)),
        "predict_p99_ms": float(np.percentile(latencies_ms, 99)),
        "peak_rss_mb": peak_rss_mb(),
        "val_joint_nll": q["val_joint_nll"],
        "test_log_mae": q["test_log_mae"],
    }


def consistency_failures(reps: list[Rep]) -> list[str]:
    """Repetitions at one seed must agree bit for bit; list what does not."""
    problems = []
    first = reps[0]
    for i, r in enumerate(reps[1:], start=1):
        if r.quality != first.quality:
            problems.append(f"repetition {i} quality differs from repetition 0")
        diff = sum(a != b for a, b in zip(r.predictions, first.predictions))
        if diff or len(r.predictions) != len(first.predictions):
            problems.append(f"repetition {i}: {diff} predictions differ from repetition 0")
    return problems
