"""Span tracing of the `measured` package from outside, by wrapping entry points.

A :class:`Tracer` replaces public functions and methods of the package with
thin wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Spans and counts stay in memory; the
benchmark summarizes them per repetition and writes them out when the run
ends.  Nothing under ``src/`` changes.

An entry point that a refactor removed or renamed is reported as missing
instead of failing the run, so the same benchmark keeps working on later
commits.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute path, span name).  Several targets may share a span
# name; a span nested in another of the same name is not counted twice.
TARGETS = (
    ("measured.synth", "generate_records", "synth.generate"),
    ("measured.data", "ingest", "data.ingest"),
    ("measured.data", "split", "data.split"),
    ("measured.encoding", "HashedNgramEncoder.__init__", "encoding.init"),
    ("measured.encoding", "HashedNgramEncoder.featurize", "encoding.featurize"),
    ("measured.encoding", "featurize", "encoding.featurize"),
    ("measured.encoding", "HashedNgramEncoder.encode", "encoding.encode"),
    ("measured.encoding", "HashedNgramEncoder.encode_matrix", "encoding.encode_matrix"),
    (
        "measured.encoding",
        "HashedNgramEncoder.projection_gradient",
        "encoding.projection_gradient",
    ),
    ("measured.model", "MeasurementModel.__init__", "model.init"),
    ("measured.model", "MeasurementModel.dim_logits", "model.head_forward"),
    ("measured.model", "MeasurementModel.unit_logits", "model.head_forward"),
    ("measured.model", "MeasurementModel.number_locations", "model.head_forward"),
    ("measured.model", "MeasurementModel.predict", "model.predict"),
    ("measured.model", "load_model", "model.load"),
    ("measured.training", "train", "training.train"),
    ("measured.training", "adamw_step", "training.adamw_step"),
    ("measured.training", "_forward_backward", "training.head_backward"),
    ("measured.training", "batch_arrays", "training.batching"),
    ("measured.training", "_val_metric", "training.validation"),
    ("measured.training", "batch_loss", "training.batch_loss"),
    ("measured.evaluation", "evaluate", "evaluation.evaluate"),
    ("measured.cli", "cmd_predict", "cli.predict"),
)

# spans opened by the benchmark's own code mark its phases; they are not layers
PHASE_PREFIX = "bench."


def _adamw_bytes(args) -> int:
    """Bytes of parameters, gradients and both moments one AdamW step touches."""
    params, grads, state = args[:3]
    total = 0
    for name, p in params.items():
        total += p.nbytes + grads[name].nbytes
        total += state.m[name].nbytes + state.v[name].nbytes
    return total


class Tracer:
    """Records spans and per-call facts while its wrappers are installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple | None] = []  # (name, start, end, parent index)
        self.texts: dict[int, str] = {}  # featurize span -> text
        self.batch_columns: dict[int, np.ndarray] = {}  # projection span -> X.indices
        self.adamw_bytes: list[int] = []
        self.hook_errors = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def reset(self) -> None:
        self.spans, self.texts, self.batch_columns = [], {}, {}
        self.adamw_bytes, self._stack = [], []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[idx] = (name, start, end, parent)

    @contextmanager
    def phase(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _hook(self, name: str, idx: int, args) -> None:
        if name == "encoding.featurize":
            self.texts[idx] = next((a for a in args if isinstance(a, str)), None)
        elif name == "encoding.projection_gradient":
            self.batch_columns[idx] = args[1].indices
        elif name == "training.adamw_step":
            self.adamw_bytes.append(_adamw_bytes(args))

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, start)
                try:
                    tracer._hook(name, idx, args)
                except Exception:  # a changed signature must not fail the run
                    tracer.hook_errors += 1

        return wrapper

    # -- installing wrappers ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; list the others in ``missing``."""
        self.missing = []
        for module_name, path, span in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            wrapped = self._wrap(original, span)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapped)
            else:
                self._replace_everywhere(original, wrapped)

    def _replace(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _replace_everywhere(self, original, wrapped) -> None:
        """Swap a function in every package namespace and dispatch table holding it.

        Modules bind imported functions by name (``from measured.model
        import load_model``) and the CLI dispatches through a dict, so
        patching the defining module alone would miss those callers.
        """
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "measured":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, original, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
                            self._restore.append(
                                lambda d=value, k=k: d.__setitem__(k, original)
                            )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


# -- summaries ---------------------------------------------------------------------


def summarize(tracer: Tracer, wall_s: float, ngrams) -> dict[str, float]:
    """Per-layer metrics of one traced repetition lasting ``wall_s`` seconds.

    ``ngrams`` maps a text to its list of n-gram strings (or is ``None``
    when the package no longer offers that), for the gram counts.
    """
    spans = tracer.spans
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)

    def ancestors(i):
        parent = spans[i][3]
        while parent is not None:
            yield parent
            parent = spans[parent][3]

    def dur(i):
        return spans[i][2] - spans[i][1]

    # outermost spans of each name: no ancestor carries the same name
    outer = defaultdict(list)
    for i, (name, *_rest) in enumerate(spans):
        if all(spans[a][0] != name for a in ancestors(i)):
            outer[name].append(i)

    def total(name):
        return sum(dur(i) for i in outer[name])

    def self_time(name):
        return sum(dur(i) - sum(dur(c) for c in children[i]) for i in outer[name])

    def inside(name, ancestor):
        return sum(
            dur(i) for i in outer[name] if any(spans[a][0] == ancestor for a in ancestors(i))
        )

    def is_layer(i):
        return not spans[i][0].startswith(PHASE_PREFIX)

    attributed = sum(
        dur(i)
        for i in range(len(spans))
        if is_layer(i) and not any(is_layer(a) for a in ancestors(i))
    )

    texts = [tracer.texts[i] for i in outer["encoding.featurize"] if tracer.texts.get(i)]
    grams = unique = 0
    if ngrams is not None:
        seen = set()
        for text in texts:
            g = ngrams(text)
            grams += len(g)
            seen.update(g)
        unique = len(seen)
    rows = [
        len(np.unique(tracer.batch_columns[i]))
        for i in outer["encoding.projection_gradient"]
        if i in tracer.batch_columns
    ]
    train_s = total("training.train")
    request_s = total("bench.request")

    def share(part, whole):
        return part / whole if whole > 0 else 0.0

    return {
        "synth.generate_s": total("synth.generate"),
        "data.ingest_s": total("data.ingest"),
        "encoding.init_s": total("encoding.init"),
        "model.load_s": total("model.load"),
        "encoding.featurize_s": total("encoding.featurize"),
        "encoding.featurize_texts": float(len(outer["encoding.featurize"])),
        "encoding.grams": float(grams),
        "encoding.unique_gram_share": share(unique, grams),
        "encoding.encode_matrix_s": total("encoding.encode_matrix"),
        "encoding.encode_matrix_calls": float(len(outer["encoding.encode_matrix"])),
        "encoding.projection_gradient_s": total("encoding.projection_gradient"),
        "encoding.ws_rows_touched_per_step": float(np.mean(rows)) if rows else 0.0,
        "training.train_s": train_s,
        "training.train_self_s": self_time("training.train"),
        "training.adamw_step_s": total("training.adamw_step"),
        "training.steps": float(len(outer["training.adamw_step"])),
        "training.adamw_bytes_per_step": (
            float(np.mean(tracer.adamw_bytes)) if tracer.adamw_bytes else 0.0
        ),
        "training.head_backward_s": total("training.head_backward"),
        "training.adamw_share": share(total("training.adamw_step"), train_s),
        "training.featurize_encode_share": share(
            inside("encoding.featurize", "training.train")
            + inside("encoding.encode_matrix", "training.train"),
            train_s,
        ),
        "model.head_forward_s": total("model.head_forward"),
        "model.predict_s": total("model.predict"),
        "serve.request_s": request_s,
        "serve.featurize_share": share(inside("encoding.featurize", "bench.request"), request_s),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.evaluate_self_s": self_time("evaluation.evaluate"),
        "cli.predict_self_s": self_time("cli.predict"),
        "trace.unattributed_s": wall_s - attributed,
        "trace.spans": float(len(spans)),
    }


def span_records(tracer: Tracer) -> list[list]:
    """Spans as ``[name, start, end, parent]`` rows, times relative to the first."""
    if not tracer.spans:
        return []
    t0 = min(s[1] for s in tracer.spans)
    return [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in tracer.spans]
