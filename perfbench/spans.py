"""Outside-in tracing of lognet: span-recording wrappers on public names.

Every layer is measured from outside. A patch point names the module
namespace in which a caller looks a function up (``lognet.experiment``
binds its own references to ``fit_lognet``, ``simulate_cis`` and so on), or a
class whose method is looked up on the instance. Installing a ``Tracer``
replaces each point with a wrapper that records one span per call: name,
start, end and parent. Spans are kept in flat arrays in memory and written
out once, at exit.

Modules are always resolved through ``importlib``: ``lognet/__init__``
rebinds the package attribute ``lognet.evaluate`` to the *function*
``evaluate``, so ``import lognet.evaluate as m`` would patch nothing.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name). An attribute "Class.method" patches the
# method on the class, so every instance picks the wrapper up.
PATCH_POINTS: tuple[tuple[str, str, str], ...] = (
    ("lognet.experiment", "run_experiment", "experiment.run"),
    ("lognet.experiment", "synth_dataset", "noise.synth"),
    ("lognet.noise", "synth_dataset", "noise.synth"),
    ("lognet.experiment", "simulate_cis", "noise.simulate"),
    ("lognet.noise", "simulate_cis", "noise.simulate"),
    ("lognet.experiment", "write_fingerprints_csv", "fileio.write"),
    ("lognet.fileio", "write_fingerprints_csv", "fileio.write"),
    ("lognet.experiment", "write_rp_map_csv", "fileio.write"),
    ("lognet.fileio", "write_rp_map_csv", "fileio.write"),
    ("lognet.experiment", "write_latents_csv", "fileio.write"),
    ("lognet.experiment", "read_fingerprints_csv", "fileio.read"),
    ("lognet.experiment", "read_rp_map_csv", "fileio.read"),
    ("lognet.experiment", "split_train_test", "data.split"),
    ("lognet.data", "split_train_test", "data.split"),
    ("lognet.pipeline", "normalize_values", "data.normalize"),
    ("lognet.pipeline", "normalize", "data.normalize"),
    ("lognet.pipeline", "binarize_matrix", "data.binarize"),
    ("lognet.data", "Dataset.rss_matrix", "data.rss_matrix"),
    ("lognet.pipeline", "encode_matrix", "gates.encode"),
    ("lognet.pipeline", "train_softmax", "models.train_softmax"),
    ("lognet.pipeline", "train_dnn", "models.train_dnn"),
    ("lognet.pipeline", "softmax_forward", "models.forward"),
    ("lognet.pipeline", "dnn_forward", "models.forward"),
    ("lognet.experiment", "dnn_hidden_activations", "models.forward"),
    ("lognet.experiment", "fit_lognet", "pipeline.fit"),
    ("lognet.pipeline", "fit_lognet", "pipeline.fit"),
    ("lognet.experiment", "fit_dnn", "pipeline.fit"),
    ("lognet.pipeline", "fit_dnn", "pipeline.fit"),
    ("lognet.experiment", "save_model", "pipeline.save_model"),
    ("lognet.pipeline", "LogNetClassifier.predict", "pipeline.predict"),
    ("lognet.pipeline", "LogNetClassifier.predict_proba", "pipeline.predict"),
    ("lognet.pipeline", "LogNetClassifier.latent_matrix", "pipeline.predict"),
    ("lognet.pipeline", "DnnClassifier.predict", "pipeline.predict"),
    ("lognet.pipeline", "DnnClassifier.predict_proba", "pipeline.predict"),
    ("lognet.experiment", "evaluate", "evaluate.evaluate"),
    ("lognet.evaluate", "sample_errors", "evaluate.sample_errors"),
    ("lognet.experiment", "measure_latency", "evaluate.latency"),
    ("lognet.evaluate", "write_pgm", "pgm.write"),
)


def resolve(module: str, attr: str):
    """Return (owner, name) for a patch point: the module or class to set on."""
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def _train_counts(kind: str, args) -> dict[str, int]:
    """Matmul flops and epochs of one training call, computed from shapes.

    Per epoch: the gradient pass (forward plus backward products) over every
    row and the full-set forward pass for the loss history.
    """
    from lognet.models import dnn_hidden_widths

    data, labels_or_depth, cfg = args[:3]
    # Multiply-adds per row and epoch; each counts as two flops.
    if isinstance(labels_or_depth, int):  # train_dnn(ds, hidden_layers, cfg)
        n = len(data)
        widths = dnn_hidden_widths(data.ap_count, labels_or_depth) + [len(data.rp_ids)]
        macs = [a * b for a, b in zip(widths, widths[1:])]
        # forward, weight gradients, deltas below the top layer, loss forward
        per_row = 3 * sum(macs) + sum(macs[1:])
    else:  # train_softmax(latents, labels, cfg)
        n, width = np.shape(data)
        # gradient forward, weight gradient, loss forward
        per_row = 3 * width * len(np.unique(labels_or_depth))
    return {"models.train_flops": 2 * n * per_row * cfg.epochs, f"models.epochs.{kind}": cfg.epochs}


# Work done by one call, computed from argument and result shapes:
# span name -> f(args, result) -> {counter: value}.
COUNTERS = {
    "data.rss_matrix": lambda args, result: {"data.rows": result.shape[0]},
    "gates.encode": lambda args, result: {"gates.bits_in": np.size(args[0])},
    "fileio.write": lambda args, result: {"fileio.bytes": os.path.getsize(args[-1])},
    "fileio.read": lambda args, result: {"fileio.bytes": os.path.getsize(args[0])},
    "noise.synth": lambda args, result: {"noise.rows_out": len(result[0])},
    "noise.simulate": lambda args, result: {"noise.rows_out": len(result)},
    "models.train_softmax": lambda args, result: _train_counts("softmax", args),
    "models.train_dnn": lambda args, result: _train_counts("dnn", args),
}


def install(points, make_wrapper) -> list:
    """Patch each point with make_wrapper(span, original); return the undo list."""
    undo = []
    for module, attr, span in points:
        owner, name = resolve(module, attr)
        original = owner.__dict__[name]
        setattr(owner, name, functools.wraps(original)(make_wrapper(span, original)))
        undo.append((owner, name, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


class Tracer:
    """Records nested spans in flat arrays; one instance per traced section."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[int, str], int] = {}  # (root kind, counter) -> total
        self._stack: list[int] = []
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else idx)
        stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, span: str, fn):
        nid = self._id(span)
        counter = COUNTERS.get(span)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter:
                kind = self.name[self.root[idx]]
                for key, value in counter(args, result).items():
                    self.counts[kind, key] = self.counts.get((kind, key), 0) + int(value)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        self._undo = install(PATCH_POINTS, self._wrapper)
        return self

    def __exit__(self, *exc) -> None:
        uninstall(self._undo)
        self._undo = []

    def summary(self) -> dict:
        """Per-unit totals: one of each root kind (set-up, each request kind).

        Each root span name is a kind; a span's values are divided by the
        number of roots of its kind, then summed over kinds. Returns self
        and inclusive seconds per span name, counts per counter, and the
        wall and unattributed (root self) seconds, for which
        ``sum(self) + unattributed == wall`` holds.
        """
        names = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        kind = name[np.frombuffer(self.root, dtype=np.int64)]
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        per_kind = np.bincount(name[~nested], minlength=names)
        kinds = np.flatnonzero(per_kind)

        def per_unit(values, mask) -> np.ndarray:
            """Sum per (kind, name), divide by the kind's root count, sum kinds."""
            table = np.bincount(kind[mask] * names + name[mask], weights=values[mask],
                                minlength=names * names).reshape(names, names)
            return (table[kinds] / per_kind[kinds, None]).sum(axis=0)

        per_self = per_unit(self_t, nested)
        per_incl = per_unit(dur, nested)
        counts: dict[str, float] = {}
        for (k, key), total in self.counts.items():
            counts[key] = counts.get(key, 0.0) + total / int(per_kind[k])
        return {
            "self_s": {n: float(per_self[i]) for i, n in enumerate(self.names)},
            "inclusive_s": {n: float(per_incl[i]) for i, n in enumerate(self.names)},
            "counts": counts,
            "wall_s": float(per_unit(dur, ~nested).sum()),
            "unattributed_s": float(per_unit(self_t, ~nested).sum()),
            "roots": {self.names[k]: int(per_kind[k]) for k in kinds},
        }

    def write(self, path) -> None:
        """Write every span: names table plus name, parent, start, end arrays."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
