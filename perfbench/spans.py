"""In-memory span tracing for the morphkit benchmark.

`Tracer.install` wraps public morphkit functions from the outside, at every
module attribute that binds them: `morphkit.morph` imports the sparse
solvers with `from .sparse import ...`, so wrapping only the defining module
would miss its calls. Each wrapped call records a span (name, start, end,
parent span, run id) plus a few counts taken from its arguments or result.
Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    error: str | None = None
    attrs: dict = field(default_factory=dict)


def _solver_attrs(args, kwargs, sol):
    attrs = {"sweeps": sol.sweeps_run, "coefs": int(sol.beta.shape[0]), "stop": sol.stop_reason}
    t = args[0]
    if getattr(t, "ndim", 0) == 3:
        # stacked design: one column of rows*q entries per coefficient
        attrs["column"] = int(t.shape[1] * t.shape[2])
    return attrs


def _rows_attrs(args, kwargs, taps):
    return {"rows": int(taps.input.shape[0])}


def _standardize_attrs(args, kwargs, result):
    return {"constant_cols": int(result[1].constant_mask.sum())}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _morph_attrs(args, kwargs, result):
    spec, report = args[1], result[1]
    return {
        "algorithm": spec.algorithm,
        "n_sparse": report.n_sparse,
        "preservation_rms": report.preservation_rms,
        "ridge_fallbacks": report.ridge_fallbacks,
    }


# (defining module, function, span name, extractor of per-call counts)
TARGETS = [
    ("morphkit.sparse", "iilasso_residual", "sparse.iilasso_residual", _solver_attrs),
    ("morphkit.sparse", "iilasso_diag", "sparse.iilasso_diag", _solver_attrs),
    ("morphkit.sparse", "similarity_matrix", "sparse.similarity_matrix", None),
    ("morphkit.sparse", "refit_w1", "sparse.refit_w1", None),
    ("morphkit.network", "train_sgd", "network.train_sgd", None),
    ("morphkit.network", "forward", "network.forward", _rows_attrs),
    ("morphkit.network", "evaluate", "network.evaluate", None),
    ("morphkit.linalg", "least_squares", "linalg.least_squares", None),
    ("morphkit.linalg", "standardize_columns", "linalg.standardize_columns", _standardize_attrs),
    ("morphkit.linalg", "vectorize", "linalg.vectorize", None),
    ("morphkit.morph", "morph", "morph.morph", _morph_attrs),
    ("morphkit.morph", "contribution_matrices", "morph.contribution_matrices", None),
    ("morphkit.morph", "preservation_error", "morph.preservation_error", None),
    ("morphkit.io", "synth_lowrank_dataset", "io.synth_lowrank_dataset", None),
    ("morphkit.io", "save_model", "io.save_model", _saved_bytes),
    ("morphkit.io", "load_model", "io.load_model", _loaded_bytes),
    ("morphkit.io", "save_report_json", "io.save_report_json", None),
    ("morphkit.io", "load_report_json", "io.load_report_json", None),
    ("morphkit.io", "write_report_csv", "io.write_report_csv", None),
    ("morphkit.cli", "cmd_train", "cli.train", None),
    ("morphkit.cli", "cmd_morph", "cli.morph", None),
    ("morphkit.cli", "cmd_eval", "cli.eval", None),
    ("morphkit.cli", "cmd_finetune", "cli.finetune", None),
    ("morphkit.cli", "cmd_report", "cli.report", None),
]


class Tracer:
    """Records spans of wrapped calls while `enabled` is true."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.run_id = ""
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.run_id)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target at each `morphkit` module attribute bound to it.

        Modules are looked up through `importlib`, never as package
        attributes: `morphkit.morph` the attribute is the re-exported
        function, not the module. Returns the wrapped bindings as
        "module.attribute" strings.
        """
        importlib.import_module("morphkit.cli")  # loads every module on the pipeline path
        modules = [m for n, m in sorted(sys.modules.items()) if n == "morphkit" or n.startswith("morphkit.")]
        bound = []
        for module_name, attr, name, extract in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original, extract)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, key, original))
                        setattr(module, key, wrapper)
                        bound.append(f"{module.__name__}.{key}")
        return bound

    def uninstall(self) -> None:
        for module, key, original in reversed(self._originals):
            setattr(module, key, original)
        self._originals.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so children never overlap and their union is
    their sum.
    """
    child_total = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_total[span.parent] += span.end - span.start
    return [span.end - span.start - child for span, child in zip(spans, child_total)]
