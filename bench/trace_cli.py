"""Run one research_space CLI command with timing wrappers on the package's
public functions, and write the spans and counts to a JSON file.

    PYTHONPATH=src python3 bench/trace_cli.py TRACE.json <cli arguments...>

The wrappers are installed from outside: every public function a module of
the package defines is replaced, on that module and on every package module
that imported it by name, by a wrapper that records a span (name, start, end,
parent, growth of ru_maxrss). Functions called once per record, per entity,
per SGD step or per edge only get a call count, so tracing stays cheap.
Spans are kept in memory and written once the command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time

PACKAGE = "research_space"
MODULES = ["corpus", "artifacts", "presence", "freq_model", "emb_model",
           "specialization", "prediction_eval", "network_analysis", "cli"]
COUNT_ONLY = {
    "corpus.match_venue", "corpus.normalize_venue", "corpus.venue_substrings",
    "specialization.classify_stage", "prediction_eval.auroc",
    "emb_model.cosine", "emb_model.hinge_loss_and_grads",
    "network_analysis.disparity_pvalue",
}
# Writers whose output size counts in artifacts.bytes_written.
WRITERS = {"artifacts.save_corpus", "artifacts.save_proximity",
           "artifacts.save_embeddings", "artifacts.write_manifest"}


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _nnz(matrix):
    values = getattr(matrix, "values", matrix)
    nnz = getattr(values, "nnz", None)
    return int(nnz) if nnz is not None else int((values != 0).sum())


def _path_arg(fn, args, kwargs):
    """The ``path`` argument of a call, however it was passed."""
    try:
        path = inspect.signature(fn).bind(*args, **kwargs).arguments.get("path")
    except TypeError:
        return None
    return path if isinstance(path, (str, os.PathLike)) else None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, rss_start, rss_end]
        self.stack = []
        self.counts = {}
        self.extras = {}

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, _maxrss_mb(), None])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        span = self.spans[self.stack.pop()]
        span[2] = time.perf_counter()
        span[5] = _maxrss_mb()

    def add(self, key, value):
        self.extras[key] = self.extras.get(key, 0) + value

    def observe(self, name, fn, args, kwargs, result):
        """Work counts that only the in-process objects show."""
        if name == "presence.contribution_matrix":
            self.add("presence.nnz_x", _nnz(result))
        elif name == "presence.presence_matrix":
            self.add("presence.nnz_p", _nnz(result))
        elif name == "emb_model.train_embeddings":
            losses = getattr(result, "epoch_losses", None)
            if losses:
                self.extras["emb_model.final_epoch_loss"] = float(losses[-1])
        elif name in WRITERS:
            path = _path_arg(fn, args, kwargs)
            if path is not None and os.path.exists(path):
                self.add("artifacts.bytes_written", os.path.getsize(path))

    def span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            self.observe(name, fn, args, kwargs, result)
            return result
        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrapped = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            if short == "cli":
                continue  # click commands are traced as one root span
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                make = self.count_wrapper if name in COUNT_ONLY else self.span_wrapper
                wrapped[id(obj)] = make(name, obj)
        for mod in modules.values():  # rebind by-name imports too, as in cli
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
        return modules["cli"]

    def dump(self, path, exit_code):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "extras": self.extras, "exit_code": exit_code}, fh)


def main():
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.install()
    code = 0
    tracer.begin("cli." + args[0].replace("-", "_"))
    try:
        cli.main(args=args, prog_name="research-space")
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        tracer.end()
        tracer.dump(out_path, code)
    sys.exit(code)


if __name__ == "__main__":
    main()
