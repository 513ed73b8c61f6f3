"""One process of the palfact benchmark.

Usage (started by ``run.py``, never by hand):

    python3 perfbench/child.py REPORT TRACE probe
    python3 perfbench/child.py REPORT TRACE cli ARG...
    python3 perfbench/child.py REPORT TRACE words WORDS_JSON

The process imports ``palfact.cli`` from the ``PYTHONPATH`` the harness
sets (the ``src/`` of the checkout), then stops (``probe``), runs one CLI
invocation with its output on stdout (``cli``), or sends every word of WORDS_JSON
through ``dispatch(["--format", "json", "factor", word])`` in this one
process and keeps each output (``words``).  It writes a JSON report to
REPORT on exit: when the import finished, the reference-loop times, the
per-word results, and with TRACE = 1 the spans recorded around the public
functions of every palfact module.

Tracing wraps each public function where its callers look it up: the
attribute is replaced in every ``palfact`` module that holds it, so a
function imported by name into another module is wrapped there too.
Spans stay in memory as ``[name, start, end, parent, note]`` and are
written out once, with the report.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import sys
import time

clock = time.monotonic  # CLOCK_MONOTONIC: comparable with the parent's stamps

LAYERS = ("words", "factorization", "enumeration", "extremal", "distribution", "lemmas", "asymptotics", "cache")

# The cache layer's public surface is a class; its methods are wrapped on it.
CLASS_METHODS = {"cache": {"ResultCache": ("load", "store")}}

# A fixed pure-Python loop, timed in every child right after the import and
# after each dispatch.  On a shared host the speed a process gets drifts by
# 10-30 % within seconds; the loop's time tracks that drift, and the harness
# can scale the times around it by REFERENCE_S[mode] over the loop's times.
# REFERENCE_S is the loop's median time in that position, per mode, on the
# machine the benchmark was defined on.
REFERENCE_LOOP = 50_000
REFERENCE_S = {"cli": 0.0047, "words": 0.0041}


def reference_s() -> float:
    start = clock()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return clock() - start


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _letters(args, kwargs, result):
    word = _arg(args, kwargs, 0, "w")
    length = getattr(word, "length", None)
    return length if isinstance(length, int) else len(word)


def _cases(args, kwargs, result):
    return getattr(result, "cases", None)


def _load_outcome(args, kwargs, result):
    if result is not None:
        return "hit"
    directory = getattr(args[0], "directory", None)
    kind, n = _arg(args, kwargs, 1, "kind"), _arg(args, kwargs, 2, "n")
    if directory is not None and (directory / f"{kind}_{n}.json").exists():
        return "reject"
    return "miss"


def _stored_entry(args, kwargs, result):
    return _arg(args, kwargs, 1, "entry") if result else None


# What each span records besides its times, keyed by span name (or by layer).
NOTES = {
    "enumeration.scan_lengths": lambda a, kw, r: _arg(a, kw, 0, "n_max"),
    "enumeration.extension_m": lambda a, kw, r: _arg(a, kw, 1, "ext_len"),
    "cache.ResultCache.load": _load_outcome,
    "cache.ResultCache.store": _stored_entry,
    "lemmas": _cases,
    "factorization": _letters,
}


class Recorder:
    """In-memory span log of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]
        self.word_class = "other"

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        note = NOTES.get(name) or NOTES.get(layer)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if note is not None:
                    try:
                        span[4] = note(args, kwargs, result)
                    except Exception:  # a note must never change the traced call
                        span[4] = None
                if layer == "factorization":
                    span[4] = [self.word_class, span[4]]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"palfact.{layer}")
            except ImportError:
                continue
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for method in methods:
                    fn = vars(cls).get(method) if cls is not None else None
                    if inspect.isfunction(fn):
                        setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "palfact" and not mod_name.startswith("palfact."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def export(self) -> list[list]:
        out = []
        for name, start, end, parent, note in self.spans:
            if name == "cache.ResultCache.store" and note is not None:
                note = len(note.to_json().encode())
            out.append([name, start, end, parent, note])
        return out


def _dispatch_traced(rec: Recorder | None, dispatch, argv: list[str]) -> int:
    if rec is None:
        return dispatch(argv)
    span = ["cli.dispatch", clock(), 0.0, -1, None]
    rec.stack.append(len(rec.spans))
    rec.spans.append(span)
    try:
        return dispatch(argv)
    finally:
        span[2] = clock()
        rec.stack.pop()


def main() -> int:
    report_path, trace, mode, *rest = sys.argv[1:]
    import palfact.cli

    import_done = clock()
    import numpy

    rec = Recorder() if trace == "1" else None
    if rec is not None:
        rec.install()
    report: dict = {
        "import_done": import_done,
        "palfact_file": palfact.cli.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    status = 0
    references = [reference_s()]
    if mode == "cli":
        status = _dispatch_traced(rec, palfact.cli.dispatch, rest)
        sys.stdout.flush()
        references.append(reference_s())
    elif mode == "words":
        with open(rest[0]) as handle:
            words = json.load(handle)
        items = []
        for word, cls in words:
            if rec is not None:
                rec.word_class = cls
            buf = io.StringIO()
            start = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = _dispatch_traced(rec, palfact.cli.dispatch, ["--format", "json", "factor", word])
            except Exception as exc:  # a crash is a failed call, recorded and reported
                rc = repr(exc)
            items.append([rc, clock() - start, buf.getvalue()])
            references.append(reference_s())
        report["items"] = items
    report["references"] = references
    if rec is not None:
        report["spans"] = rec.export()
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
