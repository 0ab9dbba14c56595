"""Stdlib-only span recorder and the traced, in-process urnnet run.

    python bench/spans.py SPANS_JSON URNNET_ARG...

imports urnnet.cli, wraps every public function of the layer modules, runs
`urnnet.cli.main(URNNET_ARG...)` in this process and writes the spans to
SPANS_JSON when the run ends. The exit code is that of the command.

urnnet modules bind each other's functions by name (`from .graphs import
matrices`), so a wrapper replaces the function in every urnnet module
namespace that holds it, not only in the module that defines it.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("graphs", "spectral", "theory", "dynamics", "experiments", "cli")

# cli.sig12 formats a single number and runs once per matrix entry (hundreds of
# thousands of times on a 400-vertex analyze); a span per call would cost more
# than the work it measures, so its time stays in the caller's self time.
UNTRACED = {"urnnet.cli.sig12"}


class SpanRecorder:
    """Collects spans [name, start, end, parent index or -1] in memory."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced


def instrument(recorder: SpanRecorder) -> None:
    """Wrap the public functions of each layer module.

    A function is public when its name has no leading underscore and the
    layer module defines it. cli's `cmd_<name>` spans are named after the
    subcommand, `cli.<name>`.
    """
    namespaces = [m for key, m in sys.modules.items()
                  if key == "urnnet" or key.startswith("urnnet.")]
    for layer in LAYERS:
        mod = sys.modules[f"urnnet.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or f"{mod.__name__}.{attr}" in UNTRACED):
                continue
            name = f"{layer}.{attr.removeprefix('cmd_')}"
            traced = recorder.wrap(name, fn)
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is fn]:
                    setattr(ns, key, traced)


def summarize(spans: list) -> dict:
    """Per span name: calls, inclusive seconds `s` and self seconds `self_s`.

    Self time is a span's duration minus the time its children cover;
    children of one span come from one call stack, so they never overlap.
    Inclusive time counts only spans with no same-named ancestor, so a
    recursive call is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["s"] += end - start
    return out


def main(argv: list) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import urnnet.cli

    recorder = SpanRecorder()
    instrument(recorder)
    try:
        return urnnet.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
