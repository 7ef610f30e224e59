"""Span tracing for the benchmark's traced run.

Spans are recorded around calls into each stitlab module by rebinding the
module-level names that callers look up (``processes.split``,
``stats.stit_simulate``, ``cli.main`` ...) to thin wrappers, inside the
benchmark process only.  No file of the package is edited; leaving the
``Tracer`` context restores every original binding.

A span is ``[name, parent index, start, end, error]``; the parent is the
span that was open when the call began.  Calls made by a generator function
(``processes.replay``) are recorded as one span per resumption, so a span's
time is always time spent inside that function's own frames.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = (
    "geometry", "line_measure", "processes", "distributions",
    "stats", "trace_io", "render", "cli",
)

# Private names that a public caller looks up by name and that the benchmark
# reports on: run_equivalence_suite iterates over these five checks.
EXTRA_NAMES = {
    "stats": (
        "_check_conditional", "_check_unconditional", "_check_cowan",
        "_check_identity", "_check_selection",
    ),
}

NAME, PARENT, START, END, ERROR = range(5)


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._current = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _BenchSpan(self, name)

    def _open(self, name: str) -> tuple[list, int]:
        rec = [name, self._current, time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        prev = self._current
        self._current = len(self.spans) - 1
        return rec, prev

    def _close(self, rec: list, prev: int) -> None:
        rec[END] = time.perf_counter()
        self._current = prev

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        rec, prev = tracer._open(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        except BaseException as exc:
                            rec[ERROR] = type(exc).__name__
                            raise
                        finally:
                            tracer._close(rec, prev)
                        yield item
                finally:
                    gen.close()

            return gen_wrapper

        label = _cli_label if name == "cli.main" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec, prev = tracer._open(label(args, kwargs) if label else name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                tracer._close(rec, prev)

        return wrapper

    # -- installing the wrappers -------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"stitlab.{layer}")
            names = [
                n for n, obj in vars(mod).items()
                if not n.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ]
            names += EXTRA_NAMES.get(layer, ())
            for n in names:
                fn = getattr(mod, n)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{n.lstrip('_')}", fn))
        # Rebind every stitlab namespace that holds one of the originals, so
        # both cross-module and same-module lookups go through a wrapper.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stitlab" or mod_name.startswith("stitlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self.spans)


def _cli_label(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


class _BenchSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.rec, self.prev = self.tracer._open(self.name)
        return self.rec

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.rec[ERROR] = exc_type.__name__
        self.tracer._close(self.rec, self.prev)


class SpanTable:
    """Column view of recorded spans with self times and ancestor queries."""

    def __init__(self, spans: list[list]) -> None:
        self.names = [s[NAME] for s in spans]
        self.errors = [s[ERROR] for s in spans]
        self.parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
        self.start = np.array([s[START] for s in spans], dtype=float)
        self.end = np.array([s[END] for s in spans], dtype=float)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(spans)
        )
        self.self_time = self.dur - child

    def __len__(self) -> int:
        return len(self.names)

    def below(self, pred) -> np.ndarray:
        """Mask of spans that have an ancestor whose name satisfies `pred`."""
        inside = np.zeros(len(self.names), dtype=bool)
        match = [bool(pred(n)) for n in self.names]
        for i, p in enumerate(self.parent):
            if p >= 0:
                inside[i] = match[p] or inside[p]
        return inside

    def write(self, path) -> None:
        """One JSON line per span; times in seconds from the first span's start."""
        t0 = float(self.start.min()) if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": int(self.parent[i]),
                    "start_s": float(self.start[i]) - t0, "end_s": float(self.end[i]) - t0,
                    "self_s": float(self.self_time[i]), "error": self.errors[i],
                }) + "\n")
