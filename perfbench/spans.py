"""In-memory span recorder for the traced run.

A span is (name, start, end, parent span, case id) plus the sizes of the
call it wraps. Spans are opened only by the benchmark's own code: around
each case, each CLI process, and - through ``instrument`` - around every
public function of the library, including calls one library module makes
into another (``gap_report`` into ``exact_variance``, ``from_file`` into
``from_probs``). The library itself is not modified; ``instrument``
rebinds module attributes and ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.case: str | None = None
        self.phase: str = ""

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "case": self.case,
            "phase": self.phase,
            **attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except Exception:
            rec["error"] = True
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _sizes(sig: inspect.Signature, args, kwargs) -> dict:
    """m, n, trials, workers and file bytes of one call, when it has them."""
    try:
        bound = sig.bind(*args, **kwargs).arguments
    except TypeError:
        return {}
    out = {}
    for key, val in bound.items():
        if key == "path":
            out["bytes"] = os.path.getsize(val)
        elif hasattr(val, "probs"):
            out["m"] = int(val.probs.size)
        elif key == "values" and hasattr(val, "__len__"):
            out["m"] = len(val)
        elif key in ("n", "trials", "workers") and isinstance(val, int):
            out[key] = val
    return out


def _wrap(tracer: Tracer, fn, name: str):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = _sizes(sig, args, kwargs)
        with tracer.span(name, **attrs):
            return fn(*args, **kwargs)

    return traced


def instrument(tracer: Tracer, package) -> list[tuple]:
    """Route every public library function through a span; return the undo list."""
    prefix = package.__name__ + "."
    wrapped = {}
    for attr in package.__all__:
        fn = getattr(package, attr)
        if inspect.isfunction(fn) and fn.__module__.startswith(prefix):
            name = fn.__module__[len(prefix):] + "." + fn.__name__
            wrapped[id(fn)] = (fn, _wrap(tracer, fn, name))
    undo = []
    modules = [package] + [m for k, m in list(sys.modules.items()) if k.startswith(prefix) and m is not None]
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))
    spec = package.WorstCaseSpec
    original = spec.to_distribution
    spec.to_distribution = _wrap(tracer, original, "extremal.to_distribution")
    undo.append((spec, "to_distribution", original))
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, attr, val in reversed(undo):
        setattr(owner, attr, val)
