"""Outside-in layer trace: wrap the program's public functions, one span
per call, and record counts and self times per layer.

Nothing here changes the program.  ``installed(recorder)`` replaces each
target in every module that holds it -- a module that did
``from .lie import bracket`` keeps its own reference, and would go
unrecorded if only ``triderive.lie.bracket`` were replaced -- and puts
the originals back on exit.  Spans are recorded only while
``recorder.active`` is set, so the harness's own checks stay out.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

def _mul_extras(rec: Recorder, args: tuple) -> None:
    left, right = args
    rec.add("poly.mul.term_pairs", len(left.terms) * len(right.terms))
    if left.terms and right.terms:
        rec.peak("poly.max_degree",
                 left.total_degree() + right.total_degree())


def _pow_extras(rec: Recorder, args: tuple) -> None:
    base, exponent = args
    if base.terms:
        rec.peak("poly.max_degree", base.total_degree() * exponent)


def _substitute_extras(rec: Recorder, args: tuple) -> None:
    poly, images = args
    degs = [max(im.total_degree(), 0) for im in images]
    for exps in poly.terms:
        rec.peak("poly.max_degree", sum(e * d for e, d in zip(exps, degs)))


def _invert_extras(rec: Recorder, args: tuple) -> None:
    rec.add("triaut.invert.hits",
            int(getattr(args[0], "_inv", None) is not None))


def _probe_extras(rec: Recorder, args: tuple) -> None:
    action, u = args
    rec.add("autgroup.probe.hits", int(u in getattr(action, "_memo", {})))


def _bracket_extras(rec: Recorder, args: tuple) -> None:
    rec.add("lie.bracket.term_pairs", len(args[0].terms) * len(args[1].terms))


# (span, module, attribute, hook run before each recorded call)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("poly.mul", "triderive.poly", "Poly.__mul__", _mul_extras),
    ("poly.substitute", "triderive.poly", "Poly.substitute",
     _substitute_extras),
    ("poly.pow", "triderive.poly", "Poly.__pow__", _pow_extras),
    ("triaut.apply", "triderive.triaut", "TriAut.apply", None),
    ("triaut.invert", "triderive.triaut", "TriAut.invert", _invert_extras),
    ("triaut.compose", "triderive.triaut", "TriAut.compose", None),
    ("triaut.conjugate", "triderive.triaut", "conjugate_derivation", None),
    ("triaut.exp_map", "triderive.triaut", "exp_map", None),
    ("triaut.log_map", "triderive.triaut", "log_map", None),
    ("triaut.reconstruct", "triderive.triaut", "reconstruct_from_frames",
     None),
    ("autgroup.decompose", "triderive.autgroup", "decompose", None),
    ("autgroup.probe", "triderive.autgroup", "AutoAction.__call__",
     _probe_extras),
    ("autgroup.act", "triderive.autgroup", "act", None),
    ("autgroup.multiply_formula", "triderive.autgroup", "multiply_formula",
     None),
    ("autgroup.convert_form", "triderive.autgroup", "convert_form", None),
    ("autgroup.gn_inverse", "triderive.autgroup", "gn_inverse", None),
    ("series.apply", "triderive.series", "OpSeries.apply", None),
    ("series.mul", "triderive.series", "OpSeries.mul", None),
    ("series.reciprocal", "triderive.series", "OpSeries.reciprocal", None),
    ("lie.bracket", "triderive.lie", "bracket", _bracket_extras),
    ("lie.apply_to", "triderive.lie", "LieElem.apply_to", None),
    ("lie.exp_ad", "triderive.lie", "exp_ad_apply", None),
    ("ordinals.ord_of_basis", "triderive.ordinals", "ord_of_basis", None),
    ("ordinals.compare", "triderive.ordinals", "ord_compare", None),
    ("dsl.parse", "triderive.dsl", "parse_poly", None),
    ("dsl.parse", "triderive.dsl", "parse_lie", None),
    ("dsl.parse", "triderive.dsl", "parse_triaut", None),
    ("dsl.parse", "triderive.dsl", "parse_ordinal", None),
    ("dsl.parse", "triderive.dsl", "parse_gnelem", None),
    ("dsl.print", "triderive.dsl", "print_value", None),
    ("dsl.print", "triderive.dsl", "gnelem_to_json", None),
    ("cli.main", "triderive.cli", "main", None),
)

# Prefix of the stderr line on which a traced child process reports.
TRACE_MARKER = "PERFBENCH-TRACE "

SPANS = tuple(dict.fromkeys(span for span, _, _, _ in TARGETS))


class Recorder:
    """Span counts, self times and extra counters of one traced pass."""

    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}   # summed
        self.peaks: dict[str, int] = {}      # largest value seen
        self._children: list[float] = []

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def call(self, span: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run fn as a span; its self time excludes nested spans."""
        stack = self._children
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            self.calls[span] = self.calls.get(span, 0) + 1
            self.self_s[span] = self.self_s.get(span, 0.0) + elapsed - nested

    def counts(self) -> dict[str, int]:
        """Everything that must repeat exactly between runs of one seed."""
        return {**{f"{k}.calls": v for k, v in self.calls.items()},
                **self.counters, **self.peaks}

    def snapshot(self) -> dict[str, Any]:
        return {"calls": self.calls, "self_s": self.self_s,
                "counters": self.counters, "peaks": self.peaks}

    def merge(self, snap: dict[str, Any]) -> None:
        """Fold in a snapshot taken in another process."""
        for span, n in snap["calls"].items():
            self.calls[span] = self.calls.get(span, 0) + n
        for span, s in snap["self_s"].items():
            self.self_s[span] = self.self_s.get(span, 0.0) + s
        for name, value in snap["counters"].items():
            self.add(name, value)
        for name, value in snap["peaks"].items():
            self.peak(name, value)


def _wrap(rec: Recorder, span: str, fn: Callable,
          hook: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not rec.active:
            return fn(*args, **kwargs)
        if hook is not None:
            hook(rec, args)
        return rec.call(span, fn, args, kwargs)
    return wrapper


def holder_modules() -> list[Any]:
    """Loaded modules of the program and of this benchmark."""
    src = sys.modules["triderive"].__path__[0]
    roots = (os.path.dirname(src), os.path.dirname(os.path.abspath(__file__)))
    out = []
    for mod in list(sys.modules.values()):
        path = getattr(mod, "__file__", None) or ""
        if path and os.path.abspath(path).startswith(roots):
            out.append(mod)
    return out


@contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every target for the duration of the block."""
    for _, modname, _, _ in TARGETS:
        importlib.import_module(modname)
    holders = holder_modules()
    undo: list[tuple[Any, str, Any]] = []
    try:
        for span, modname, attr, hook in TARGETS:
            owner: Any = sys.modules[modname]
            if "." in attr:
                cls, key = attr.split(".")
                owner = getattr(owner, cls)
                original = owner.__dict__[key]
                undo.append((owner, key, original))
                setattr(owner, key, _wrap(rec, span, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(rec, span, original, hook)
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield rec
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
