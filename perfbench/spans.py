"""Host-time spans recorded around calls into the program's public names.

Only the traced run installs them.  :func:`install` replaces each named
function or method with a wrapper that opens a span for its layer, in
every ``repro`` module that holds the name, so the span fires however the
caller looked the name up.  A name that no longer exists is reported as
absent and its time falls into the caller's span or into the op's
unattributed remainder; the run goes on.

A layer's self time is its spans' duration minus the part covered by
spans nested inside them.  Nesting is strict (the program is single
threaded), so over one op the self times of every layer sum to the
duration of the outermost spans, and ``op wall - that sum`` is the
unattributed time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Layer:
    """One public name to wrap, the layer its time belongs to, and an
    optional counter bumped by ``measure(result)`` (or by 1) per call."""

    target: str                     # "module:function" or "module:Class.method"
    layer: str
    counter: Optional[str] = None
    measure: Optional[Callable[[Any], int]] = None


class SpanRecorder:
    """Self time per layer and counts, kept in memory for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Summed duration of outermost spans: what the layers account for.
        self.root_s = 0.0
        self._stack: List[list] = []     # [layer, start, child seconds]

    def enter(self, layer: str) -> None:
        """Open a span of ``layer`` nested in the innermost open one."""
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost span and charge its self time."""
        layer, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Context-manager form of :meth:`enter` / :meth:`exit`."""
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counts[name] += n


@contextlib.contextmanager
def no_span(layer: str) -> Iterator[None]:
    """The untraced stand-in for :meth:`SpanRecorder.span`."""
    yield


#: Undo marker for a method the class inherited rather than defined.
_INHERITED = object()


def _wrap(fn: Callable, recorder: SpanRecorder, spec: Layer) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder.enter(spec.layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            recorder.exit()
        if spec.counter is not None:
            recorder.count(spec.counter,
                           spec.measure(out) if spec.measure else 1)
        return out

    return traced


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for ``target``; raises
    ImportError / AttributeError when the name is gone."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(recorder: SpanRecorder, layers: List[Layer]
            ) -> Tuple[List[str], Callable[[], None]]:
    """Wrap every target of ``layers``; returns the absent targets and a
    function that undoes every patch."""
    absent: List[str] = []
    undo: List[Tuple[Any, str, Any]] = []
    for spec in layers:
        try:
            owner, attr, original = _resolve(spec.target)
        except (ImportError, AttributeError):
            absent.append(spec.target)
            continue
        wrapper = _wrap(original, recorder, spec)
        if isinstance(owner, type):
            holders = [owner]
        else:
            # A module-level function: patch every module that imported
            # it, since callers look it up in their own globals.
            holders = [m for name, m in list(sys.modules.items())
                       if m is not None
                       and (name == "repro" or name.startswith("repro."))
                       and vars(m).get(attr) is original]
        for holder in holders:
            undo.append((holder, attr, vars(holder).get(attr, _INHERITED)))
            setattr(holder, attr, wrapper)

    def uninstall() -> None:
        for holder, attr, original in reversed(undo):
            if original is _INHERITED:
                delattr(holder, attr)
            else:
                setattr(holder, attr, original)

    return absent, uninstall
