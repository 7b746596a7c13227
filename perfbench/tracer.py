"""Span tracing of schurkit from the outside.

:class:`Tracer` replaces the public functions of the layer modules (in every
schurkit module that refers to them), the methods that carry the work, and
four ``numpy.linalg`` kernels with wrappers that record one span per call:
name, start, end and parent span.  Spans stay in memory (compact arrays) and
are written out once, by :meth:`Tracer.save`.  Per name the tracer sums calls
and self time, a span's duration minus the time its child spans cover.

Small helpers (``adj``, ``eye``, ``cmatrix``, ``opnorm``, ``matnorm_diff``)
are not wrapped: they run hundreds of thousands of times per pass, and their
time counts as self time of the layer function that calls them.

The residual groups of ``verify_chain`` are attributed by wrapping, in the
``schur`` namespace only, the functions each group calls; a group's time
is the inclusive time of those calls made inside ``verify_chain``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import weakref
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("linalg", "contractions", "systems", "schur", "serialize", "cli")

# Public functions called hundreds of thousands of times per pass; they are
# not wrapped, so their time stays in the caller's self time.
HELPERS = {"cmatrix", "zeros", "eye", "adj", "opnorm", "matnorm_diff", "full_space",
           "trivial_space", "numerical_rank", "projector"}

# span name -> (module, Class.method) for the methods that carry the work.
METHODS = {
    "contractions.Contraction": ("contractions", "Contraction.__init__"),
    "contractions.h_subspace": ("contractions", "Contraction.h_subspace"),
    "contractions.is_cnu": ("contractions", "Contraction.is_cnu"),
    "contractions.defect_profile": ("contractions", "Contraction.defect_profile"),
    "systems.sampled": ("systems", "SampledFunction.__call__"),
    "systems.transfer": ("systems", "DiscreteSystem.transfer"),
    "systems.classify": ("systems", "DiscreteSystem.classify"),
    "schur.extend": ("schur", "_RealizationChain.extend"),
    "schur.family": ("schur", "_RealizationChain.family"),
    "schur.validate": ("schur", "ChoiceSequence.validate"),
}

KERNELS = ("solve", "svd", "eigh", "lstsq")

# residual group -> names that verify_chain looks up in the schur module
# (or the ChoiceSequence method it calls) for that group.
VERIFY_GROUPS = {
    "verify.params": ("schur_oracle", "ChoiceSequence.validate"),
    "verify.transfer": ("grid_distance",),
    "verify.similarity": ("unitarily_similar", "intertwining_residual"),
    "verify.pure_char": ("_pure_char_residual",),
}


def _resolve(owner, path: str):
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans of wrapped calls; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._calls: list[int] = []
        self._self_s: list[float] = []
        self._stack: list[list] = []  # per open span: [child time, start, span index]
        self.keep_spans = True
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches: list[tuple[object, str, object]] = []
        self._seen_keys = weakref.WeakKeyDictionary()
        self._in_verify = 0
        self._in_group = 0
        self._dumps_depth = 0
        self.groups = defaultdict(float)
        self.counters = defaultdict(int)

    def reset_totals(self):
        """Zero the sums (not the recorded spans), e.g. between passes."""
        self._calls[:] = [0] * len(self._calls)
        self._self_s[:] = [0.0] * len(self._self_s)
        self.groups.clear()
        self.counters.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._self_s.append(0.0)
        return self._ids[name]

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        nid = self._name_id(name)
        stack, calls, self_s = self._stack, self._calls, self._self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = -1
            if self.keep_spans:
                index = len(self.span_name)
                self.span_name.append(nid)
                self.span_parent.append(stack[-1][2] if stack else -1)
                self.span_end.append(0.0)
            frame = [0.0, clock(), index]
            if index >= 0:
                self.span_start.append(frame[1])
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                calls[nid] += 1
                self_s[nid] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    self.span_end[index] = end

        return wrapper

    # -- special wrappers --------------------------------------------------

    def _h_subspace(self, fn):
        seen = self._seen_keys

        @functools.wraps(fn)
        def wrapper(contraction, n, m):
            keys = seen.setdefault(contraction, set())
            if (n, m) not in keys:
                keys.add((n, m))
                self.counters["contractions.h_subspace.computed"] += 1
            return fn(contraction, n, m)

        return wrapper

    def _family(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            systems = fn(*args, **kwargs)
            self.counters["schur.family.systems"] += len(systems)
            return systems

        return wrapper

    def _verify_scope(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._in_verify += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_verify -= 1

        return wrapper

    def _group(self, group: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._in_verify or self._in_group:
                return fn(*args, **kwargs)
            self._in_group += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.groups[group] += time.perf_counter() - start
                self._in_group -= 1

        return wrapper

    def _outermost_dumps(self, fn, traced):
        @functools.wraps(fn)
        def wrapper(obj):
            if self._dumps_depth:
                return fn(obj)
            self._dumps_depth += 1
            try:
                text = traced(obj)
            finally:
                self._dumps_depth -= 1
            self.counters["serialize.report_bytes"] += len(text)
            return text

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        """Point every schurkit module reference to ``original`` at ``new``."""
        import sys

        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "schurkit" or modname.startswith("schurkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, new)

    def _wrap(self, name: str, fn):
        wrapped = self.span(name, fn)
        if name == "contractions.h_subspace":
            return self._h_subspace(wrapped)
        if name == "schur.family":
            return self._family(wrapped)
        if name == "schur.verify_chain":
            return self._verify_scope(wrapped)
        if name == "serialize.dumps":
            return self._outermost_dumps(fn, wrapped)
        return wrapped

    def install(self):
        """Wrap every public function defined in the layer modules (except
        HELPERS), the METHODS, the verify groups and the numpy kernels."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"schurkit.{m}") for m in MODULES}
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in HELPERS):
                    self._replace_everywhere(fn, self._wrap(f"{short}.{attr}", fn))
        for name, (short, path) in METHODS.items():
            owner, attr = _resolve(modules[short], path)
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        for group, paths in VERIFY_GROUPS.items():
            for path in paths:
                owner, attr = _resolve(modules["schur"], path)
                self._patch(owner, attr, self._group(group, getattr(owner, attr)))
        for kernel in KERNELS:
            self._patch(np.linalg, kernel, self.span(f"kernel.{kernel}", getattr(np.linalg, kernel)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def totals(self) -> dict:
        """Plain-data copy of the per-name sums, groups and counters."""
        return {
            "calls": {n: c for n, c in zip(self.names, self._calls) if c},
            "self_s": {n: t for n, t, c in zip(self.names, self._self_s, self._calls) if c},
            "groups": dict(self.groups),
            "counters": dict(self.counters),
        }

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path, extra_spans: list[tuple[list[str], dict]]):
        """Write the recorded spans, and spans from other processes, as one
        compressed ``.npz``: per process the names list and four arrays."""
        arrays = {}
        for proc, (names, spans) in enumerate([(self.names, self.spans()), *extra_spans]):
            arrays[f"p{proc}_names"] = np.array(json.dumps(names))
            for key, values in spans.items():
                arrays[f"p{proc}_{key}"] = values
        np.savez_compressed(path, **arrays)
