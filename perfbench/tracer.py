"""Span tracer that wraps tracersep's public functions from outside the package.

Only a traced run installs the wrappers, and only for the duration of one
operation; end-to-end numbers come from runs that never install them.

Several modules import functions by name (``pipeline`` imports
``unet_forward``, ``cli`` imports ``separate``, ``transformer`` imports
``modulate``), so every module attribute that is the same function object is
patched, not only the one in the defining module. Tensor ops call each other
through module globals (``linear`` calls ``matmul``), so spans nest and a
layer's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import time

import numpy as np

UNTRACED = "untraced"
KEEP_SPANS_OPS = 2  # raw spans are kept for this many operations of each kind

# Methods traced in addition to every public module-level function.
METHODS = (
    ("tensor", "Tensor", "backward", "tensor.backward"),
    ("tensor", "Adam", "step", "tensor.adam_step"),
    ("diffusion", "Denoiser", "__call__", "diffusion.denoiser"),
)
MODULES = ("tensor", "texture", "latent", "diffusion", "transformer", "pipeline",
           "evaluation", "cli")


def _conv_label(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    return f"tensor.conv2d.{mode}"


def _saved_bytes(args, kwargs, result) -> int:
    arr = args[1] if len(args) > 1 else kwargs["arr"]
    return int(np.asarray(arr).nbytes)


def _loaded_bytes(args, kwargs, result) -> int:
    return int(result.nbytes)


LABELLERS = {"tensor.conv2d": _conv_label}
BYTE_COUNTERS = {"tensor.save_tsr": _saved_bytes, "tensor.load_tsr": _loaded_bytes}


def package_modules() -> dict:
    import importlib
    return {name: importlib.import_module(f"tracersep.{name}") for name in MODULES}


def _public_classes(modules: dict):
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if (inspect.isclass(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                yield short, name, obj


def traced_callables(modules: dict) -> list[tuple[object, str, object, str]]:
    """(owner, attribute, original, label) for every patch site.

    Traced are the public functions defined in ``modules``, the constructors
    of their public classes (label ``<module>.<Class>``) and the METHODS.
    Decorated functions such as the context managers ``no_grad`` and
    ``precision`` are left alone, because a span would only cover building
    the context manager.
    """
    labels = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and not hasattr(obj, "__wrapped__")):
                labels[obj] = f"{short}.{name}"
    sites = []
    for mod in modules.values():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj in labels:
                sites.append((mod, name, obj, labels[obj]))
    for short, name, cls in _public_classes(modules):
        init = vars(cls).get("__init__")
        if inspect.isfunction(init):
            sites.append((cls, "__init__", init, f"{short}.{name}"))
    for short, cls_name, meth, label in METHODS:
        cls = getattr(modules[short], cls_name)
        sites.append((cls, meth, vars(cls)[meth], label))
    return sites


def wrapped_sites(modules: dict) -> list[str]:
    """Names of package attributes that currently hold a tracer wrapper."""
    owners = list(modules.values()) + [cls for _, _, cls in _public_classes(modules)]
    return [f"{owner.__name__}.{name}" for owner in owners
            for name, obj in vars(owner).items()
            if hasattr(obj, "__perfbench_original__")]


class Tracer:
    """Records spans for operations and aggregates self time per layer.

    Statistics are keyed by (operation kind, layer) and hold [calls, self
    seconds, inclusive seconds, bytes]. Raw spans are kept only for the first
    KEEP_SPANS_OPS operations of each kind, so memory stays bounded.
    """

    def __init__(self, sites: list, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.stats: dict[tuple[str, str], list] = {}
        self.walls: dict[str, list[float]] = {}
        self.spans: list[dict] = []
        self.ops: list[dict] = []
        self._stack: list[list] = []
        self._kind = None
        self._op = -1
        self._record = False
        self._next_id = 0
        self._sites = sites  # as returned by traced_callables
        self._wrappers = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, label: str) -> list:
        frame = [label, 0.0, 0.0, self._next_id,
                 self._stack[-1][3] if self._stack else -1]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = self.clock()
        return frame

    def _close(self, frame: list, nbytes: int = 0) -> float:
        end = self.clock()
        self._stack.pop()
        label, child, start, span_id, parent = frame
        dur = end - start
        key = (self._kind, label)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += dur - child
        st[2] += dur
        st[3] += nbytes
        if self._stack:
            self._stack[-1][1] += dur
        if self._record:
            self.spans.append({"id": span_id, "name": label, "parent": parent,
                               "op": self._op, "start": start - self.origin,
                               "end": end - self.origin})
        return dur

    @contextlib.contextmanager
    def operation(self, kind: str):
        """Trace one operation of ``kind``; yields a dict that receives 'wall'.

        Wrappers are installed on entry and removed on exit, outside the
        timed root span. The root span's self time is the ``untraced`` row:
        wall time that no layer span covers.
        """
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._op += 1
        self._kind = kind
        done = sum(1 for op in self.ops if op["kind"] == kind)
        self._record = done < KEEP_SPANS_OPS
        self.ops.append({"id": self._op, "kind": kind})
        box = {}
        self.install()
        try:
            root = self._open(UNTRACED)
            try:
                yield box
            finally:
                box["wall"] = self._close(root)
                self.walls.setdefault(kind, []).append(box["wall"])
        finally:
            self.uninstall()
            self._kind = None
            self._record = False

    # -- patching --------------------------------------------------------------

    def _wrapper(self, fn, label: str):
        labeller = LABELLERS.get(label)
        counter = BYTE_COUNTERS.get(label)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(labeller(args, kwargs) if labeller else label)
            nbytes = 0
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    nbytes = counter(args, kwargs, result)
                return result
            finally:
                tracer._close(frame, nbytes)

        traced.__perfbench_original__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, original, label in self._sites:
            wrapper = self._wrappers.get(original)
            if wrapper is None:
                wrapper = self._wrappers[original] = self._wrapper(original, label)
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def table(self, kind: str) -> list[dict]:
        """Per-layer rows for one operation kind, largest self time first."""
        rows = []
        for (k, label), (calls, self_s, total_s, nbytes) in self.stats.items():
            if k == kind:
                rows.append({"layer": label, "calls": calls, "self_s": self_s,
                             "total_s": total_s, "bytes": nbytes})
        rows.sort(key=lambda r: -r["self_s"])
        return rows

    def dump(self) -> dict:
        return {"ops": self.ops, "spans": sorted(self.spans, key=lambda s: s["id"])}
