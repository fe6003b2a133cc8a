"""Span tracer that times svadapt's layers from outside the package.

`Tracer.install()` wraps every public function and public method (plus
`__call__`) defined in the layer modules, and rebinds every module-level
name in the package that refers to a wrapped function, so that names a
module imported under its own binding (`harness.train_loss`,
`harness.cosine_score`, `harness.fnv1a64`, ...) are traced too.
`uninstall()` restores the originals. Nothing under `src/` is edited.

While `active`, each wrapped call records one span:

    (span_id, name, start, end, parent_id, run_id, root, self_seconds)

`name` is `layer.function` or `layer.Class.method`; `root` is the name of
the outermost span the call ran under (the public API call the benchmark
made); self time is the span's duration minus that of its direct children.
Counters attached to a few functions (tape length at backward, bytes
hashed, elements updated, distinct embed inputs) are kept per root.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "tensor", "backbone", "adapters", "model", "backend",
    "optim", "metrics", "harness", "synthdata", "rng",
)


def _tape_len(args, _result):
    return [("tape_ops", len(args[0]))]


def _hashed_bytes(args, _result):
    return [("fnv1a64_bytes", len(args[0]))]


def _adam_elements(args, _result):
    opt = args[0]
    return [("elements_updated", sum(p.data.size for ps, _s in opt.groups for p in ps))]


def _corpus_bytes(args, _result):
    return [("corpus_bytes", os.path.getsize(args[0]))]


# span name -> hook(args, result) returning [(counter, amount)]
COUNTER_HOOKS = {
    "tensor.Tape.backward": _tape_len,
    "rng.fnv1a64": _hashed_bytes,
    "optim.Adam.step": _adam_elements,
    "synthdata.write_corpus": _corpus_bytes,
}

# span name -> index of the positional argument whose identity is counted
# once per distinct object (the frames handed to an embed call)
DISTINCT_ARGS = {"model.SVModel.embed": 1}


def is_primitive_op(fn) -> bool:
    """A tensor function is a primitive op when it records onto the tape
    itself; composites such as `linear` only call primitives."""
    return "_record" in fn.__code__.co_names


class Tracer:
    def __init__(self, package: str = "svadapt"):
        self.package = package
        self.active = False
        self.run_id = ""
        self.spans = []
        self.counts = defaultdict(int)  # (root, counter) -> amount
        self.distinct = defaultdict(set)  # name -> ids of distinct inputs
        self.primitives = set()  # span names of primitive tensor ops
        self._stack = []  # frames [span_id, root, child_seconds]
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        hook = COUNTER_HOOKS.get(name)
        distinct_arg = DISTINCT_ARGS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            root = parent[1] if parent else name
            frame = [sid, root, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append((
                    sid, name, start, end, parent[0] if parent else None,
                    tracer.run_id, root, duration - frame[2],
                ))
            if hook is not None:
                for counter, amount in hook(args, result):
                    tracer.counts[(root, counter)] += amount
            if distinct_arg is not None:
                tracer.distinct[name].add(id(args[distinct_arg]))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj)
                    if layer == "tensor" and is_primitive_op(obj):
                        self.primitives.add(name)
                elif inspect.isclass(obj):
                    for mattr, meth in list(vars(obj).items()):
                        public = not mattr.startswith("_") or mattr == "__call__"
                        if public and inspect.isfunction(meth):
                            name = f"{layer}.{obj.__name__}.{mattr}"
                            self._patch(obj, mattr, self._wrap(name, meth))
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        self.active = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def reset(self, run_id: str) -> None:
        """Drop recorded spans and counters and start a new run id."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.spans = []
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.run_id = run_id

    def table(self) -> dict:
        """{(root, name): [calls, total_seconds, self_seconds]} over the
        recorded spans."""
        out = {}
        for _sid, name, start, end, _parent, _run, root, self_s in self.spans:
            row = out.setdefault((root, name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return out
