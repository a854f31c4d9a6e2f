"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the library from the outside: it
replaces each name where its callers look it up (the defining module,
every module that imported the name, and class attributes for methods),
and `Patches.restore` puts the originals back.  Nothing under `src/`
changes.

Three kinds of wrapper keep the cost proportional to what is asked of a
function:

* `span`: a stored span (name, start, end, parent span, item id) plus
  aggregated time;
* `timer`: aggregated calls, inclusive and self time but no stored span,
  for functions called hundreds of thousands of times per run;
* `counter`: a call count only, for the innermost ring and group
  operations, where even two clock reads per call would dominate.

Self time of a frame is its duration minus the durations of the timed
frames directly inside it, so the self times of all frames under the
per-item root spans add up to the root durations exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, item id]
        self.item = None         # id of the item being run, or "setup"
        self._stack = []         # open timed frames: [start, child time]
        self._open = []          # indices of open stored spans
        self._active = defaultdict(int)       # name -> open frames
        self._layer_depth = defaultdict(int)  # layer -> open frames
        self.calls = defaultdict(int)         # name -> completed frames
        self.incl = defaultdict(float)        # name -> outermost inclusive time
        self.layer_incl = defaultdict(float)  # layer -> outermost inclusive time
        self.layer_self = defaultdict(float)  # layer -> self time
        self.counts = defaultdict(int)        # free-form counters
        self._counter_cells = {}              # name -> [count]

    # -- wrappers -----------------------------------------------------
    def _timed(self, fn, name, layer, store, recursive, after):
        tr = self
        stack = self._stack
        active = self._active
        depth = self._layer_depth
        spans = self.spans
        open_spans = self._open

        def wrapper(*args, **kwargs):
            if recursive and active[name]:
                # a recursive call is charged to its outermost frame
                return fn(*args, **kwargs)
            idx = None
            start = _clock()
            if store:
                idx = len(spans)
                parent = open_spans[-1] if open_spans else None
                spans.append([name, start, None, parent, tr.item])
                open_spans.append(idx)
            frame = [start, 0.0]
            stack.append(frame)
            active[name] += 1
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                active[name] -= 1
                depth[layer] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tr.layer_self[layer] += dur - frame[1]
                tr.calls[name] += 1
                if not active[name]:
                    tr.incl[name] += dur
                if not depth[layer]:
                    tr.layer_incl[layer] += dur
                if store:
                    spans[idx][2] = end
                    open_spans.pop()
            if after is not None:
                after(tr, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, layer, recursive=False, after=None):
        return lambda fn: self._timed(fn, name, layer, True, recursive, after)

    def timer(self, name, layer, after=None):
        return lambda fn: self._timed(fn, name, layer, False, False, after)

    def counter(self, name):
        cell = self._counter_cells.setdefault(name, [0])

        def make(fn):
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def count(self, name):
        cell = self._counter_cells.get(name)
        return self.counts[name] + (cell[0] if cell else 0)

    # -- explicit spans for the benchmark's own loop -------------------
    def run_span(self, name, layer, item, fn, *args):
        """Run fn(*args) as a root span of `item`."""
        self.item = item
        try:
            return self.span(name, layer)(fn)(*args)
        finally:
            self.item = None

    # -- accounting ---------------------------------------------------
    def self_total(self):
        return sum(self.layer_self.values())

    def dump(self, fh):
        """Write the stored spans as JSON lines."""
        for i, (name, start, end, parent, item) in enumerate(self.spans):
            fh.write(json.dumps({
                "id": i, "name": name, "start": start, "end": end,
                "parent": parent, "item": item,
            }) + "\n")


class Patches:
    """Replace names across a set of modules and put them back."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._undo = []

    def function(self, module, attr, make):
        """Wrap module.attr everywhere a module holds the same object."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapped = make(original)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)
                elif isinstance(value, dict) and not key.startswith("__"):
                    # dispatch tables such as verify._CASE_FUNCS
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append(("item", value, k, v))
                            value[k] = wrapped
        return True

    def method(self, cls, attr, make):
        """Wrap cls.attr and every alias of it in the class body
        (e.g. `__rmul__ = __mul__`)."""
        original = cls.__dict__.get(attr)
        if original is None:
            return False
        wrapped = make(original)
        for key, value in list(vars(cls).items()):
            if value is original:
                self._set(cls, key, wrapped)
        return True

    def _set(self, owner, key, value):
        self._undo.append(("attr", owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self):
        while self._undo:
            kind, owner, key, value = self._undo.pop()
            if kind == "attr":
                setattr(owner, key, value)
            else:
                owner[key] = value
