"""Span tracing of pddopt from outside the library.

While a :func:`traced` block is open, every public function of the traced
pddopt modules and every public method of their ``BlockProblem`` subclasses
is replaced by a wrapper that records a span (name, start, end, parent,
solve id). Aliases such as ``multicast._pdd_run`` or ``cli.pdd_run`` are
found by identity and patched too, so a call reaches the wrapper whichever
name the caller uses. Every patched attribute is restored when the block
exits, also on an exception.

Spans live in flat arrays (one entry per span) and are written out after the
run. ``core.rbsum_run`` and ``core.pdd_run`` wrappers also keep what the
library returns but does not record today: the inner solve's ``converged``
flag, and each outer run's iteration count, rho-floor hits and final
feasibility gap.
"""

import contextlib
import functools
import inspect
import time
from array import array

import numpy as np

import pddopt
from pddopt import cli, core, ioformats, multicast, numerics, relay, volmin
from pddopt.core import BlockProblem

TRACED_MODULES = (core, multicast, relay, volmin, numerics, cli, ioformats)

# block index -> name used in the span of ``step(i, ...)``
STEP_BLOCKS = {
    multicast.MulticastProblem: ("t", "w"),
    relay.RelayProblem: ("F", "bars", "X", "V"),
    volmin.VolMinProblem: ("Y", "S", "X"),
}


class SpanRecorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve = array("i")
        self._stack = []
        self.solve_id = -1
        self.inner_solves = []   # (solve id, sweeps, converged) per rbsum_run
        self.outer_runs = []     # (solve id, outer iters, rho floor hits, final h_inf)

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def __len__(self):
        return len(self.start)

    def arrays(self):
        """(name ids, start, end, parent, solve) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.solve, dtype=np.int32))

    def write_csv(self, path):
        names, start, end, parent, solve = self.arrays()
        t0 = start[0] if start.size else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,solve\n")
            for i in range(start.size):
                fh.write(f"{i},{self.names[names[i]]},{start[i] - t0:.9f},"
                         f"{end[i] - t0:.9f},{parent[i]},{solve[i]}\n")

    def totals(self):
        """Per span name: (call count, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans nest on one thread, so children never overlap.
        """
        names, start, end, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        incl = np.bincount(names, weights=dur, minlength=n)
        self_s = np.bincount(names, weights=own, minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}


def _wrap(recorder, name, fn, on_return=None, step_blocks=None):
    @functools.wraps(fn)
    def traced_fn(*args, **kwargs):
        span = name if step_blocks is None else f"{name}_{step_blocks[args[1]]}"
        idx = recorder.open(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if on_return is not None:
            on_return(out)
        return out

    return traced_fn


def _public_functions(module):
    for name, value in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield name, value


def _problem_classes(module):
    for value in vars(module).values():
        if (inspect.isclass(value) and issubclass(value, BlockProblem)
                and value is not BlockProblem and value.__module__ == module.__name__):
            yield value


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self.saved = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def _capture_returns(recorder):
    def rbsum_done(out):
        _, sweeps, converged = out
        recorder.inner_solves.append((recorder.solve_id, int(sweeps), bool(converged)))

    def pdd_done(out):
        trace = out[2]
        h_final = trace.records[-1].h_inf if trace.records else float("nan")
        recorder.outer_runs.append((recorder.solve_id, len(trace.records),
                                    int(trace.rho_floor_hits), float(h_final)))

    return {"core.rbsum_run": rbsum_done, "core.pdd_run": pdd_done}


class traced:
    """Context manager that patches pddopt with span-recording wrappers."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.patches = _Patches()

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.patches.undo()
            raise
        return self.recorder

    def __exit__(self, *exc):
        self.patches.undo()
        return False

    def _install(self):
        captures = _capture_returns(self.recorder)
        wrappers = {}  # original function -> wrapper
        for module in TRACED_MODULES:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, fn in _public_functions(module):
                span = f"{layer}.{name}"
                wrappers[fn] = _wrap(self.recorder, span, fn, on_return=captures.get(span))
            for cls in _problem_classes(module):
                for name, fn in list(vars(cls).items()):
                    if name.startswith("_") or not inspect.isfunction(fn):
                        continue
                    blocks = STEP_BLOCKS.get(cls) if name == "step" else None
                    self.patches.set(cls, name, _wrap(self.recorder, f"{layer}.{name}",
                                                      fn, step_blocks=blocks))
        # patch every module-level binding of a wrapped function, aliases included
        for module in (pddopt, *TRACED_MODULES):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self.patches.set(module, name, wrappers[value])


class counting(traced):
    """Patches only ``core.rbsum_run`` to keep its sweep count and
    ``converged`` flag; no spans. Used by the untraced runs."""

    def _install(self):
        original = core.rbsum_run
        recorder = self.recorder
        on_return = _capture_returns(recorder)["core.rbsum_run"]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            out = original(*args, **kwargs)
            on_return(out)
            return out

        for module in (pddopt, *TRACED_MODULES):
            for name, value in list(vars(module).items()):
                if value is original:
                    self.patches.set(module, name, counted)


def snapshot_bindings():
    """Identity snapshot of every attribute that :class:`traced` may patch."""
    snap = {}
    for module in (pddopt, *TRACED_MODULES):
        snap[module.__name__] = dict(vars(module))
        for cls in _problem_classes(module):
            snap[f"{module.__name__}.{cls.__name__}"] = dict(vars(cls))
    return snap


def changed_bindings(before):
    """Names whose bound object differs from the snapshot ``before``."""
    after = snapshot_bindings()
    changed = []
    for owner, attrs in before.items():
        now = after.get(owner, {})
        changed += [f"{owner}.{k}" for k, v in attrs.items() if now.get(k) is not v]
    return changed
