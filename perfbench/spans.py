"""Per-layer spans, opened around calls into fedvar's public functions.

A ``Tracer`` replaces each target function with a wrapper in every fedvar
module that holds a reference to it, so intra-module calls and calls
through ``from .x import f`` names are both seen. Each wrapper opens a
span on a per-thread stack; on exit it charges its own duration to the
parent span, so a span's self time is its duration less the time of the
traced calls made inside it. Spans stay in memory (compact arrays, one
buffer per thread) until ``save`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array

import numpy as np


def _stage1_rounds(result):
    return {"fed_core.stage1_run.rounds": len(result[1])}


def _admm_iters(result):
    state = result[1]
    return {
        "single_client.fit_admm.iters": state.iterations,
        "single_client.fit_admm.unconverged": int(not state.converged),
    }


def _fista_iters(result):
    return {"fed_core.refine_fista.iters": len(result[1]) - 1}


# (module, attribute, layer name, counter hook on the return value)
TARGETS = (
    ("fedvar.matops", "check_matrix", "matops.check_matrix", None),
    ("fedvar.matops", "svd_truncate", "matops.svd_truncate", None),
    ("fedvar.matops", "svt", "matops.svt", None),
    ("fedvar.matops", "tangent_project", "matops.tangent_project", None),
    ("fedvar.var", "assemble_dgp", "var.assemble_dgp", None),
    ("fedvar.var", "simulate", "var.simulate", None),
    ("fedvar.var", "lag_design", "var.lag_design", None),
    ("fedvar.dp", "add_gaussian_noise", "dp.add_gaussian_noise", None),
    ("fedvar.fed_core", "local_gradient", "fed_core.local_gradient", None),
    ("fedvar.fed_core", "stage1_run", "fed_core.stage1_run", _stage1_rounds),
    ("fedvar.fed_core", "refine_fista", "fed_core.refine_fista", _fista_iters),
    ("fedvar.fed_core", "initial_shared_estimate", "fed_core.initial_shared_estimate", None),
    ("fedvar.fed_core", "fit_federated", "fed_core.fit_federated", None),
    ("fedvar.single_client", "fit_admm", "single_client.fit_admm", _admm_iters),
    ("fedvar.single_client", "fit_baseline", "single_client.fit_baseline", None),
    ("fedvar.rank_select", "client_rank", "rank_select.client_rank", None),
    ("fedvar.metrics", "rmsfe", "metrics.rmsfe", None),
    ("fedvar.harness.experiments", "run_experiment", "harness.run_experiment", None),
    ("fedvar.harness.panels", "load_panel", "harness.load_panel", None),
    ("fedvar.harness.cli", "main", "harness.cli.main", None),
)

COUNTERS = (
    "fed_core.stage1_run.rounds",
    "single_client.fit_admm.iters",
    "single_client.fit_admm.unconverged",
    "fed_core.refine_fista.iters",
)

LAYERS = tuple(t[2] for t in TARGETS)


def replace_everywhere(fn, replacement):
    """Point every fedvar module-level name bound to ``fn`` at
    ``replacement``; returns what ``restore`` needs to undo it."""
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "fedvar" or mod_name.startswith("fedvar.")):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                setattr(module, name, replacement)
                patched.append((module, name, fn))
    return patched


def restore(patched):
    for module, name, fn in reversed(patched):
        setattr(module, name, fn)


class _Buffer:
    """One thread's open-span stack, totals and finished spans."""

    def __init__(self, thread_index, n_names):
        self.thread_index = thread_index
        self.stack = []
        self.next_id = 0
        self.calls = [0] * n_names
        self.self_s = [0.0] * n_names
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.name = array("H")
        self.span = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; read the
    totals with ``totals()`` and write every span with ``save(path)``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._patched = []
        self._t0 = time.perf_counter()

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers), len(TARGETS))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, fn, index, hook):
        clock = time.perf_counter
        get_buffer = self._buffer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            parent = stack[-1][1] if stack else -1
            frame = [0.0, buf.next_id]
            buf.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                buf.calls[index] += 1
                buf.self_s[index] += dur - frame[0]
                buf.name.append(index)
                buf.span.append(frame[1])
                buf.parent.append(parent)
                buf.start.append(start)
                buf.end.append(end)
            if hook is not None:
                for key, value in hook(result).items():
                    buf.counts[key] += value
            return result

        return wrapper

    def install(self):
        """Swap every target for its wrapper wherever fedvar refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for index, (mod_name, attr, _, hook) in enumerate(TARGETS):
            fn = getattr(importlib.import_module(mod_name), attr)
            self._patched += replace_everywhere(fn, self._wrap(fn, index, hook))

    def uninstall(self):
        restore(self._patched)
        self._patched = []

    def totals(self):
        """Calls and self seconds per layer, and counter sums, over every
        thread."""
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        counts = dict.fromkeys(COUNTERS, 0)
        for buf in self._buffers:
            for i, layer in enumerate(LAYERS):
                calls[layer] += buf.calls[i]
                self_s[layer] += buf.self_s[i]
            for key, value in buf.counts.items():
                counts[key] += value
        return calls, self_s, counts

    def save(self, path):
        """Write every finished span: layer index, thread, span id, parent
        span id (-1 for a root), start and end seconds since the tracer
        was made."""
        cols = {k: [] for k in ("name", "thread", "span", "parent", "start", "end")}
        for buf in self._buffers:
            n = len(buf.name)
            cols["name"].append(np.frombuffer(buf.name, dtype=np.uint16))
            cols["thread"].append(np.full(n, buf.thread_index, dtype=np.uint16))
            cols["span"].append(np.frombuffer(buf.span, dtype=np.int64))
            cols["parent"].append(np.frombuffer(buf.parent, dtype=np.int64))
            cols["start"].append(np.frombuffer(buf.start, dtype=np.float64) - self._t0)
            cols["end"].append(np.frombuffer(buf.end, dtype=np.float64) - self._t0)
        arrays = {
            k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()
        }
        np.savez_compressed(path, layers=np.array(LAYERS), **arrays)
