"""Per-layer tracing of the dqdtherm modules from outside the package.

Each traced function is replaced by a wrapper that records an enter and an
exit event. The package imports functions by name (`from .qmatrix import
eig_sym`), so the wrapper is bound in every loaded `dqdtherm` module that
holds the original, not only in the module that defines it. Work handed
to a thread pool is linked to the span that submitted it, because
`run_sweep` evaluates points on a `ThreadPoolExecutor`.

Self time shares the wall clock: at each instant it is split evenly among
the innermost spans of the threads that are running traced code, so the
self times of a pass sum to at most its traced wall time even when pool
threads overlap. A span whose submitted work is still running waits and
gets no share, unless no thread runs traced code at that instant.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import sys
import threading
import time

PACKAGE = "dqdtherm"

# The public functions of each layer, named <module>.<function>.
LAYERS = {
    "qmatrix": ("eig_sym", "check_density_matrix", "psd_sqrt"),
    "model": ("build_hamiltonian", "analytic_energies", "ground_state", "find_anticrossing"),
    "thermal": ("thermal_state", "populations", "reduce_a", "reduce_b"),
    "correlations": ("concurrence", "correlated_coherence", "local_angles", "l1_coherence",
                     "fidelity_pure", "concurrence_closed_form"),
    "sweep": ("run_sweep", "evaluate_point", "write_rows", "csv_lines", "find_coherence_peak"),
    "validate": ("run_validation",),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

_ENTER, _EXIT, _LINK, _UNLINK = range(4)


class Tracer:
    """Install with `with tracer:`; each `with` block is one traced pass."""

    def __init__(self, functions=FUNCTIONS):
        self.functions = tuple(functions)
        self.events = []
        self._local = threading.local()
        self._ids = iter(range(1, sys.maxsize))
        self._restore = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, index, fn):
        record = self.events.append
        stack_of = self._stack
        next_id = self._ids.__next__
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next_id()
            stack.append(sid)
            record((clock(), _ENTER, threading.get_ident(), sid, index))
            try:
                return fn(*args, **kwargs)
            finally:
                record((clock(), _EXIT, threading.get_ident(), sid, index))
                stack.pop()

        return traced

    def _submit_wrapper(self, submit):
        tracer = self

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0

            def linked(*a, **k):
                tid = threading.get_ident()
                tracer.events.append((time.perf_counter_ns(), _LINK, tid, parent, -1))
                try:
                    return fn(*a, **k)
                finally:
                    tracer.events.append((time.perf_counter_ns(), _UNLINK, tid, parent, -1))

            return submit(pool, linked, *args, **kwargs)

        return traced_submit

    def _rebind(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        self.events = []
        homes = {}
        for mod_name in {q.split(".")[0] for q in self.functions}:
            try:
                homes[mod_name] = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                pass  # a removed module reports 0 calls
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for index, qualname in enumerate(self.functions):
            mod_name, fn_name = qualname.split(".")
            original = getattr(homes.get(mod_name), fn_name, None)
            if not callable(original):
                continue  # a removed function reports 0 calls
            wrapper = self._wrap(index, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        pool = concurrent.futures.ThreadPoolExecutor
        self._rebind(pool, "submit", self._submit_wrapper(pool.submit))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)
        return False

    # -- analysis --------------------------------------------------------

    def summary(self):
        """Per-function (calls, self seconds) for the events of the last pass."""
        n = len(self.functions)
        calls = [0] * n
        self_ns = [0.0] * n
        stacks = {}  # thread -> [(span, function)]
        waiting = {}  # span -> submitted tasks still running
        last = None
        for t, kind, tid, sid, index in sorted(self.events, key=lambda e: e[0]):
            if last is not None and t > last:
                leaves = [s[-1] for s in stacks.values() if s]
                share = [f for s, f in leaves if not waiting.get(s)] or [f for _, f in leaves]
                for f in share:
                    self_ns[f] += (t - last) / len(share)
            last = t
            stack = stacks.setdefault(tid, [])
            if kind == _ENTER:
                calls[index] += 1
                stack.append((sid, index))
            elif kind == _EXIT:
                stack.pop()
            elif kind == _LINK:
                waiting[sid] = waiting.get(sid, 0) + 1
            else:
                waiting[sid] -= 1
        return {name: (calls[i], self_ns[i] / 1e9) for i, name in enumerate(self.functions)}
