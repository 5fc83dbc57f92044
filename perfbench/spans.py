"""Span tracing from outside the library.

``Tracer.install`` replaces each traced function by a recording wrapper
at every module-level binding inside ``popov_interp`` (a function imported
into three modules is wrapped in all three) and ``uninstall`` puts the
originals back.  Each call records a span: name, start, end, parent span
and the root it ran under (``popov``, ``iterative`` or ``verify``).
Spans stay in memory until ``summarize`` turns them into metrics named
``<root>.<module>.<function>.<stat>``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

# every function a per-layer metric is taken from, by layer module
TRACED = {
    "ff_poly": (
        "taylor_shift",
        "binom_mod",
        "poly_mul",
        "poly_mul_trunc",
        "poly_mul_schoolbook",
        "_karatsuba",
        "_ntt_mul",
    ),
    "jordan_module": ("residual", "apply_poly_row", "residual_direct", "standardize"),
    "polymat": ("matmul", "weak_popov_to_popov", "is_popov"),
    "linalg": ("inv_mod", "matmul_mod"),
    "mib_engine": (
        "minimal_interpolation_basis",
        "iterative_weak_popov",
        "split_leading",
        "iterative_mib",
        "interpolant_check",
    ),
    "popov_mib": ("popov_mib", "known_mindeg_mib"),
    "apps": ("gs_instance", "approximant_instance", "order_basis"),
}

# the algorithm a product took: a span of one of these directly under poly_mul
POLY_MUL_PATHS = {
    "ff_poly.poly_mul_schoolbook": "schoolbook",
    "ff_poly._karatsuba": "karatsuba",
    "ff_poly._ntt_mul": "ntt",
}

Span = Tuple[str, int, int, int, Optional[str]]  # name, start ns, end ns, parent, root


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._root: Optional[str] = None
        self._restore = []

    def _record(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self._root)
                stack.pop()

        return traced

    @contextmanager
    def root(self, name: str):
        """Record the enclosed block as a root span and attribute its calls to it.

        Traced functions run only inside a root.
        """
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._root = name
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._root = None
            self.spans[idx] = (name, start, end, -1, name)

    def install(self) -> None:
        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == "popov_interp" or key.startswith("popov_interp.")
        ]
        for layer, names in TRACED.items():
            src = sys.modules[f"popov_interp.{layer}"]
            for fname in names:
                original = getattr(src, fname)
                wrapper = self._record(f"{layer}.{fname}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()


def unit_of(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    return "frac" if metric.endswith("_frac") else "count"


def summarize(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of the recorded spans.

    ``<root>.ms`` is the time of the root calls; for each traced function
    that ran, ``.calls``, ``.ms`` (inclusive) and ``.self_ms`` (minus the
    time its child spans cover); ``popov.ff_poly.poly_mul.<path>`` counts
    the algorithm each product took, and ``popov.popov_mib.depth_max`` is
    the deepest nesting of ``popov_mib`` calls.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    depth = [0] * len(spans)
    for idx, (name, start, end, parent, root) in enumerate(spans):
        dur = end - start
        if parent < 0:
            out[f"{root}.ms"] += dur / 1e6
            continue
        key = f"{root}.{name}"
        out[f"{key}.calls"] += 1
        out[f"{key}.ms"] += dur / 1e6
        out[f"{key}.self_ms"] += (dur - child_ns[idx]) / 1e6
        parent_name = spans[parent][0]
        if name in POLY_MUL_PATHS and parent_name == "ff_poly.poly_mul":
            out[f"{root}.ff_poly.poly_mul.{POLY_MUL_PATHS[name]}"] += 1
        depth[idx] = depth[parent]
        if name == "popov_mib.popov_mib":
            depth[idx] += 1
            key = f"{root}.popov_mib.depth_max"
            out[key] = max(out[key], depth[idx])
    return dict(out)
