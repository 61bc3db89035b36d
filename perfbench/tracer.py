"""Outside-in span tracer for quintic's layers.

The tracer wraps, from outside the package, the public functions that mark
each layer boundary, and swaps every binding of each one: ``from .intarith
import factorize`` copies the name into ``radicand``, ``primes`` and
``genus``, so replacing ``intarith.factorize`` alone would miss most calls.
One op (a CLI invocation) is the root span ``cli``; a span's self time is
its duration minus the time its child spans cover, so the self times of all
spans in an op add up to the op's duration.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

#: layer boundaries, bottom of the stack first
TRACED = {
    "intarith": ("factorize", "is_prime", "primitive_root"),
    "cyclo": ("gcd", "euclid_divmod", "exact_div", "hyperprimary_class", "norm"),
    "polyfp": ("powmod", "gcd"),
    "primes": ("factor_radicand", "factor_rational_prime", "primary_normalize"),
    "symbols": ("quintic_symbol",),
    "radicand": ("classify", "is_fifth_power_free"),
    "genus": ("period_polynomial", "absolute_genus", "relative_genus", "count_ramified_d", "build_genus_report"),
    "classgroup": (
        "enumerate_capitulation_types",
        "generator_certificate",
        "canonical_model",
        "build_lattice",
        "tau2_permutation",
    ),
}

ROOT = "cli"
#: floats per recorded span: id, parent id, name index, op id, start, end
_SPAN_FIELDS = 6


def quintic_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "quintic" or name.startswith("quintic.")]


class Tracer:
    """Records spans in memory and aggregates calls and self time per name."""

    def __init__(self):
        self.names = [ROOT] + [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.spans = array("d")
        self.root_s = 0.0  # summed duration of the root spans
        self._stack: list[list] = []  # per open span: [child seconds, span id]
        self._next_id = 0
        self._op_id = -1
        self._swapped: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                calls[idx] += 1
                self_s[idx] += dur - frame[0]
                spans.extend((sid, parent[1], idx, self._op_id, t0, t1))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        """Replace every binding of each traced function in the loaded quintic modules."""
        import importlib

        modules = quintic_modules()
        for mod_name, fns in TRACED.items():
            mod = importlib.import_module(f"quintic.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(mod, fn_name)
                wrapper = self._wrap(self.index[name], orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._swapped.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._swapped):
            setattr(m, attr, orig)
        self._swapped.clear()

    @contextmanager
    def op(self, op_id: int):
        """Root span for one CLI invocation."""
        self._op_id = op_id
        sid = self._next_id
        self._next_id = sid + 1
        frame = [0.0, sid]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.root_s += t1 - t0
            self.calls[0] += 1
            self.self_s[0] += t1 - t0 - frame[0]
            self.spans.extend((sid, -1, 0, op_id, t0, t1))

    def span_count(self) -> int:
        return len(self.spans) // _SPAN_FIELDS

    def write(self, path):
        """One tab-separated line per span: id, parent, name, op, start_s, end_s."""
        s = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\top\tstart_s\tend_s\n")
            for i in range(0, len(s), _SPAN_FIELDS):
                fh.write(
                    f"{int(s[i])}\t{int(s[i + 1])}\t{self.names[int(s[i + 2])]}\t{int(s[i + 3])}\t"
                    f"{s[i + 4]:.9f}\t{s[i + 5]:.9f}\n"
                )
