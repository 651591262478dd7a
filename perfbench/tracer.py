"""Per-layer spans for grex, recorded from outside the program.

`Tracer.install` replaces every public function of the grex modules named
in `MODULES`, plus the private functions that per-layer metrics name, by a
wrapper that records one span per call.  A function is replaced wherever it
is bound: in its own module, in every module that took it with
`from ... import`, and in the package namespace that re-exports it.  The
grex source is not modified.

Spans are aggregated per name as they close, so memory stays constant
however many calls are made: call count, inclusive time (outermost call of
a name only, so recursion is not counted twice) and self time (the span's
duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time

MODULES = ("diagrams", "schur", "kernels", "bott", "lefschetz", "ktheory", "staircase", "cli")


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth", "misses")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.misses = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.tableaux = 0
        self.pairings_in_mutations = 0
        self._open: list[list[float]] = []  # child time of each open span
        self._modules: dict[str, object] = {}

    def stat(self, name: str) -> _Stat:
        return self.stats.setdefault(name, _Stat())

    def wrap(self, name: str, fn, cache_size=None):
        """`fn` with a span named `name`.

        `cache_size(args)`, when given, reads the size of the cache `fn`
        fills; a call that grows it counts as a miss.
        """
        st = self.stat(name)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            st.depth += 1
            size0 = cache_size(args) if cache_size else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if cache_size and cache_size(args) > size0:
                    st.misses += 1
                open_spans.pop()
                st.depth -= 1
                st.calls += 1
                st.self_time += dt - child[0]
                if not st.depth:
                    st.total += dt
                if open_spans:
                    open_spans[-1][0] += dt

        return span

    def install(self) -> None:
        for short in MODULES:
            try:
                self._modules[short] = importlib.import_module("grex." + short)
            except ImportError:
                continue  # a later version of grex may drop a module
        for short, mod in self._modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and callable(fn)
                    and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == mod.__name__
                ):
                    self._replace(fn, self._span_for(short, attr, fn))
        self._install_private()

    def _span_for(self, short: str, attr: str, fn):
        name = f"{short}.{attr}"
        cache_size = None
        if name == "kernels.skew_lr_contents":
            fn = self._count_tableaux(fn)
        elif name == "ktheory.mutate_left":
            fn = self._count_pairings(fn)
        elif name == "schur.lr_product":
            schur = self._modules["schur"]

            def cache_size(args):
                return len(getattr(schur, "_LR_CACHE", ()))

        return self.wrap(name, fn, cache_size)

    def _count_tableaux(self, fn):
        """Sum the tableau counts a skew-LR call returns."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.tableaux += sum(out.values())
            return out

        return counted

    def _count_pairings(self, fn):
        """Count the Euler pairings made inside each mutation."""
        pairings = self.stat("ktheory.euler_pairing")

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = pairings.calls
            try:
                return fn(*args, **kwargs)
            finally:
                self.pairings_in_mutations += pairings.calls - before

        return counted

    def _install_private(self) -> None:
        ktheory = self._modules.get("ktheory")
        if ktheory is None:
            return
        ctx = getattr(ktheory, "_Ctx", None)
        if ctx is not None and hasattr(ctx, "chi_pair"):
            ctx.chi_pair = self.wrap(
                "ktheory.chi_pair", ctx.chi_pair, lambda args: len(args[0].chis)
            )
        if hasattr(ktheory, "_bareiss_det"):
            self._replace(
                ktheory._bareiss_det, self.wrap("ktheory.bareiss_det", ktheory._bareiss_det)
            )

    def _replace(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "grex" or modname.startswith("grex.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def chi_pair_entries(self) -> int:
        """Entries held by every live `chi_pair` cache."""
        ktheory = self._modules.get("ktheory")
        ctx = getattr(ktheory, "_Ctx", None)
        if ctx is None:
            return 0
        return sum(len(o.chis) for o in gc.get_objects() if type(o) is ctx)

    def cache_entries(self, short: str, attr: str) -> int:
        return len(getattr(self._modules.get(short), attr, ()))
