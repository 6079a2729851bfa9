"""Span and counter recording around selmer3's public functions, used only
in the benchmark's traced run.

`Tracer.install` wraps every public function and method of the nine
modules.  selmer3 modules import names with `from .x import y`, so each
wrapper replaces the name in every selmer3 module that holds it;
`uninstall` puts the originals back.  Calls made outside a request (the
benchmark's own checks) pass straight through.

Each wrapped call is timed on a stack, so a function's self time is its
duration minus the time of the wrapped calls beneath it.  A span (id,
parent id, request id, name, start, end) is recorded only where the call
crosses from one layer into another; spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli", "prym", "selmerratio", "twistfamilies", "localclass",
    "cubicforms", "padicroots", "oracle", "localfield",
)


def _local_exponent_key(args, kwargs):
    profile = args[0] if args else kwargs.get("profile")
    datum = args[2] if len(args) > 2 else kwargs.get("datum")
    if datum is None:
        return (None, profile)
    return (datum.place.p, datum.v_d, datum.squares, datum.r, profile)


class Tracer:
    """Counters, self times and spans of one traced run."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()  # per function
        self.layer_self_ns: Counter[str] = Counter()
        self.max_ns: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.request_ns = 0
        self.lattices_checked = 0
        self.exponent_keys: set = set()
        self.spans: list[list] = []  # [id, parent, request, name, start_ns, end_ns]
        self._stack: list[list] = []  # [layer, name, start, child_ns, span_id]
        self._seen_errors: list[BaseException] = []
        self._request_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def request(self, request_id: int, fn, *args):
        """Run fn(*args) as one request: the root frame of its spans."""
        self._request_id = request_id
        start = time.perf_counter_ns()
        self._stack.append(["bench", "request", start, 0, self._new_span(0, "request", start)])
        try:
            return fn(*args)
        finally:
            frame = self._stack.pop()
            end = time.perf_counter_ns()
            self.request_ns += end - start
            self._close_span(frame[4], end)

    def _new_span(self, parent: int, name: str, start: int) -> int:
        self.spans.append([len(self.spans) + 1, parent, self._request_id, name, start, None])
        return len(self.spans)

    def _close_span(self, span_id: int, end: int) -> None:
        if span_id:
            self.spans[span_id - 1][5] = end

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        calls, self_ns, layer_self_ns, max_ns = self.calls, self.self_ns, self.layer_self_ns, self.max_ns
        on_call = None
        if name == "selmerratio.local_exponent":
            on_call = lambda args, kwargs: self.exponent_keys.add(_local_exponent_key(args, kwargs))  # noqa: E731
        elif name == "oracle.orders_of_index":
            on_call = self._count_lattices

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            calls[name] += 1
            if on_call is not None:
                on_call(args, kwargs)
            parent = stack[-1]
            start = time.perf_counter_ns()
            span_id = self._new_span(parent[4], name, start) if parent[0] != layer else 0
            frame = [layer, name, start, 0, span_id or parent[4]]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                self._count_error(err)
                raise
            finally:
                stack.pop()
                end = time.perf_counter_ns()
                dur = end - start
                own = dur - frame[3]
                self_ns[name] += own
                layer_self_ns[layer] += own
                if dur > max_ns[name]:
                    max_ns[name] = dur
                parent[3] += dur
                self._close_span(span_id, end)

        return wrapper

    def _count_lattices(self, args, kwargs) -> None:
        p = args[1] if len(args) > 1 else kwargs["p"]
        j = args[2] if len(args) > 2 else kwargs["j"]
        self.lattices_checked += (p ** (j + 1) - 1) // (p - 1)  # sigma(p^j)

    def _count_error(self, err: BaseException) -> None:
        # an error is counted once, however many wrapped frames it crosses
        if any(seen is err for seen in self._seen_errors):
            return
        self._seen_errors.append(err)
        self.errors[type(err).__name__] += 1

    # -- installation --------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}  # id of an original function -> its wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"selmer3.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "selmer3" and not mod_name.startswith("selmer3."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(layer, name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(layer, name, raw)
            else:
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def metrics(self, members: int, bytes_out: int, untraced_ns: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        s = 1e-9
        c = self.calls

        def per(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self_ns[layer] * s, "s")
        out["cli.bytes_out"] = (bytes_out, "bytes")
        out["twistfamilies.factorize.calls"] = (c["twistfamilies.factorize"], "count")
        out["twistfamilies.factorize.self_s"] = (self.self_ns["twistfamilies.factorize"] * s, "s")
        out["twistfamilies.factorize_per_member"] = (per(c["twistfamilies.factorize"], members), "calls/member")
        out["twistfamilies.enumerate_classes.self_s"] = (self.self_ns["twistfamilies.enumerate_classes"] * s, "s")
        out["selmerratio.global_report.calls"] = (c["selmerratio.global_report"], "count")
        out["selmerratio.local_exponent.calls"] = (c["selmerratio.local_exponent"], "count")
        out["selmerratio.local_exponent.distinct_ratio"] = (
            per(len(self.exponent_keys), c["selmerratio.local_exponent"]), "ratio")
        out["localclass.build_twist_datum.calls"] = (c["localclass.build_twist_datum"], "count")
        out["localclass.unramified_cubic_form.max_ms"] = (self.max_ns["localclass.unramified_cubic_form"] * 1e-6, "ms")
        out["localfield.valuation.calls"] = (c["localfield.valuation"], "count")
        out["localfield.is_prime.calls"] = (c["localfield.is_prime"], "count")
        out["localfield.is_prime_per_valuation"] = (per(c["localfield.is_prime"], c["localfield.valuation"]), "ratio")
        out["prym.assemble_local_exponents.calls"] = (c["prym.assemble_local_exponents"], "count")
        out["prym.solve_three_adic.per_member"] = (per(c["prym.solve_three_adic"], members), "calls/member")
        out["cubicforms.ring_mul.calls"] = (c["cubicforms.CubicRing.mul"], "count")
        out["cubicforms.act.calls"] = (c["cubicforms.act"], "count")
        out["cubicforms.ring_discriminant.self_s"] = (self.self_ns["cubicforms.CubicRing.discriminant"] * s, "s")
        out["padicroots.has_ring_root.calls"] = (c["padicroots.has_ring_root"], "count")
        out["padicroots.precision_errors"] = (self.errors["PrecisionError"], "count")
        out["oracle.enumerate_orbits.self_s"] = (self.self_ns["oracle.enumerate_orbits"] * s, "s")
        out["oracle.lattices_checked"] = (self.lattices_checked, "count")
        out["oracle.ext_val.calls"] = (c["oracle.CubicExtModel.val"], "count")
        out["oracle.scan_forms.self_s"] = (self.self_ns["oracle.scan_forms_low_valuation"] * s, "s")
        out["oracle.budget_errors"] = (self.errors["BudgetError"], "count")
        covered = sum(self.layer_self_ns[layer] for layer in LAYERS)
        out["trace.overhead_ratio"] = (per(self.request_ns, untraced_ns), "ratio")
        out["trace.coverage"] = (per(covered, self.request_ns), "ratio")
        return out

    def write(self, path) -> None:
        """All recorded spans, one per line: id parent request name start end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
