"""Spans around the public functions of each blockerlab layer.

Every traced function is replaced by a wrapper in every ``blockerlab``
module that bound it by name, so calls from inside the package (for example
``bipartite_blocker`` calling ``contract_edges``) pass through the span too.
A span records its duration and charges it to the enclosing span as child
time, so each function gets a call count, a total time and a self time
(total minus the time its child spans cover).

The wrappers are installed once per process and cannot be removed; the
benchmark installs them only in the child process that makes the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# The layers are the modules of src/blockerlab; these are their public
# functions that the benchmark records spans for.
TRACED = {
    "cli": ("main",),
    "graphio": ("parse_graph", "parse_sat_instance", "parse_mss_instance"),
    "report": ("verify_report",),
    "recognizers": (
        "recognize_bipartite",
        "recognize_chordal",
        "recognize_cograph",
        "recognize_complete_multipartite",
    ),
    "cotree": ("build_cotree", "proper_colouring"),
    "monochromatic": ("min_mono_edges_fixed_h", "min_mono_edges_deficiency"),
    "bipartite_blocker": (
        "solve_bipartite_contraction_blocker",
        "alpha_after_contraction_bipartite",
        "build_contraction_tree",
    ),
    "parameters": (
        "alpha_exact",
        "omega_exact",
        "chi_exact",
        "alpha_bipartite",
        "mu_bipartite",
        "alpha_chordal",
    ),
    "graph": ("contract_edges", "delete_vertices", "delete_edges"),
    "oracle": ("brute_blocker", "parameter_value", "apply_operation"),
    "reductions": ("build_vc_gadget", "build_chordal_gadget", "build_mss_gadget"),
    "catalogue": ("graph_catalogue",),
    "isomorphism": ("invariant_key", "are_isomorphic"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Per-function call counts, total and child nanoseconds.

    ``active`` is off while the benchmark checks answers, so the checks'
    own calls into the program do not count as the workload's work.
    """

    def __init__(self):
        self.active = False
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.total_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.child_ns = dict.fromkeys(SPAN_NAMES, 0)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        calls, total_ns, child_ns, stack = self.calls, self.total_ns, self.child_ns, self._stack
        clock = time.perf_counter_ns
        call = fn
        if inspect.isgeneratorfunction(fn):
            # A generator function returns before its body runs; consuming
            # it inside the span charges the work to the span.
            def call(*args, **kwargs):
                return iter(list(fn(*args, **kwargs)))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                total_ns[name] += elapsed
                child_ns[name] += stack.pop()
                if stack:
                    stack[-1] += elapsed

        return span

    def install(self) -> None:
        """Rebind every traced function in every blockerlab module."""
        homes = {m: importlib.import_module(f"blockerlab.{m}") for m in TRACED}
        modules = [m for k, m in sys.modules.items() if k == "blockerlab" or k.startswith("blockerlab.")]
        for mod_name, fns in TRACED.items():
            home = homes[mod_name]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def self_ns(self, name: str) -> int:
        return self.total_ns[name] - self.child_ns[name]
