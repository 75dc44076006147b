"""Span recording from outside the program.

A traced pass replaces each public function of a layer, at every module
attribute its callers read, with a wrapper that records a span: name,
parent span, start, end and a few attributes of the call. Spans stay in
memory; the worker summarises them and writes them out when the pass
ends. Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
from time import perf_counter


# span name -> (module, attribute) sites to patch, attribute extractor
def _sites(tf) -> dict:
    tc, gc, so, mb, idn, gio = (
        tf.tree_count,
        tf.graph_core,
        tf.search_oracle,
        tf.minimal_builder,
        tf.idoneal,
        tf.graphio,
    )
    return {
        "tree_count.tau_matrix": (
            [(tc, "tau_matrix"), (mb, "tau_matrix"), (so, "tau_matrix")],
            lambda a, out: (a[0].vertex_count, out.bit_length()),
        ),
        "tree_count.tau_dc": ([(tc, "tau_dc")], None),
        # the DC memo key is the canonical form, so keep it for distinct-key counts
        "graph_core.canonical_form": (
            [(gc, "canonical_form"), (tc, "canonical_form"), (so, "canonical_form")],
            lambda a, out: (a[0].vertex_count, out),
        ),
        "graph_core.biconnected_components": (
            [(gc, "biconnected_components"), (tc, "biconnected_components")],
            None,
        ),
        "search_oracle.alpha_exact": ([(so, "alpha_exact")], None),
        "search_oracle.beta_exact": ([(so, "beta_exact")], None),
        "search_oracle.enumerate_skeletons": (
            [(so, "enumerate_skeletons")],
            lambda a, out: len(out),
        ),
        "search_oracle.verify_no_smaller_graph": ([(so, "verify_no_smaller_graph")], None),
        "idoneal.theta_representations": (
            [(idn, "theta_representations"), (mb, "theta_representations")],
            None,
        ),
        "idoneal.sieve": ([(idn, "idoneal_numbers_up_to")], lambda a, out: a[0]),
        "constructions.build": (
            [(mb, name) for name in ("build_theta", "build_cycle_glue", "build_bouquet", "build_variant")],
            lambda a, out: out.edge_count,
        ),
        "minimal_builder.build_witness": ([(mb, "build_witness")], None),
        "minimal_builder.check_bounds": ([(mb, "check_bounds")], None),
        "graphio.load_graph": ([(gio, "load_graph")], lambda a, out: len(a[0])),
    }


class Tracer:
    """Spans are lists [name, parent index, start, end, attribute]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attr=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if attr is not None:
                rec[4] = attr(args, out)
            return out

        return wrapper

    def install(self, treeforge_pkg) -> None:
        for name, (sites, attr) in _sites(treeforge_pkg).items():
            # sites that bind the same function share one wrapper
            wrappers: dict[int, object] = {}
            for module, attribute in sites:
                original = getattr(module, attribute)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(name, original, attr)
                self._patched.append((module, attribute, original))
                setattr(module, attribute, wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    # -----------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (span
        time minus the time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, _, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def under(self, ancestors: set[str]):
        """Spans that have an ancestor whose name is in ``ancestors``."""
        inside = [False] * len(self.spans)
        for i, (name, parent, *_rest) in enumerate(self.spans):
            if parent >= 0:
                inside[i] = inside[parent] or self.spans[parent][0] in ancestors
            if inside[i]:
                yield self.spans[i]

    def compact(self) -> dict:
        """Spans in a form that can be written out: names are indexed."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        return {
            "names": names,
            "fields": ["name", "parent", "start_us", "end_us"],
            "spans": [
                [index[n], p, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1)]
                for n, p, s, e, _ in self.spans
            ],
        }
