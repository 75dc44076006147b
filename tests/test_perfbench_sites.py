"""The traced benchmark passes patch module attributes by name
(perfbench/spans.py). A rename in src/ would only surface there, in a
traced run, so check here that every patched attribute exists, and that
the module constants perfbench/worker.py reads are still there."""

import importlib.util
from pathlib import Path

import treeforge
from treeforge import graphio  # noqa: F401  (not imported by the package)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_exists():
    sites = _spans_module()._sites(treeforge)
    assert sites
    missing = [
        f"{module.__name__}.{attribute}"
        for targets, _ in sites.values()
        for module, attribute in targets
        if not callable(getattr(module, attribute, None))
    ]
    assert missing == []


def test_worker_reads_memo_cap():
    # perfbench/worker.py reads this in every traced pass
    from treeforge import tree_count

    cap = getattr(tree_count, "DEFAULT_MEMO_CAP", None)
    assert isinstance(cap, int) and cap >= 1


def test_level_calls_traced_attributes(monkeypatch):
    # the traced search_oracle.level.tau_matrix_calls and canonical_calls
    # count calls to these two module attributes
    from treeforge import search_oracle

    calls = {"tau_matrix": 0, "canonical_form": 0}

    def counter(name):
        inner = getattr(search_oracle, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(search_oracle, name, counter(name))
    search_oracle.clear_level_cache()
    # canonical_form only decides candidates whose first leaves disagree
    # with every class of their count and degree signature; level 7 has such
    # a pair (two 4-regular graphs), level 5 has none
    search_oracle._level(7, None)
    search_oracle.clear_level_cache()
    assert calls["tau_matrix"] >= calls["canonical_form"] > 0


def test_verifier_calls_traced_enumerate_skeletons(monkeypatch):
    # the traced search_oracle.enumerate_skeletons.calls and .found read
    # calls to this module attribute; the level tables call it once per
    # cyclomatic number and process
    from treeforge import search_oracle

    inner = search_oracle.enumerate_skeletons
    levels = []

    def wrapped(cyclomatic):
        levels.append(cyclomatic)
        return inner(cyclomatic)

    monkeypatch.setattr(search_oracle, "enumerate_skeletons", wrapped)
    search_oracle._sweeps.cache_clear()
    try:
        search_oracle.verify_no_smaller_graph(10, 10)
        search_oracle.verify_no_smaller_graph(12, 12)
    finally:
        search_oracle._sweeps.cache_clear()
    assert levels == [2, 3]
