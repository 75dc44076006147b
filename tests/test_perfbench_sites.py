"""The traced benchmark passes patch module attributes by name
(perfbench/spans.py). A rename in src/ would only surface there, in a
traced run, so check here that every patched attribute exists."""

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
