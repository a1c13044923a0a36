"""Every ``repro.<dotted.name>`` a document names in backticks resolves.

The docs point readers at modules, classes and functions by dotted
name; a rename or a deletion in ``src/`` must fail here rather than
leave a doc naming code that is gone.  ROADMAP.md and CHANGES.md are
history and name code as it was, so they are not checked.
"""

import glob
import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = sorted(glob.glob(os.path.join(ROOT, "docs", "*.md"))) + [
    os.path.join(ROOT, name) for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
]
_FENCE = re.compile(r"```.*?```", re.S)
_SPAN = re.compile(r"`([^`]+)`")
_NAME = re.compile(r"repro(?:\.\w+)+")


def doc_names(path: str) -> list[str]:
    """The dotted names that open a backticked span, outside code fences."""
    with open(path) as handle:
        text = _FENCE.sub("", handle.read())
    names = []
    for span in _SPAN.finditer(text):
        match = _NAME.match(span.group(1))
        if match:
            names.append(match.group(0))
    return names


def resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then ``getattr``
    the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if not (exc.name and (dotted + ".").startswith(exc.name + ".")):
                raise  # a module that exists failed to import
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_docs_name_code():
    assert sum(len(doc_names(path)) for path in DOCS) > 100


@pytest.mark.parametrize("path", DOCS, ids=os.path.basename)
def test_doc_names_resolve(path):
    missing = []
    for name in doc_names(path):
        try:
            resolve(name)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{name}: {exc}")
    assert not missing, f"{os.path.basename(path)} names code that does not resolve: {missing}"
