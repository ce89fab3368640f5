"""The benchmark's layer boundaries still exist in the package.

``perfbench/tracing.py`` wraps the functions named in its ``BOUNDARIES``
table; a boundary renamed or deleted there reads as an absent metric only
after a benchmark run.  Resolving every name here (without installing any
wrapper) turns such a rename into a test failure instead.
"""

import importlib.util
import inspect
from pathlib import Path

from ksgrowup import pde

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_boundary_resolves():
    missing = []
    for key in tracing.BOUNDARIES:
        try:
            tracing._resolve(key)
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append(f"{key}: {exc}")
    assert missing == []


def test_boundary_signatures():
    # the tracer counts accepted steps through _advance's post_check and
    # full-length Newton solves through newton's maxit
    assert "post_check" in inspect.signature(pde._advance).parameters
    assert "maxit" in inspect.signature(pde._UProblem.newton).parameters
