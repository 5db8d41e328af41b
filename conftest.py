"""Ensure the in-tree sources are importable even without installation.

Offline environments may lack the ``wheel`` package needed for
``pip install -e .``; putting ``src`` on ``sys.path`` keeps the test and
benchmark suites runnable regardless.
"""

import pathlib
import sys

_SRC = pathlib.Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    """Register the golden-file harness flag (see tests/golden/) and the
    opt-in full allocation differential (tests/dtse/)."""
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json snapshots from live results "
        "instead of diffing against them",
    )
    parser.addoption(
        "--full-differential",
        action="store_true",
        default=False,
        help="also compare the allocator with its reference on every BTPC "
        "variant, budget and on-chip count (about a minute more)",
    )
