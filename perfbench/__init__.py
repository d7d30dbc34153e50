"""End-to-end and per-layer benchmark of quakebend (see README.md)."""

import os
import sys

WORKLOADS = ("bend_grid", "deep_words", "metric_oracle")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def use_source_tree():
    """Import quakebend from this checkout's ``src/``, never from an
    installed copy; exit with an error when the sources are absent."""
    if not os.path.isfile(os.path.join(SRC, "quakebend", "cli.py")):
        raise SystemExit(f"perfbench: no quakebend sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import quakebend
    if not os.path.abspath(quakebend.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: quakebend imported from "
                         f"{quakebend.__file__}, not from {SRC}")
    return quakebend
