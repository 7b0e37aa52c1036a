#!/usr/bin/env python3
"""Reproduce the built-in 2d worked example end to end.

Runs the CCZ/X action pipeline on a 12x12 window, prints mu, u and the
tau class, optionally re-checks gauge invariance, and writes a JSON
report.  Window stability is checked by `anomalion anomaly2d
--check-window`.

    python scripts/reproduce_ccz.py [--window 12x12] [--margin 3]
        [--check-gauge 20] [--report ccz_report.json]

The program is imported from the `src` directory next to this script, so
it runs from a checkout without installing the package.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from anomalion.cli import main  # noqa: E402

if __name__ == "__main__":
    args = sys.argv[1:]
    if "--report" not in args:
        args += ["--report", "ccz_report.json"]
    sys.exit(main(["reproduce-ccz", *args]))
