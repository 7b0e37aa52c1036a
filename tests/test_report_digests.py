"""The reports of the seeded runs in scripts/report_digests.py are pinned.

tests/report_digests.txt holds the script's output.  A change that alters
a report on purpose regenerates it in the same change:

    python3 scripts/report_digests.py > tests/report_digests.txt
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_report_digests_match_committed_file():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_digests.py")],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "report_digests.txt").read_text().splitlines()
    assert proc.stdout.splitlines() == want
