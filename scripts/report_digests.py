#!/usr/bin/env python3
"""Print a SHA-256 digest of the JSON report of a fixed set of CLI runs.

Every run is seeded, so two versions of the program that compute the same
results print the same lines.  Run it in two checkouts and diff the output
to check that a change keeps the reports byte-identical:

    python3 scripts/report_digests.py > digests.txt

The program is imported from the `src` directory next to this script.
Reports are written to a temporary directory that is removed at the end.
Each line is `sha256  command`; the exit code is 1 if any run fails.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# ccz_x_2d times a trivially acting Z2, as an action config: element i of
# Z2^3 has bits (g1, g2, z), with an X layer if g2 and a CCZ layer if g1.
ORDER8_CONFIG = {
    "name": "ccz_x_2d_times_trivial_z2",
    "group": {
        "order": 8,
        "mul": [i ^ j for i in range(8) for j in range(8)],
        "names": [f"e{i}" for i in range(8)],
    },
    "generators": [
        {
            "element": f"e{i}",
            "layers": ([{"pattern": "x_sites"}] if i & 2 else [])
            + ([{"pattern": "ccz_triangles"}] if i & 4 else []),
        }
        for i in range(8)
    ],
}

# levin_gu_1d times a trivially acting Z2: element i of Z2^2 has the X and
# chain-CZ layers if i & 1, so e1 and e3 have one and the same circuit.
LEVIN_GU_Z2_CONFIG = {
    "name": "levin_gu_1d_times_trivial_z2",
    "group": {
        "order": 4,
        "mul": [i ^ j for i in range(4) for j in range(4)],
        "names": [f"e{i}" for i in range(4)],
    },
    "generators": [
        {
            "element": f"e{i}",
            "layers": [{"pattern": "x_sites"}, {"pattern": "cz_chain_edges"}] if i & 1 else [],
        }
        for i in range(4)
    ],
}

# Z2 acting by CZ on the horizontal edges outside the unit origin disk,
# written with the cz_edges alias and a nested region: a config layer
# that no builtin has.
CZ_OUTSIDE_DISK_CONFIG = {
    "name": "cz_outside_disk",
    "group": {"order": 2, "mul": [0, 1, 1, 0], "names": ["e", "x"]},
    "generators": [
        {
            "element": "x",
            "layers": [
                {
                    "pattern": "cz_edges",
                    "region": {"kind": "complement", "inner": {"kind": "origin_disk", "radius": 1}},
                }
            ],
        }
    ],
}

# Z8 -> Z8 by x4 with trivial action: the kernel is Z4 and pi1 = Z8/{0,4}
# is Z4, so the postnikov class is a Z4-valued 3-cochain (the SNF path),
# and each of the 4 pi1 elements has 2 lifts: 16 sections.
POSTNIKOV_CM = {
    "kind": "crossed_module",
    "M": {"order": 8, "mul": [(i + j) % 8 for i in range(8) for j in range(8)], "name": "Z8"},
    "N": {"order": 8, "mul": [(i + j) % 8 for i in range(8) for j in range(8)], "name": "Z8"},
    "bd": [4 * i % 8 for i in range(8)],
    "act": [list(range(8)) for _ in range(8)],
}


# L = K = P = Z2 with trivial maps, actions and braiding: a valid
# two-crossed module whose three homotopy groups are all Z2.
_Z2 = {"order": 2, "mul": [0, 1, 1, 0], "name": "Z2"}
TRIVIAL_Z2_T2CM = {
    "kind": "two_crossed_module",
    "L": _Z2, "K": _Z2, "P": _Z2,
    "delta": [0, 0], "bd": [0, 0],
    "act_L": [[0, 1], [0, 1]], "act_K": [[0, 1], [0, 1]],
    "braid": [[0, 0], [0, 0]],
}


def _normal_subgroup_square() -> dict:
    """The crossed square of the normal subgroups M = S3 and N = A3 of
    P = S3: L = A3 is their intersection, the maps are inclusions, the
    actions conjugation, and eta(m, n) = m n m^-1 n^-1 (which lies in A3)."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(a, b):
        return index[tuple(perms[a][perms[b][i]] for i in range(3))]

    def inv(a):
        return next(b for b in range(6) if mul(a, b) == 0)

    def group(members, name):
        pos = {e: i for i, e in enumerate(members)}
        return {"order": len(members), "name": name,
                "mul": [pos[mul(a, b)] for a in members for b in members]}

    s3 = list(range(6))
    a3 = [e for e in s3 if sum(perms[e][j] > perms[e][i] for i in range(3) for j in range(i)) % 2 == 0]
    pos3 = {e: i for i, e in enumerate(a3)}

    def conj_table(members, pos):
        return [[pos[mul(mul(p, x), inv(p))] for x in members] for p in s3]

    return {
        "kind": "crossed_square",
        "L": group(a3, "A3"), "M": group(s3, "S3"), "N": group(a3, "A3"), "P": group(s3, "S3"),
        "f": a3, "g": [0, 1, 2], "v": s3, "u": a3,
        "act_L": conj_table(a3, pos3), "act_M": conj_table(s3, {e: e for e in s3}),
        "act_N": conj_table(a3, pos3),
        "eta": [[pos3[mul(mul(m, n), mul(inv(m), inv(n)))] for n in a3] for m in s3],
    }


RUNS = (
    ["reproduce-ccz", "--check-gauge", "2", "--seed", "1"],
    ["anomaly2d", "--check-window", "--seed", "2"],
    ["anomaly2d", "--action", "order8_action.json", "--seed", "3"],
    ["anomaly1d", "--action", "levin_gu_1d", "--seed", "4"],
    ["eta-check", "--pairs", "100", "--seed", "5"],
    ["crossed", "lattice", "--samples", "50", "--seed", "6"],
    ["spt", "--mode", "relative1d", "--seed", "7"],
    ["spt", "--mode", "trivialize2d", "--action", "ccz_x_2d", "--seed", "8"],
    ["crossed", "postnikov", "--input", "postnikov_cm.json", "--all-sections", "--seed", "9"],
    ["crossed", "validate", "--input", "square.json"],
    ["crossed", "convert", "--input", "square.json"],
    ["anomaly1d", "--action", "levin_gu_z2_action.json", "--seed", "10"],
    ["anomaly2d", "--action", "onsite_x_2d", "--seed", "11"],
    ["anomaly1d", "--action", "onsite_x_1d", "--seed", "12"],
    ["anomaly1d", "--action", "onsite_xx_1d", "--seed", "13"],
    ["spt", "--mode", "trivialize2d", "--action", "onsite_x_2d", "--seed", "14"],
    ["spt", "--mode", "trivialize2d", "--action", "onsite_x_2d", "--basis", "z", "--seed", "15"],
    ["crossed", "homotopy", "--input", "z2_t2cm.json"],
    ["crossed", "validate", "--input", "postnikov_cm.json"],
    ["crossed", "validate", "--input", "z2_t2cm.json"],
    ["anomaly2d", "--action", "cz_outside_disk.json", "--check-window", "--seed", "16"],
    ["anomaly2d", "--action", "order8_action.json", "--check-gauge", "1", "--seed", "17"],
    ["anomaly1d", "--action", "levin_gu_1d", "--check-window", "--seed", "18"],
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=SRC)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="report-digests-") as tmp:
        # reports name the config by the path given, so it is relative to cwd
        with open(os.path.join(tmp, "order8_action.json"), "w") as fh:
            json.dump(ORDER8_CONFIG, fh)
        with open(os.path.join(tmp, "levin_gu_z2_action.json"), "w") as fh:
            json.dump(LEVIN_GU_Z2_CONFIG, fh)
        with open(os.path.join(tmp, "cz_outside_disk.json"), "w") as fh:
            json.dump(CZ_OUTSIDE_DISK_CONFIG, fh)
        with open(os.path.join(tmp, "postnikov_cm.json"), "w") as fh:
            json.dump(POSTNIKOV_CM, fh)
        with open(os.path.join(tmp, "square.json"), "w") as fh:
            json.dump(_normal_subgroup_square(), fh)
        with open(os.path.join(tmp, "z2_t2cm.json"), "w") as fh:
            json.dump(TRIVIAL_Z2_T2CM, fh)
        for i, run in enumerate(RUNS):
            report = os.path.join(tmp, f"report{i}.json")
            proc = subprocess.run(
                [sys.executable, "-m", "anomalion.cli", *run, "--report", report],
                cwd=tmp, env=env, capture_output=True, text=True,
            )
            label = " ".join(run)
            if proc.returncode != 0 or not os.path.exists(report):
                print(f"exit {proc.returncode}: {label}\n{proc.stderr}", file=sys.stderr)
                failed += 1
                continue
            with open(report, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {label}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
