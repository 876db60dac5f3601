"""The benchmark's checks pass on right outputs and catch a planted wrong one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Run from the repository root. Each workload runs here at a tiny size.
"""

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

# The table `skostka matrix --n 3 --p 3 --signed` prints; these tests are
# about the checks, so the table only has to be fixed.
N3 = {
    "labels": ["3|-", "2,1|-", "1,1,1|-", "-|3"],
    "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]],
}


def run_matrix(tmp_path, n):
    wl = workloads.Matrix6(0, tmp_path, n=n)
    status = wl.run()
    assert status == 0
    return json.loads(wl.out_path.read_text())


def test_matrix_check_catches_a_planted_entry(tmp_path):
    obj = run_matrix(tmp_path, 3)
    assert workloads.check_matrix(obj, N3) == (16, 0)
    obj["matrix"][2][0] += 1
    assert workloads.check_matrix(obj, N3) == (16, 1)


def test_matrix_check_catches_a_broken_triangle():
    reference = json.loads(workloads.PUBLISHED_TABLE.read_text())
    assert workloads.check_matrix(reference, reference) == (256, 0)
    # the same wrong value in both: only the triangularity test sees it
    bad = copy.deepcopy(reference)
    bad["matrix"][0][5] = 1
    assert workloads.check_matrix(bad, bad) == (256, 1)
    assert workloads.check_matrix(None, reference) == (256, 256)


def test_iso_check_catches_a_flipped_verdict(tmp_path):
    wl = workloads.Iso5(1, tmp_path, n=3)
    verdicts = wl.run()
    assert wl.check(verdicts) == (len(wl.questions), 0)
    verdicts[len(verdicts) // 2] = not verdicts[len(verdicts) // 2]
    assert wl.check(verdicts) == (len(wl.questions), 1)
    assert wl.check(verdicts[:-1])[1] >= 1


def test_principal_check_catches_planted_values(tmp_path):
    wl = workloads.Principal12(1, tmp_path, n=3)
    entries, principal = wl.run()
    total = len(wl.pairs) * len(wl.labels)
    assert total > 0
    assert wl.check((entries, principal)) == (total, 0)
    # one nonzero entry off by one
    a, x = next(
        (a, x) for a, row in enumerate(entries) for x, v in enumerate(row) if v
    )
    wrong = copy.deepcopy(entries)
    wrong[a][x] += 1
    assert wl.check((wrong, principal)) == (total, 1)
    # a value where the theorem demands 0 (|beta| differs from p|mu|)
    a, x = next(
        (a, x)
        for a, (alpha, beta) in enumerate(wl.pairs)
        for x, lab in enumerate(wl.labels)
        if sum(beta) != workloads.P * sum(lab[1])
    )
    wrong = copy.deepcopy(entries)
    wrong[a][x] += 1
    assert wl.check((wrong, principal)) == (total, 1)
