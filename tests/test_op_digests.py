"""Smoke test of ``tests/op_digests.py``, the same-bytes check between two
checkouts: one block per workload, compared with itself and with a copy
whose digests were altered."""

import json
import time

import op_digests


def test_one_block_per_workload(tmp_path, capsys):
    out = tmp_path / "ops.json"
    start = time.perf_counter()
    assert op_digests.main([str(out), "--blocks", "1", "--seeds", "7"]) == 0
    assert time.perf_counter() - start < 3
    got = json.loads(out.read_text())
    workloads = {json.loads(k)[0] for k in got}
    assert {"check-admissible", "build-basis"} <= workloads
    assert all(isinstance(code, int) and len(digest) == 64 for code, digest in got.values())

    same = tmp_path / "same.json"
    assert op_digests.main([str(same), "--blocks", "1", "--seeds", "7",
                            "--against", str(out)]) == 0
    assert json.loads(same.read_text()) == got
    assert f"0 of {len(got)} ops differ" in capsys.readouterr().out

    changed, dropped = sorted(got)[:2]
    parent = dict(got)
    parent[changed] = [parent[changed][0], "0" * 64]
    del parent[dropped]
    (tmp_path / "parent.json").write_text(json.dumps(parent))
    assert op_digests.main([str(same), "--blocks", "1", "--seeds", "7",
                            "--against", str(tmp_path / "parent.json")]) == 1
    printed = capsys.readouterr().out
    assert f"2 of {len(got)} ops differ" in printed
    assert changed in printed and dropped in printed


def test_bounds_accepts_only_float_stage_bounds_moved_outward(tmp_path, capsys):
    """``--bounds`` against this checkout itself finds no difference; and
    ``outward_only`` passes a float stage-norm entry whose bounds moved
    outward around its value, and nothing else."""
    out = tmp_path / "ops.json"
    assert op_digests.main([str(out), "--blocks", "1", "--seeds", "7",
                            "--bounds", str(op_digests.ROOT)]) == 0
    assert f"0 of {len(json.loads(out.read_text()))} ops differ, 0 otherwise" in (
        capsys.readouterr().out)

    old = {"value": 2.0000000000000004, "method": "ClosedForm", "lower": 2.0000000000000004,
           "upper": 2.2}
    exact = {"value": 2, "method": "ColumnMax", "lower": 2, "upper": 2, "exact": 2}
    report = {"outcome": "built", "stage_norms": [old, exact]}
    new = dict(old, value=2.0, lower=1.9999999999981803, upper=2.2000000000002)
    moved = {**report, "stage_norms": [new, report["stage_norms"][1]]}
    assert op_digests.outward_only(report, moved)
    for bad in (dict(new, lower=2.000000000000001), dict(new, upper=2.1999999999999997),
                dict(new, value=1.9999999999999), dict(new, method="ColumnMax"),
                dict(new, exact=2)):
        assert not op_digests.outward_only(report, {**report, "stage_norms": [
            bad, report["stage_norms"][1]]})
    assert not op_digests.outward_only(report, {**moved, "outcome": "refused"})
    assert not op_digests.outward_only(report, {**report, "stage_norms": [
        old, dict(exact, exact=3)]})
