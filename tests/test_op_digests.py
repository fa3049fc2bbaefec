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
