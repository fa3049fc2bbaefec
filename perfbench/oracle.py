"""Oracles for the benchmark's ops and the tally that counts their outcomes.

Each check takes the op, the exit code and the report bytes and returns
`OK`, `INCONCLUSIVE` (exit 2 where the oracle knows a definite answer) or
a string saying why the op failed.  Expected answers come from the
generator's own ground truth, never from the program under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction as Q

from calibrate import NOMINAL_S
from workloads import Op

OK = "ok"
INCONCLUSIVE = "inconclusive"
DOCUMENTED_CODES = (0, 1, 2, 64, 65)
VERDICT_CODES = {"proved": 0, "refuted": 1}


def _doc(payload: bytes) -> dict:
    return json.loads(payload.decode("ascii"))


def check_verdict(op, code, payload):
    """check-admissible and dominates: proved (exit 0) or refuted (exit 1)."""
    got = _doc(payload).get("verdict")
    if code == 2 and got == "inconclusive":
        return INCONCLUSIVE
    want = op.expect["verdict"]
    if code != VERDICT_CODES[want] or got != want:
        return f"expected {want} (exit {VERDICT_CODES[want]}), got {got} (exit {code})"
    return OK


def check_classify(op, code, payload):
    doc = _doc(payload)
    if code == 2 and doc.get("class") == "inconclusive":
        return INCONCLUSIVE
    want = op.expect["class"]
    if code != 0 or doc.get("class") != want:
        return f"expected class {want}, got {doc.get('class')} (exit {code})"
    return OK


def check_witness(op, code, payload):
    doc = _doc(payload)
    if code == 2 and doc.get("outcome") == "horizon-exceeded":
        return INCONCLUSIVE
    if op.expect["holds"]:
        if code != 0 or doc.get("outcome") != "criterion-holds":
            return f"expected criterion-holds (exit 0), got {doc.get('outcome')} (exit {code})"
        return OK
    if code != 1 or doc.get("outcome") != "witness":
        return f"expected a witness (exit 1), got {doc.get('outcome')} (exit {code})"
    blocks, sums = doc["blocks"], doc["block_sums"]
    if len(blocks) < 2 or len(sums) != len(blocks):
        return f"{len(blocks)} blocks with {len(sums)} block sums"
    alpha = op.expect["weights_alpha"]
    for blk, reported in zip(blocks, sums):
        if not 1.0 <= reported <= 2.0:
            return f"block sum {reported!r} outside [1, 2]"
        mass = math.fsum(float(n) ** -float(alpha) for n in blk)
        if abs(mass - reported) > 1e-9 * mass:
            return f"block sum {reported!r} but the block's weights add to {mass!r}"
    certs = doc["certificates"]
    if certs["filter_mass"]["kind"] != "diverges" or certs["inverse_p_sum"]["kind"] != "converges":
        return "witness certificates are not (diverges, converges)"
    return OK


def check_separate(op, code, payload):
    doc = _doc(payload)
    e = op.expect
    if not e["separable"]:
        if code != 1 or doc.get("outcome") != "not-separable":
            return f"expected not-separable (exit 1), got {doc.get('outcome')} (exit {code})"
        return OK
    if code != 0 or doc.get("outcome") != "separator":
        return f"expected a separator (exit 0), got {doc.get('outcome')} (exit {code})"
    scale = 1.0 + float(e["margin"])
    if abs(doc["identity_constant"] - scale) > 1e-12 * scale:
        return f"identity constant {doc['identity_constant']!r} != 1 + margin"
    # the certified norm bound must cover the norm of any prefix of the vector
    c, beta, q = float(e["c"]), float(e["beta"]), e["q"]
    prefix = math.fsum((scale / (c * n ** beta)) ** q for n in range(1, 2001))
    bound = doc["norm_bound"]
    if not isinstance(bound, (int, float)) or not prefix <= bound < math.inf:
        return f"norm bound {bound!r} below the prefix norm {prefix!r}"
    return OK


def check_profile(op, code, payload):
    if code != 0:
        return f"expected exit 0, got {code}"
    text = payload.decode("ascii")
    if text.startswith("{"):
        doc = json.loads(text)
        rows = doc["rows"]
        if doc["monotone_bound"] is not True:
            return "monotone_bound is not true"
    else:
        lines = list(csv.reader(io.StringIO(text)))
        if lines[0] != ["n", "A", "B"]:
            return f"CSV header {lines[0]}"
        rows = [[int(r[0]), float(r[1]), float(r[2])] for r in lines[1:]]
    if len(rows) != op.expect["rows"]:
        return f"{len(rows)} profile rows, expected {op.expect['rows']}"
    for (n, avg, bound), nxt in zip(rows, rows[1:] + [None]):
        if not avg <= bound:
            return f"A({n}) = {avg!r} above B({n}) = {bound!r}"
        if nxt is not None and not nxt[2] < bound:
            return f"B not decreasing after n = {n}"
    return OK


def _built(op: Op, code: int, doc: dict):
    if code != 0 or doc.get("outcome") != "built":
        return f"expected a built system (exit 0), got {doc.get('outcome')} (exit {code})"
    if len(doc["stage_norms"]) != op.stages:
        return f"{len(doc['stage_norms'])} stage reports for {op.stages} stages"
    return None


def check_exact(op, code, payload):
    doc = _doc(payload)
    bad = _built(op, code, doc)
    if bad:
        return bad
    key = "exact_square" if op.expect["square"] else "exact"
    target = op.expect["target"]
    for n, rep in enumerate(doc["stage_norms"], start=1):
        want = target.exact(n)
        got = rep.get(key)
        if got is None or want is None or Q(got) != want:
            return f"stage {n}: {key} {got} != target {want}"
    if doc["biorthogonality"]["ok"] is not True:
        return "biorthogonality check not ok"
    return OK


def check_float(op, code, payload):
    doc = _doc(payload)
    bad = _built(op, code, doc)
    if bad:
        return bad
    target = op.expect["target"]
    for n, rep in enumerate(doc["stage_norms"], start=1):
        value, want = rep["value"], target.value(n)
        if not rep["lower"] <= value <= rep["upper"]:
            return f"stage {n}: norm {value!r} outside [{rep['lower']!r}, {rep['upper']!r}]"
        if abs(value - want) > 1e-6 * want:
            return f"stage {n}: norm {value!r} misses the target {want!r}"
    return OK


def check_demo(op, code, payload):
    doc = _doc(payload)
    kind = doc.get("verdict", {}).get("kind")
    if code == 2 and kind == "inconclusive":
        return INCONCLUSIVE
    want = "converges" if op.expect["converges"] else "does-not-converge"
    if code != 0 or kind != want:
        return f"expected {want} (exit 0), got {kind} (exit {code})"
    if len(doc["stage_defects"]) != op.expect["n_max"] - 1:
        return f"{len(doc['stage_defects'])} stage defects for n_max {op.expect['n_max']}"
    return OK


CHECKS = {
    "verdict": check_verdict,
    "dominates": check_verdict,
    "classify": check_classify,
    "witness": check_witness,
    "separate": check_separate,
    "profile": check_profile,
    "exact": check_exact,
    "float": check_float,
    "demo": check_demo,
}


def judge(op: Op, code: int, payload: bytes) -> str:
    """OK, INCONCLUSIVE or the reason the op failed."""
    if code not in DOCUMENTED_CODES:
        return f"exit code {code} is not documented"
    try:
        return CHECKS[op.check](op, code, payload)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"report does not check: {type(exc).__name__}: {exc}"


class Tally:
    """Outcome counts over a run; every failed op is kept with its argv."""

    def __init__(self):
        self.attempted = 0
        self.inconclusive = 0
        self.failures: list[dict] = []
        self.latencies: list[float] = []
        self.probes: list[float] = []  # calibrate.probe() before each op
        self.op_stages: list[int] = []  # stages built by each op, 0 if none
        self.exact_stages = 0
        self.float_stages = 0
        self.convergent_cert = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, op: Op, code, payload: bytes, seconds: float, error: str = "",
               probe_s: float = NOMINAL_S) -> str:
        """Judge one op; `error` names an exception that escaped the program."""
        self.attempted += 1
        self.latencies.append(seconds)
        self.probes.append(probe_s)
        self.convergent_cert += op.convergent_cert
        outcome = error or judge(op, code, payload)
        if outcome == INCONCLUSIVE:
            self.inconclusive += 1
        elif outcome != OK:
            self.failures.append({"argv": list(op.argv), "exit": code, "reason": outcome})
        if outcome in (OK, INCONCLUSIVE) and op.stages and code == 0 and op.check != "demo":
            self._count_stages(payload)
        self.op_stages.append(op.stages if outcome in (OK, INCONCLUSIVE) else 0)
        return outcome

    def _count_stages(self, payload: bytes) -> None:
        for rep in _doc(payload)["stage_norms"]:
            if "exact" in rep or "exact_square" in rep:
                self.exact_stages += 1
            else:
                self.float_stages += 1
