"""Batch experiment driver.

Subcommands dispatch to the engines and emit machine-readable reports;
exit codes encode verdict kinds so shell pipelines can branch:

    0  proved / constructed / converges
    1  refuted / not separable / does not converge as asked
    2  inconclusive
    64 usage or precondition error
    65 parse error in one of the mini-languages

Identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import admissibility, basis_builder, filters, lp_operators, separation
from .natset import DEFAULT_HORIZON, HorizonExceeded, SumVerdict
from .parsing import (
    ParseError,
    parse_filter,
    parse_scalar_seq,
    parse_set_expr,
    parse_test_vector,
)
from .reports import emit_report
from .sequences import DomainError
from .filters import SetClass
from .witnesses import CriterionHolds

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65

_COMMANDS = (
    "check-admissible",
    "build-basis",
    "witness",
    "separate",
    "classify-set",
    "demo-convergence",
    "dominates",
    "profile-lemma1",
)


@dataclass
class RunConfig:
    command: str
    options: dict

    def get(self, key: str, default=None):
        v = self.options.get(key)
        return default if v is None else v


def _argument_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fbasis", add_help=True, description=__doc__)
    sub = top.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seq", default=None)
        p.add_argument("--a-squared", dest="a_squared", default=None)
        p.add_argument("--weights", default=None)
        p.add_argument("--filter", dest="filter_", default=None)
        p.add_argument("--filter2", default=None)
        p.add_argument("--under", default=None)
        p.add_argument("--set", dest="set_", default=None)
        p.add_argument("--vector", default=None)
        p.add_argument("--vectors", default=None)
        p.add_argument("--p", default=None)
        p.add_argument("--space", default=None)
        p.add_argument("--dual", default=None)
        p.add_argument("--margin", default=None)
        p.add_argument("--grid", default=None)
        p.add_argument("--n-max", dest="n_max", default=None)
        p.add_argument("--dim", default=None)
        p.add_argument("--horizon", default=None)
        p.add_argument("--band", action="store_true", default=False)
        p.add_argument("--format", dest="format_", default=None)
        p.add_argument("--output", default=None)
    return top


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("config lines are key = value", 0, ("key = value",))
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def load_config(argv: list[str]) -> RunConfig:
    parser = _argument_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own codes
        if exc.code == 0:
            raise
        raise _Usage("bad arguments") from None
    if ns.command is None:
        raise _Usage("a subcommand is required: " + ", ".join(_COMMANDS))
    options = {}
    if ns.config:
        options.update(_read_config_file(ns.config))
    for key, value in vars(ns).items():
        if key in ("command", "config"):
            continue
        name = key.rstrip("_")
        if value not in (None, False):
            options[name] = value
    if "horizon" not in options:
        env = os.environ.get("FBASIS_HORIZON")
        if env:
            options["horizon"] = env
    options.setdefault("horizon", str(DEFAULT_HORIZON))
    options.setdefault("n_max", "32")
    options.setdefault("format", "json")
    return RunConfig(ns.command, options)


class _Usage(Exception):
    pass


def _require(cfg: RunConfig, key: str) -> str:
    v = cfg.get(key)
    if v is None:
        raise _Usage(f"--{key.replace('_', '-')} is required for {cfg.command}")
    return v


def _parse_space(text: str, dim: int) -> lp_operators.SpaceKind:
    text = text.strip().lower()
    if text == "l1":
        return lp_operators.l1(dim)
    if text == "l2":
        return lp_operators.l2(dim)
    if text.startswith("lp(") and text.endswith(")"):
        text = text[3:-1]
    return lp_operators.lp(Fraction(text), dim)


def _number(text: str) -> Fraction:
    return Fraction(text)


def _truncation(cfg: RunConfig) -> tuple[lp_operators.SpaceKind, int]:
    """The space and n_max; --dim defaults to n_max + 1, the coordinates
    a build touches plus one for the remainder."""
    try:
        n_max = int(cfg.get("n_max"))
        dim = int(cfg.get("dim", n_max + 1))
    except ValueError:
        raise DomainError("--n-max and --dim must be integers") from None
    if dim < n_max + 1:
        raise DomainError(f"--dim must be at least n_max + 1 = {n_max + 1}, got {dim}")
    return _parse_space(_require(cfg, "space"), dim), n_max


# ---------------------------------------------------------------------------
# serialization helpers


def _sum_verdict_doc(v: SumVerdict) -> dict:
    doc = {"kind": v.kind}
    if v.kind == "converges":
        doc["bound"] = v.bound if isinstance(v.bound, (Fraction, float)) else float(v.bound)
    if v.kind == "inconclusive":
        doc["partial_sum"] = v.partial
        doc["horizon"] = v.horizon
    return doc


def _admiss_doc(v: admissibility.AdmissVerdict) -> dict:
    doc = {"verdict": v.kind}
    if v.criterion:
        doc["criterion"] = v.criterion
    if v.witness is not None:
        doc["witness"] = v.witness.to_text()
    if v.certificate is not None:
        cert = {}
        st = v.certificate.stationarity
        if isinstance(st, SetClass):
            cert["witness_class"] = st.value
        elif isinstance(st, SumVerdict):
            cert["witness_filter_mass"] = _sum_verdict_doc(st)
        cert["inverse_p_sum"] = _sum_verdict_doc(v.certificate.inverse_p_sum)
        doc["certificate"] = cert
    if v.reason:
        doc["reason"] = v.reason
    return doc


def _norm_report_doc(r: lp_operators.NormReport) -> dict:
    doc = {
        "value": r.value,
        "method": r.method,
        "lower": r.lower,
        "upper": r.upper,
    }
    if r.exact is not None:
        doc["exact"] = r.exact
    if r.exact_square is not None:
        doc["exact_square"] = r.exact_square
    return doc


def _limit_doc(v: filters.LimitVerdict) -> dict:
    doc = {"kind": v.kind}
    if v.kind == "converges":
        doc["value"] = float(v.value)
    if v.kind == "does-not-converge":
        doc["epsilon"] = v.epsilon
        doc["witness"] = v.witness.to_text()
    if v.reason:
        doc["reason"] = v.reason
    return doc


# ---------------------------------------------------------------------------
# command handlers


def _cmd_check_admissible(cfg: RunConfig):
    seq = parse_scalar_seq(_require(cfg, "seq"))
    filt = parse_filter(_require(cfg, "filter"))
    p = _number(_require(cfg, "p"))
    verdict = admissibility.check_admissible(seq, filt, p)
    doc = {
        "command": cfg.command,
        "inputs": {"seq": seq.to_text(), "filter": filt.to_text(), "p": p},
    }
    doc.update(_admiss_doc(verdict))
    if cfg.get("band"):
        band = admissibility.admissibility_band(seq, filt, p)
        doc["band"] = {
            "sufficient": _admiss_doc(band.sufficient),
            "necessary": [
                {"s": s, **_admiss_doc(v)} for s, v in band.necessary
            ],
            "caveat": band.caveat,
        }
    code = {"proved": EXIT_OK, "refuted": EXIT_REFUTED, "inconclusive": EXIT_INCONCLUSIVE}
    return code[verdict.kind], doc


def _cmd_build_basis(cfg: RunConfig):
    space, n_max = _truncation(cfg)
    filt = parse_filter(_require(cfg, "filter"))
    seq_text = cfg.get("seq")
    sq_text = cfg.get("a_squared")
    seq = parse_scalar_seq(seq_text) if seq_text else None
    a_squared = parse_scalar_seq(sq_text) if sq_text else None
    try:
        system = basis_builder.build_basis(seq, space, filt, n_max, a_squared=a_squared)
    except basis_builder.NotAdmissible as exc:
        doc = {
            "command": cfg.command,
            "inputs": _build_inputs(cfg, space, filt, n_max),
            "outcome": "not-admissible",
        }
        doc.update(_admiss_doc(exc.verdict))
        return EXIT_REFUTED, doc
    biorth = basis_builder.verify_biorthogonality(system)
    defects = basis_builder.defect_report(system)
    doc = {
        "command": cfg.command,
        "inputs": _build_inputs(cfg, space, filt, n_max),
        "outcome": "built",
        "admissibility": _admiss_doc(system.admissibility),
        "coefficients": [
            c if isinstance(c, Fraction) else float(c) for c in system.coefficients
        ],
        "coefficients_squared": (
            [Fraction(c) for c in system.coefficients_squared]
            if system.coefficients_squared is not None
            else None
        ),
        "stage_norms": [_norm_report_doc(r) for r in system.norm_reports],
        "defect_coefficients": [
            c if isinstance(c, Fraction) else float(c) for c in system.defect_coeffs
        ],
        "biorthogonality": {
            "size": biorth.size,
            "max_error": biorth.max_error,
            "ok": biorth.ok,
        },
        "defect_check": {
            "deviations_within_unit": defects.within_unit,
            "exact_match_l1": defects.exact_match_l1,
            "vanishing": [
                {"vector": vec, "verdict": kind} for vec, kind in defects.vanishing
            ],
        },
        "warnings": list(system.warnings),
        "caveat": "all stage claims are certified on the materialized truncation",
    }
    return EXIT_OK, doc


def _build_inputs(cfg: RunConfig, space, filt, n_max) -> dict:
    doc = {"space": space.to_text(), "filter": filt.to_text(), "n_max": n_max}
    if cfg.get("seq"):
        doc["seq"] = parse_scalar_seq(cfg.get("seq")).to_text()
    if cfg.get("a_squared"):
        doc["a_squared"] = parse_scalar_seq(cfg.get("a_squared")).to_text()
    return doc


def _cmd_witness(cfg: RunConfig):
    seq = parse_scalar_seq(_require(cfg, "seq"))
    weights = parse_scalar_seq(_require(cfg, "weights"))
    p = _number(_require(cfg, "p"))
    doc = {
        "command": cfg.command,
        "inputs": {"seq": seq.to_text(), "weights": weights.to_text(), "p": p},
    }
    try:
        witness = admissibility.nonadmissibility_witness(seq, weights, p)
    except CriterionHolds as exc:
        doc["outcome"] = "criterion-holds"
        doc["detail"] = str(exc)
        return EXIT_OK, doc
    except HorizonExceeded as exc:
        doc["outcome"] = "horizon-exceeded"
        doc["detail"] = str(exc)
        return EXIT_INCONCLUSIVE, doc
    doc["outcome"] = "witness"
    doc["witness"] = witness.to_text()
    doc["blocks"] = [list(b) for b in witness.materialized_blocks()]
    doc["block_sums"] = witness.block_sums()
    doc["prefix_inverse_sum"] = witness.prefix_inverse_sum()
    doc["certificates"] = {
        "filter_mass": _sum_verdict_doc(witness.certified_weight_sum(
            admissibility.weight_form(weights))),
        "inverse_p_sum": _sum_verdict_doc(witness.certified_weight_sum(
            admissibility.weight_form(admissibility.seq_pow(seq, -p)))),
    }
    return EXIT_REFUTED, doc


def _cmd_separate(cfg: RunConfig):
    seq = parse_scalar_seq(_require(cfg, "seq"))
    dual = cfg.get("dual", "linf")
    dual_kind = {"linf": "linf-diagonal", "l2": "l2-diagonal"}.get(dual, dual)
    margin = float(cfg.get("margin", "0.1"))
    doc = {
        "command": cfg.command,
        "inputs": {"seq": seq.to_text(), "dual": dual_kind, "margin": margin},
    }
    try:
        sep = separation.plank_separator(seq, dual_kind, margin)
    except separation.NotSeparable as exc:
        doc["outcome"] = "not-separable"
        doc["detail"] = str(exc)
        return EXIT_REFUTED, doc
    doc["outcome"] = "separator"
    doc["vector"] = sep.vector.to_text()
    doc["norm_bound"] = sep.norm_bound
    doc["identity_constant"] = sep.identity_constant
    doc["identity_exact"] = sep.identity_exact
    return EXIT_OK, doc


def _cmd_classify_set(cfg: RunConfig):
    s = parse_set_expr(_require(cfg, "set"))
    filt = parse_filter(_require(cfg, "filter"))
    cls = filters.classify_set(s, filt)
    doc = {
        "command": cfg.command,
        "inputs": {"set": s.to_text(), "filter": filt.to_text()},
        "class": cls.value,
    }
    return (EXIT_INCONCLUSIVE if cls == SetClass.INCONCLUSIVE else EXIT_OK), doc


def _cmd_demo_convergence(cfg: RunConfig):
    space, n_max = _truncation(cfg)
    filt = parse_filter(_require(cfg, "filter"))
    seq = parse_scalar_seq(cfg.get("seq")) if cfg.get("seq") else None
    a_squared = parse_scalar_seq(cfg.get("a_squared")) if cfg.get("a_squared") else None
    vector = parse_test_vector(_require(cfg, "vector"))
    under = parse_filter(cfg.get("under")) if cfg.get("under") else None
    try:
        system = basis_builder.build_basis(seq, space, filt, n_max, a_squared=a_squared)
    except basis_builder.NotAdmissible as exc:
        doc = {"command": cfg.command, "outcome": "not-admissible"}
        doc.update(_admiss_doc(exc.verdict))
        return EXIT_REFUTED, doc
    report = basis_builder.convergence_demo(
        system, vector, horizon=int(cfg.get("horizon")), under=under
    )
    doc = {
        "command": cfg.command,
        "inputs": {
            "space": space.to_text(),
            "filter": filt.to_text(),
            "under": under.to_text() if under is not None else filt.to_text(),
            "vector": report.vector,
            "n_max": n_max,
        },
        "stage_defects": report.stage_defects,
        "epsilon_table": [
            {
                "epsilon": e.epsilon,
                "over_set": e.over_set,
                "under_set": e.under_set,
                "class": e.classification,
            }
            for e in report.entries
        ],
        "verdict": _limit_doc(report.verdict),
        "caveat": report.caveat,
        "warnings": list(system.warnings),
    }
    kind = report.verdict.kind
    code = EXIT_OK if kind == "converges" else (
        EXIT_INCONCLUSIVE if kind == "inconclusive" else EXIT_OK
    )
    return code, doc


def _cmd_dominates(cfg: RunConfig):
    f1 = parse_filter(_require(cfg, "filter"))
    f2 = parse_filter(_require(cfg, "filter2"))
    verdict = filters.dominates(f1, f2)
    doc = {
        "command": cfg.command,
        "inputs": {"filter": f1.to_text(), "filter2": f2.to_text()},
        "verdict": verdict.kind,
    }
    if verdict.rule:
        doc["rule"] = verdict.rule
    if verdict.witness is not None:
        doc["witness"] = verdict.witness.to_text()
    code = {"proved": EXIT_OK, "refuted": EXIT_REFUTED, "inconclusive": EXIT_INCONCLUSIVE}
    return code[verdict.kind], doc


def _cmd_profile_lemma1(cfg: RunConfig):
    seq = parse_scalar_seq(_require(cfg, "seq"))
    vec_texts = [t for t in _require(cfg, "vectors").split(";") if t.strip()]
    xs = [parse_test_vector(t) for t in vec_texts]
    grid = [int(t) for t in _require(cfg, "grid").split(",")]
    rows = separation.lemma1_profile(seq, xs, grid)
    doc = {
        "command": cfg.command,
        "inputs": {
            "seq": seq.to_text(),
            "vectors": [x.to_text() for x in xs],
            "grid": grid,
        },
        "header": ["n", "A", "B"],
        "rows": [[r.n, r.average, r.bound] for r in rows],
        "monotone_bound": all(
            rows[i + 1].bound < rows[i].bound for i in range(len(rows) - 1)
        ),
    }
    return EXIT_OK, doc


_HANDLERS = {
    "check-admissible": _cmd_check_admissible,
    "build-basis": _cmd_build_basis,
    "witness": _cmd_witness,
    "separate": _cmd_separate,
    "classify-set": _cmd_classify_set,
    "demo-convergence": _cmd_demo_convergence,
    "dominates": _cmd_dominates,
    "profile-lemma1": _cmd_profile_lemma1,
}


def run_command(cfg: RunConfig) -> tuple[int, bytes]:
    """Dispatch a configuration to its handler and render the report."""
    try:
        code, doc = _HANDLERS[cfg.command](cfg)
    except ParseError as exc:
        doc = {"command": cfg.command, "error": "parse", "detail": str(exc)}
        return EXIT_PARSE, emit_report(doc, cfg.get("format", "json"))
    except (_Usage, DomainError) as exc:
        doc = {"command": cfg.command, "error": "usage", "detail": str(exc)}
        return EXIT_USAGE, emit_report(doc, "json")
    return code, emit_report(doc, cfg.get("format", "json"))


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = load_config(argv)
    except _Usage as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_USAGE
    except ParseError as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_PARSE
    code, payload = run_command(cfg)
    out_path = cfg.get("output")
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
