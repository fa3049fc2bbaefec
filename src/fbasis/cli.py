"""Batch experiment driver.

Subcommands dispatch to the engines and emit machine-readable reports;
exit codes encode verdict kinds so shell pipelines can branch:

    0  proved / constructed / separated / classified; for
       demo-convergence, the demo ran (its verdict is in the report)
    1  refuted / not separable / not admissible / witness found
    2  inconclusive
    64 usage or precondition error, including an option the subcommand
       does not read and an output or config file that cannot be opened
    65 parse error in one of the mini-languages or in a config file
    70 internal error (EX_SOFTWARE): a bug, never a verdict

An option is written ``--name value`` or ``--name=value``; ``--band`` is
the one option that takes no value, and a repeated option keeps its last
value.  ``-h`` or ``--help`` in the place of the subcommand or of an
option prints this text and the table of subcommands and options, and
exits 0.  Also exit 64: an option with no value, a token that is no
option (a positional, ``--``), an option before the subcommand, and a
value that starts with ``-`` and is not a plain negative number
(``--p -1/2``; ``--p=-1/2`` is read).

Identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Optional

from . import filters
from ._lazy_numpy import _lazy
from ._record import record
from .natset import DEFAULT_HORIZON, CriterionHolds, HorizonExceeded, SumVerdict
from .parsing import (
    ParseError,
    parse_filter,
    parse_scalar_seq,
    parse_set_expr,
    parse_test_vector,
    parse_test_vectors,
)
from .reports import IoError, emit_report
from .sequences import DomainError
from .series import partial_sum, weight_sum
from .filters import SetClass

# the engines, each compiled when a subcommand first calls it
admissibility = _lazy(__package__ + ".admissibility")
basis_builder = _lazy(__package__ + ".basis_builder")
lp_operators = _lazy(__package__ + ".lp_operators")
separation = _lazy(__package__ + ".separation")

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_SOFTWARE = 70


@record
class RunConfig:
    command: str
    options: dict

    def get(self, key: str, default=None):
        v = self.options.get(key)
        return default if v is None else v


def _read_config_file(path: str, command: str) -> dict:
    # the subcommand's options, less --config: a config file names no other
    readable = {o.replace("-", "_") for o in _COMMON + _SUBCOMMANDS[command][1]} - {"config"}
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError("config files are ASCII", exc.start) from None
    except OSError as exc:
        raise _Usage(f"--config: {exc}") from None
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("config lines are key = value", 0, ("key = value",))
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in readable:
            raise _Usage(f"{command} does not read the config key {key!r}")
        value = value.strip()
        if key == "band":  # the one on/off option
            if value not in ("true", "false"):
                raise _Usage(f"config key {key!r} is true or false, not {value!r}")
            value = value == "true"
        out[key] = value
    return out


_HELP = ("-h", "--help")
# a token that starts with "-" is a value only if it is "-" or a plain
# negative number
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _exit_with_help():
    rows = [f"  {name:<17} --{' --'.join(options)}" for name, (_, options) in _SUBCOMMANDS.items()]
    sys.stdout.write("\n".join([
        "usage: fbasis COMMAND [--OPTION VALUE | --OPTION=VALUE | --band]...",
        "", __doc__.strip(), "",
        "Commands and the options each reads, besides --" + " --".join(_COMMON) + ":",
        *rows,
    ]) + "\n")
    raise SystemExit(0)


def load_config(argv: list[str]) -> RunConfig:
    """The subcommand and its options: the config file's, then argv's in
    table order (the last of a repeated option), then the defaults."""
    command, *rest = argv or [None]
    if command in _HELP:
        _exit_with_help()
    if command not in _SUBCOMMANDS:
        raise _Usage("a subcommand is required: " + ", ".join(_SUBCOMMANDS))
    table = _COMMON + _SUBCOMMANDS[command][1]
    given = {}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            _exit_with_help()
        name, eq, value = token.partition("=")
        option = name[2:]
        if not name.startswith("--") or option not in table:
            raise _Usage(f"{command} does not read {token!r}")
        if option == "band":
            if eq:
                raise _Usage("--band takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or (value.startswith("-") and value != "-"
                                 and not _NEGATIVE_NUMBER.match(value)):
                raise _Usage(f"--{option} needs a value")
        if option == "format" and value not in ("json", "csv"):
            raise _Usage(f"--format is json or csv, not {value!r}")
        given[option] = value
    options = _read_config_file(given["config"], command) if given.get("config") else {}
    for option in table:
        if option in given and option != "config":
            options[option.replace("-", "_")] = given[option]
    options.setdefault("horizon", str(DEFAULT_HORIZON))
    options.setdefault("n_max", "32")
    options.setdefault("format", "json")
    return RunConfig(command, options)


class _Usage(Exception):
    pass


def _require(cfg: RunConfig, key: str) -> str:
    v = cfg.get(key)
    if v is None:
        raise _Usage(f"--{key.replace('_', '-')} is required for {cfg.command}")
    return v


def _numeric(text, kind, option: str):
    """``kind(text)`` for kind int, Fraction or ``_real``; a malformed value is a
    usage error, not a traceback."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise _Usage(f"--{option}: malformed number {text!r}") from None


def _real(text: str) -> float:
    """A decimal as float reads it (nan and inf too), else a ratio p/q, read
    as --p is, as its correctly rounded float, which for a decimal is the
    same: float(Fraction("0.1")) is 0.1.  Past the float range +-inf, as
    float("1e309") is."""
    try:
        return float(text)
    except ValueError:
        x = Fraction(text)
    try:
        return float(x)
    except OverflowError:
        return float("inf") if x > 0 else float("-inf")


def _parse_space(text: str, dim: int) -> lp_operators.SpaceKind:
    text = text.strip().lower()
    if text == "l1":
        return lp_operators.l1(dim)
    if text == "l2":
        return lp_operators.l2(dim)
    if text.startswith("lp(") and text.endswith(")"):
        text = text[3:-1]
    return lp_operators.lp(_numeric(text, Fraction, "space"), dim)


def _truncation(cfg: RunConfig) -> tuple[lp_operators.SpaceKind, int]:
    """The space and n_max; --dim defaults to n_max + 1, the coordinates
    a build touches plus one for the remainder."""
    n_max = _numeric(cfg.get("n_max"), int, "n-max")
    dim = _numeric(cfg.get("dim", n_max + 1), int, "dim")
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


def _sum_certificate(s, w) -> dict:
    """The verdict for the sum of w over s, with the partial sum if undecided."""
    v = weight_sum(s, w)
    return _sum_verdict_doc(partial_sum(s, w) if v.kind == "inconclusive" else v)


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
    p = _numeric(_require(cfg, "p"), Fraction, "p")
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
        system = basis_builder.build_basis(seq, space, filt, n_max, a_squared=a_squared,
                                             printable=True)
    except basis_builder.NotAdmissible as exc:
        doc = {
            "command": cfg.command,
            "inputs": _build_inputs(space, filt, n_max, seq, a_squared),
            "outcome": "not-admissible",
        }
        doc.update(_admiss_doc(exc.verdict))
        return EXIT_REFUTED, doc
    biorth = basis_builder.verify_biorthogonality(system)
    if not biorth.ok:  # a sound build cannot fail its certificate: an internal error
        raise ArithmeticError(f"the biorthogonality certificate fails: max error "
                              f"{biorth.max_error!r} over {biorth.size} stages")
    defects = basis_builder.defect_report(system)
    # exact stages share one report per distinct ratio, and so one row
    rows: dict = {}
    for r in system.norm_reports:
        if id(r) not in rows:
            rows[id(r)] = _norm_report_doc(r)
    doc = {
        "command": cfg.command,
        "inputs": _build_inputs(space, filt, n_max, seq, a_squared),
        "outcome": "built",
        "admissibility": _admiss_doc(system.admissibility),
        "coefficients": system.coefficients,  # Fractions or floats, as built
        "coefficients_squared": system.coefficients_squared,
        "stage_norms": [rows[id(r)] for r in system.norm_reports],
        "defect_coefficients": system.defect_coeffs,
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


def _build_inputs(space, filt, n_max, seq, a_squared) -> dict:
    doc = {"space": space.to_text(), "filter": filt.to_text(), "n_max": n_max}
    if seq is not None:
        doc["seq"] = seq.to_text()
    if a_squared is not None:
        doc["a_squared"] = a_squared.to_text()
    return doc


def _cmd_witness(cfg: RunConfig):
    seq = parse_scalar_seq(_require(cfg, "seq"))
    weights = parse_scalar_seq(_require(cfg, "weights"))
    p = _numeric(_require(cfg, "p"), Fraction, "p")
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
    doc["blocks"] = list(witness.materialized_blocks())
    doc["block_sums"] = witness.block_sums()
    doc["prefix_inverse_sum"] = witness.prefix_inverse_sum()
    doc["certificates"] = {
        "filter_mass": _sum_certificate(witness, weights),
        "inverse_p_sum": _sum_certificate(witness, admissibility.seq_pow(seq, -p)),
    }
    return EXIT_REFUTED, doc


def _cmd_separate(cfg: RunConfig):
    seq = parse_scalar_seq(_require(cfg, "seq"))
    dual = cfg.get("dual", "linf")
    dual_kind = {"linf": "linf-diagonal", "l2": "l2-diagonal"}.get(dual, dual)
    margin = _numeric(cfg.get("margin", "0.1"), _real, "margin")
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
    horizon = _numeric(cfg.get("horizon"), int, "horizon")
    try:
        system = basis_builder.build_basis(seq, space, filt, n_max, a_squared=a_squared)
    except basis_builder.NotAdmissible as exc:
        doc = {"command": cfg.command, "outcome": "not-admissible"}
        doc.update(_admiss_doc(exc.verdict))
        return EXIT_REFUTED, doc
    report = basis_builder.convergence_demo(
        system, vector, horizon=horizon, under=under
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
    return EXIT_INCONCLUSIVE if report.verdict.kind == "inconclusive" else EXIT_OK, doc


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
    xs = parse_test_vectors(_require(cfg, "vectors"))
    grid = [_numeric(t, int, "grid") for t in _require(cfg, "grid").split(",")]
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


# Each subcommand's handler and the options it reads.  A subcommand accepts
# these and _COMMON, on the command line and in a config file alike.
_COMMON = ("config", "format", "output")
_SUBCOMMANDS = {
    "check-admissible": (_cmd_check_admissible, ("seq", "filter", "p", "band")),
    "build-basis": (_cmd_build_basis, ("seq", "a-squared", "space", "filter", "n-max", "dim")),
    "witness": (_cmd_witness, ("seq", "weights", "p")),
    "separate": (_cmd_separate, ("seq", "dual", "margin")),
    "classify-set": (_cmd_classify_set, ("set", "filter")),
    "demo-convergence": (_cmd_demo_convergence, ("seq", "a-squared", "space", "filter",
                                                 "n-max", "dim", "vector", "under", "horizon")),
    "dominates": (_cmd_dominates, ("filter", "filter2")),
    "profile-lemma1": (_cmd_profile_lemma1, ("seq", "vectors", "grid")),
}


def _error_report(cfg: RunConfig, kind: str, detail: str) -> bytes:
    return emit_report({"command": cfg.command, "error": kind, "detail": detail}, "json")


def run_command(cfg: RunConfig) -> tuple[int, bytes]:
    """Dispatch a configuration to its handler and render the report.  A
    failure comes back as its exit code with a JSON error document."""
    try:
        code, doc = _SUBCOMMANDS[cfg.command][0](cfg)
        return code, emit_report(doc, cfg.get("format", "json"))
    except ParseError as exc:
        return EXIT_PARSE, _error_report(cfg, "parse", str(exc))
    except (_Usage, DomainError, IoError) as exc:
        return EXIT_USAGE, _error_report(cfg, "usage", str(exc))
    except Exception as exc:  # a bug must not exit 1, the code for refuted
        import traceback

        traceback.print_exc()
        return EXIT_SOFTWARE, _error_report(cfg, "internal", f"{type(exc).__name__}: {exc}")


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = load_config(argv)
    except (_Usage, ParseError) as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_PARSE if isinstance(exc, ParseError) else EXIT_USAGE
    code, payload = run_command(cfg)
    out_path = cfg.get("output")
    if not out_path:
        sys.stdout.buffer.write(payload)
        return code
    try:
        with open(out_path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        sys.stderr.write(f"--output: {exc}\n")
        return EXIT_USAGE
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
