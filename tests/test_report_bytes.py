"""Every report byte of the README commands, of a spread of constructions, of
two refused constructions and of the greedy witness paths, pinned as (exit
code, sha256 of the report).

A change that is meant to leave the output alone (a speed-up, a refactor)
must keep these hashes.  A change that alters a report on purpose updates
the hash here and says why.
"""

import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fbasis
from fbasis.cli import _COMMON, _SUBCOMMANDS, load_config, run_command

README = [
    (["check-admissible", "--seq", "pow(1,0.5)", "--filter", "statistical", "--p", "2"],
     0, "61021f89f2c685ce2d24eca6f2f3c12bde301328c3b93f4232a13bb148553b2c"),
    (["build-basis", "--seq", "const(2)", "--space", "l1",
      "--filter", "summable(const(0.5))", "--n-max", "8"],
     0, "e42578099f3b078d8313557777f8d91fb308c415de2ac74fdc80329e200c8ca3"),
    (["build-basis", "--a-squared", "const(2)", "--space", "l2", "--filter", "frechet",
      "--n-max", "8"],
     0, "ec94fbfd721182aff5d613965c398661c0841c25411b6f9b462d5a0fb572512b"),
    (["witness", "--seq", "pow(1,2)", "--weights", "pow(1,-1)", "--p", "1"],
     1, "68780d995bcce6dbd49a3fb25263d7f0bb437c75e2d6dceb9d08ae2b034de562"),
    (["separate", "--seq", "pow(1,2)", "--dual", "linf", "--margin", "0.1"],
     0, "adf3d41be5390158bc952ef67a5f56e5a2a10dd0a6540e7bb9b71941d8cac4e4"),
    (["classify-set", "--set", "residue(2,0)", "--filter", "statistical"],
     0, "f17ee54bd00b78ad745d5e06cc1f2f131cbe3f63af3fec55e80bee1be74ce7ac"),
    (["demo-convergence", "--seq", "prefix[2]:pow(1,1)", "--space", "l1",
      "--filter", "summable(pow(1,-1))", "--n-max", "10",
      "--vector", "spike(shift(geom(2),1); powlog(1,0,-2))", "--under", "frechet"],
     0, "2e0182e3817ba2387fda93493bfc4636391d16178b71dd03f3e0417b458b4d93"),
    (["dominates", "--filter", "frechet", "--filter2", "statistical"],
     1, "8c6379b704a95c00dc295e42425f5ef6dcd4c695cf9f722da212713c35320fc6"),
    (["profile-lemma1", "--seq", "pow(1,1/2)", "--vectors", "powtail(2); e(1)",
      "--grid", "10,100,1000", "--format", "csv"],
     0, "7fc4b416733e79119f232c757e6aa39f3f37c5416ebf6609ddb77345acf2b218"),
]

# exact l1 and l2 at n_max 44 and 240, with and without an explicit head;
# float stages in lp(5/4), lp(4) and, at n_max 300, lp(3/2); irrational
# pow(c,1/4) targets in l1 (also at n_max 300) and l2
CONSTRUCT = [
    (["build-basis", "--seq", "const(2)", "--space", "l1", "--filter", "frechet",
      "--n-max", "44"],
     0, "320d4fb003ad78686ef1058de9c4321c21b9ac01e5f95fb1d859be3ca7f9e79a"),
    (["build-basis", "--seq", "prefix[3,5/2]:const(7/2)", "--space", "l1",
      "--filter", "statistical", "--n-max", "240"],
     0, "2a79d906a45c6b189d9fe9ea3a593fffee701c12a75f3500d5efca2a52d3a7b2"),
    (["build-basis", "--a-squared", "prefix[4,9/4]:const(5/2)", "--space", "l2",
      "--filter", "frechet", "--n-max", "44"],
     0, "b2dd309395f1d9fb5e6505a5ba4f1f21d281c3451aa70f2492a4bc7bf6693994"),
    (["build-basis", "--a-squared", "const(3)", "--space", "l2",
      "--filter", "summable(pow(1,-1))", "--n-max", "240"],
     0, "8cd39af1ac9b014674f0ca1b184f61c3c33b371c1f18b6153f92769def5c189c"),
    (["build-basis", "--seq", "prefix[2]:const(3)", "--space", "lp(5/4)",
      "--filter", "frechet", "--n-max", "15"],
     0, "4fdd49c52775fd4619393f2c6dd1b22fe1650ebc34dd25699534ed9c07c392de"),
    (["build-basis", "--seq", "const(5/2)", "--space", "lp(4)", "--filter", "statistical",
      "--n-max", "11"],
     0, "025a2963e30a28773bff3538fafdf0fdf0b3a8dac19608bc4f3ece2dc0c94670"),
    (["build-basis", "--seq", "pow(2,1/4)", "--space", "l1",
      "--filter", "summable(pow(1,-1))", "--n-max", "12"],
     0, "f4f1623dc427f566ffa3a26da79c7df329d13f473ef825a727f52450f306c735"),
    (["build-basis", "--seq", "pow(3,1/4)", "--space", "l2",
      "--filter", "summable(pow(1,-1))", "--n-max", "9"],
     0, "e35b737f526aac2762f6c221c43c891c5374128650654558971c935642163c0f"),
    (["build-basis", "--seq", "const(2)", "--space", "lp(3/2)", "--filter", "frechet",
      "--n-max", "300"],
     0, "99e0f5b3b53314b916b37cc5505e2be4f6064cb3c48c638ae172ea6df68e5b71"),
    (["build-basis", "--seq", "pow(2,1/4)", "--space", "l1",
      "--filter", "summable(pow(1,-1))", "--n-max", "300"],
     0, "b34f7aadc4500b4aa3ca4c3022b99be50dab773d8751fba3d4c9b147b7c966e2"),
]

# a target whose inverse sum converges: no basis, and the refutation instead
NOT_ADMISSIBLE = [
    (["build-basis", "--seq", "pow(2,2)", "--space", "l1", "--filter", "frechet",
      "--n-max", "5"],
     1, "db8be2ef0aced68169f4959fbfff852069980dd84edcecc2a079846cff1c1d2b"),
    (["demo-convergence", "--seq", "pow(2,2)", "--space", "l1", "--filter", "frechet",
      "--n-max", "5", "--vector", "e(1)"],
     1, "279e682e164c99035ac9c18c143e9dbae3033314c76bf313007735ce7275c18e"),
]


# epsilon tables outside l1: every level stationary-or-member in l2, the
# limit shortcut in lp(3), and over-sets classified under a summable filter
# in lp(3/2)
DEMO = [
    (["demo-convergence", "--seq", "pow(2,1/4)", "--space", "l2", "--filter", "statistical",
      "--n-max", "8", "--vector", "spike(residue(2,0); const(1))"],
     0, "3c70c767c3d5fe37c79215b0f924a2222d4f2df6eb028148edafcd9b71c9e882"),
    (["demo-convergence", "--seq", "const(5/2)", "--space", "lp(3)", "--filter", "frechet",
      "--n-max", "6", "--vector", "powtail(1/2)"],
     0, "f4d59b5586a853a115034fb290548afff87a1fd416a2d387af14f190d410f988"),
    (["demo-convergence", "--seq", "pow(3,1/3)", "--space", "lp(3/2)",
      "--filter", "summable(pow(1,-1))", "--n-max", "6",
      "--vector", "spike(shift(geom(2),1); powlog(1,0,-2))"],
     0, "992fc2bc2bdab64be7fba2b59475fe109224aa414879b969a82ca1a764f28282"),
]

# a finite set's and a bounded range's weight sums, added term by term
FINITE_SUM = (["classify-set", "--set", "finite{10,27}", "--filter", "summable(pow(1,-1/2))"],
              0, "149544c7b03d2d8a10e9a630838157392cadd461a3ebd111d2c1245c2c770135")
RANGE_SUM = (["classify-set", "--set", "range(3,40)", "--filter", "summable(pow(1,-1/2))"],
             0, "2e36083f5012b37bd40c93c4bbe52fef1778b44ad5b95e3d2dd8723c8dded4cb")


# greedy witnesses: a refutation whose blocks run past index 65536, the
# scan to the horizon that ``witness`` prints, a set that cannot complete
# the two blocks a certificate needs, and two scans through weights above
# one: piecewise ones whose blocks run to the horizon, and a prefix whose
# filter mass is an inconclusive partial sum
_HUGE = "1" + "0" * 400
GREEDY = [
    (["check-admissible", "--seq", "pow(3/2,1)", "--filter", "summable(pow(1,-2/3))",
      "--p", "1"],
     1, "5b371b55d0646d52f5e8fe40943ab304c996e280d1a9db415490df258a2ab4fb"),
    (["check-admissible", "--seq", "pow(1,3/8)", "--filter", "summable(pow(1,-2/3))",
      "--p", "2"],
     2, "edbb528757b84467725843753c4b3b24ad55cf7a0517b88339b5d5afd4643f80"),
    (["witness", "--seq", "pow(3/2,1)", "--weights", "pow(1,-2/3)", "--p", "1"],
     1, "8131a4f3747938225e0fc19eb4898fec5c121f5caf232593c51d4ee07dfdd9be"),
    (["classify-set", "--set", "greedy(pow(1,3/8); pow(1,-2/3); 2)", "--filter", "frechet"],
     65, "78d73ed4a5f51f45634688ccf569f7dfa0c11ac1b2d45d9a2a09e7e7323fa347"),
    (["witness", "--seq", f"const({_HUGE})", "--weights",
      "piece{residue(2,0) => pow(1,-5/4); residue(2,1) => piece{residue(2,0) => const(100); "
      "residue(2,1) => powlog(1/2,2,2)}}", "--p", "3/2"],
     1, "c745c25f345f6bd6ed3ba2f99cfd3269a4f925c872d5bad0232d9ecea5a57222"),
    (["witness", "--seq", "prefix[2,2]:piece{residue(2,0) => const(1); residue(2,1) => pow(2,3)}",
      "--weights", "powlog(2,-1/2,2)", "--p", "2"],
     1, "cdfa70b35d8fa55928dfb987d9f786375da178d414ef3599af7a1eb4cf8a6b2f"),
]


PINNED = README + CONSTRUCT + NOT_ADMISSIBLE + DEMO + [FINITE_SUM, RANGE_SUM] + GREEDY


@pytest.mark.parametrize("argv,code,digest", PINNED,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_report_bytes_pinned(argv, code, digest):
    got_code, payload = run_command(load_config(argv))
    assert (got_code, hashlib.sha256(payload).hexdigest()) == (code, digest)


def _readme_pin(command):
    return next(pin for pin in README if pin[0][0] == command)


def _fresh_process(argv):
    """`python -X importtime -m fbasis.cli ARGV` and the modules whose code
    ran, as -X importtime names them: never argparse or dataclasses, and
    inspect only under numpy (its `_core.overrides` imports it)."""
    env = dict(os.environ)
    src = str(Path(fbasis.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "fbasis.cli", *argv],
                         env=env, capture_output=True, timeout=120)
    ran = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.decode().splitlines()}
    assert not ran & {"argparse", "dataclasses"}
    assert "inspect" not in ran or any(m.startswith("numpy.") for m in ran)
    return out, ran


@pytest.mark.parametrize("argv,code,digest,symbolic", [
    (*_readme_pin("classify-set"), True),
    (*_readme_pin("dominates"), True),
    (*_readme_pin("witness"), False),
    (*FINITE_SUM, True),
    (*RANGE_SUM, True),
    (*README[2], True),
    (*_readme_pin("demo-convergence"), True),
], ids=["classify-set", "dominates", "witness", "classify-set-finite-sum",
        "classify-set-range-sum", "build-basis-l2", "demo-convergence"])
def test_fresh_process_keeps_the_pinned_bytes(argv, code, digest, symbolic):
    """`python -m fbasis.cli` as its own process: the same bytes as in
    process, and a symbolic query never runs numpy (in this process numpy
    is loaded already)."""
    out, ran = _fresh_process(argv)
    assert (out.returncode, hashlib.sha256(out.stdout).hexdigest()) == (code, digest)
    ran_numpy = sorted(m for m in ran if m == "numpy" or m.startswith("numpy."))
    if symbolic:
        assert ran_numpy == []
    else:
        assert ran_numpy  # loaded on first use


@pytest.mark.parametrize("argv", [["-h"], ["witness", "--help"]])
def test_fresh_process_prints_help(argv):
    out, _ = _fresh_process(argv)
    assert out.returncode == 0
    text = out.stdout.decode()
    for command, (_, row) in _SUBCOMMANDS.items():
        assert command in text and all(f"--{o}" in text for o in _COMMON + row)


# the modules that only some subcommands run; `import fbasis.cli` binds them lazily
ENGINES = ("admissibility", "basis_builder", "lp_operators", "separation", "oracles",
           "witnesses", "vectors")
_BUILD = {"admissibility", "basis_builder", "lp_operators", "vectors"}
_SEPARATE = {"lp_operators", "separation", "vectors"}
# which engines each README example runs, keyed by its subcommand; none of
# them but `witness` builds a witness set
ENGINES_RUN = {
    "check-admissible": {"admissibility"},
    "build-basis": _BUILD,
    "witness": {"admissibility", "witnesses"},
    "separate": _SEPARATE,
    "classify-set": set(),
    "demo-convergence": _BUILD,
    "dominates": set(),
    "profile-lemma1": _SEPARATE,
}
# a lazy module is not a plain module until its code runs, and reading any
# of its attributes runs it; -X importtime does not list it
_REPORT_ENGINES = f"""
import sys, types
import fbasis.cli
code = fbasis.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
ran = [m for m in {ENGINES!r} if type(sys.modules.get("fbasis." + m)) is types.ModuleType]
print(" ".join(ran), file=sys.stderr)
raise SystemExit(code)
"""


def _engines_run(argv):
    env = dict(os.environ)
    src = str(Path(fbasis.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _REPORT_ENGINES, *argv],
                         env=env, capture_output=True, timeout=120)
    return out, set(out.stderr.decode().splitlines()[-1].split())


def test_importing_the_cli_runs_no_engine():
    out, ran = _engines_run([])
    assert out.returncode == 0 and ran == set()


@pytest.mark.parametrize("argv,code,digest", README, ids=[argv[0] for argv, _, _ in README])
def test_each_subcommand_runs_only_its_engines(argv, code, digest):
    out, ran = _engines_run(argv)
    assert (out.returncode, hashlib.sha256(out.stdout).hexdigest()) == (code, digest)
    assert ran == ENGINES_RUN[argv[0]]


def test_the_package_exports_each_name_from_its_module():
    for name, module in fbasis._EXPORTS.items():
        assert getattr(fbasis, name) is getattr(importlib.import_module("fbasis." + module), name)
    assert set(fbasis.__all__) == set(fbasis._EXPORTS)
    with pytest.raises(AttributeError, match="no_such_name"):
        fbasis.no_such_name
