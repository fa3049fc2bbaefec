"""The value classes of `fbasis._record` against the standard library's
`dataclasses.dataclass(frozen=True)` as the oracle.

For every record class a twin is built by the standard decorator from the
same annotations and defaults.  Built from the same seeded arguments, the
record and its twin must agree on `==` (both directions, and against other
classes), `hash`, `repr`, the `__init__` signature and defaults, and on
refusing assignment and deletion.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import pytest

import fbasis
from fbasis import _record
from fbasis.admissibility import (
    AdmissVerdict,
    BandReport,
    RefutationCertificate,
    SlowVerdict,
)
from fbasis.basis_builder import (
    BasisSystem,
    BiorthReport,
    ConvergenceReport,
    DefectReport,
    EpsilonEntry,
)
from fbasis.cli import RunConfig
from fbasis.filters import (
    DominationVerdict,
    Frechet,
    LimitVerdict,
    Statistical,
    Summable,
    Trace,
)
from fbasis.lp_operators import NormReport, SpaceKind, TailOp
from fbasis.natset import (
    CoFinite,
    Complement,
    DensityVerdict,
    Finite,
    GeometricIndex,
    Intersection,
    Range,
    Residue,
    Sampled,
    Shifted,
    SumVerdict,
    Union,
    _Desc,
    _EP,
)
from fbasis.separation import (
    ClusterNotFound,
    ClusterWitness,
    ProfileRow,
    RankOneOp,
    SeparatorSpec,
)
from fbasis.sequences import (
    Constant,
    ExplicitPrefix,
    Piecewise,
    PowerLog,
    SpikeSeq,
    TailForm,
)
from fbasis.vectors import BasisVector, PowerTail, Spike
from fbasis.witnesses import GreedyBlockSet, SparseThresholdSet

from conftest import random_power_seq, random_set_expr

# the fields declared with `field(...)`, as the standard decorator takes them
FIELD_SPECS = {
    (GreedyBlockSet, "criterion"): dataclasses.field(default=None, compare=False, repr=False),
    (BasisSystem, "warnings"): dataclasses.field(default_factory=list),
}


def _a(*args, **kwargs):
    return args, kwargs


def _frac(r):
    return Fraction(r.randrange(1, 9), r.randrange(1, 5))


def _ints(r, k):
    return tuple(sorted(r.sample(range(1, 40), k)))


def _residue(r):
    q = r.randrange(2, 7)
    return Residue(q, r.randrange(q))


def _verdict(r):
    return AdmissVerdict(r.choice(["proved", "refuted", "inconclusive"]),
                         criterion=r.choice(["", "bounded"]), reason=r.choice(["", "why"]))


def _system(r):
    extra = {"warnings": ["w"]} if r.random() < 0.5 else {}
    return _a(SpaceKind(1, r.randrange(4, 9)), Constant(2), Frechet(), [1, _frac(r)], None,
              [], [Fraction(1, 2)], _verdict(r), [Fraction(2)], **extra)


# class -> seeded (args, kwargs) of one instance; raw values, which
# `__post_init__` normalizes (an int where a Fraction is kept, ...)
BUILDERS = {
    # natset
    Finite: lambda r: _a(list(_ints(r, r.randrange(0, 4)))),
    CoFinite: lambda r: _a(list(_ints(r, r.randrange(0, 4)))),
    Residue: lambda r: _a(r.choice([2, 6]), r.randrange(2)),
    Range: lambda r: _a(r.randrange(1, 30), r.choice([None, 40])),
    GeometricIndex: lambda r: _a(r.randrange(2, 5)),
    Sampled: lambda r: _a(_ints(r, 3), 40),
    Shifted: lambda r: _a(random_set_expr(r, 1), r.randrange(-3, 4)),
    Union: lambda r: _a((random_set_expr(r, 1), random_set_expr(r, 0))),
    Intersection: lambda r: _a((random_set_expr(r, 1), random_set_expr(r, 0))),
    Complement: lambda r: _a(random_set_expr(r, 1)),
    _EP: lambda r: _a(4, r.randrange(16)),
    _Desc: lambda r: _a(_EP(2, 1 << r.randrange(2)), frozenset(_ints(r, 2)), frozenset()),
    DensityVerdict: lambda r: _a(r.choice(["exact", "bounds"]), _frac(r),
                                 horizon=r.choice([None, 100])),
    SumVerdict: lambda r: _a(r.choice(["converges", "diverges"]), _frac(r), partial=r.random()),
    # sequences
    Constant: lambda r: _a(r.choice([2, _frac(r), 2.5])),
    PowerLog: lambda r: _a(_frac(r), r.choice([-1, _frac(r)]), r.choice([0, Fraction(1, 2)])),
    ExplicitPrefix: lambda r: _a([_frac(r), 2.5], random_power_seq(r)),
    Piecewise: lambda r: _a(((Residue(2, 0), random_power_seq(r)),
                             (Residue(2, 1), random_power_seq(r)))),
    SpikeSeq: lambda r: _a(random_set_expr(r, 1), random_power_seq(r)),
    TailForm: lambda r: _a(_frac(r), _frac(r), Fraction(0), r.randrange(1, 5),
                           r.choice([(), ((1, Fraction(3)),)])),
    # filters
    Frechet: lambda r: _a(),
    Statistical: lambda r: _a(),
    Summable: lambda r: _a(PowerLog(_frac(r), r.choice([-1, Fraction(-1, 2)]))),
    Trace: lambda r: _a(Frechet(), Range(r.randrange(1, 9))),
    LimitVerdict: lambda r: _a(r.choice(["converges", "inconclusive"]), _frac(r),
                               epsilon=r.random()),
    DominationVerdict: lambda r: _a(r.choice(["proved", "refuted"]), "rule", _residue(r)),
    # lp_operators
    SpaceKind: lambda r: _a(r.choice([1, 2, Fraction(3, 2), 1.5]), r.randrange(2, 9)),
    TailOp: lambda r: _a(1, [1, _frac(r)], SpaceKind(1, 4), r.choice([None, [1, 4]])),
    NormReport: lambda r: _a(1.0, "ColumnMax", 0.5, r.choice([1.0, 2.0]),
                             exact=r.choice([None, Fraction(1)])),
    # admissibility
    RefutationCertificate: lambda r: _a(SumVerdict("diverges"), SumVerdict("converges", _frac(r))),
    AdmissVerdict: lambda r: _a(r.choice(["proved", "refuted", "inconclusive"]),
                                criterion=r.choice(["", "bounded"]), reason=r.choice(["", "why"])),
    BandReport: lambda r: _a(_frac(r), _verdict(r), ((Fraction(3, 2), _verdict(r)),)),
    SlowVerdict: lambda r: _a(r.choice(["not-slow", "slow-by-rule"]), random_power_seq(r)),
    # witnesses
    GreedyBlockSet: lambda r: _a(PowerLog(r.choice([1, 2]), 2), PowerLog(1, -1), 1,
                                 criterion=r.choice([None, "unbounded"])),
    SparseThresholdSet: lambda r: _a(PowerLog(1, _frac(r)), r.choice([1, 2])),
    # vectors
    BasisVector: lambda r: _a(r.randrange(1, 9)),
    PowerTail: lambda r: _a(_frac(r), r.choice([1, Fraction(1, 2)])),
    Spike: lambda r: _a(random_set_expr(r, 1), random_power_seq(r)),
    # basis_builder
    BasisSystem: _system,
    BiorthReport: lambda r: _a(r.randrange(1, 9), r.random(), r.random() < 0.5),
    DefectReport: lambda r: _a([0.5, r.random()], [0.1], True,
                               r.choice([(), (("e(1)", "converges"),)])),
    EpsilonEntry: lambda r: _a(r.random(), "finite{1}", None, "negligible"),
    ConvergenceReport: lambda r: _a("e(1)", [r.random()],
                                    (EpsilonEntry(0.5, None, None, "stationary"),),
                                    LimitVerdict("converges", 0), r.choice(["", "caveat"])),
    # separation
    SeparatorSpec: lambda r: _a("linf-diagonal", r.random(), random_power_seq(r), _frac(r),
                                1.1, True),
    ClusterWitness: lambda r: _a(r.randrange(1, 99), (r.random(), 0.5)),
    ClusterNotFound: lambda r: _a(10 ** 6, r.random(), r.randrange(1, 99)),
    ProfileRow: lambda r: _a(r.randrange(1, 99), r.random(), 1.0),
    RankOneOp: lambda r: _a(r.randrange(1, 99), r.random(), 3),
    # cli
    RunConfig: lambda r: _a(r.choice(["witness", "dominates"]), {"p": r.random()}),
}


def _record_classes():
    """The record classes of every module of the package, each imported here:
    `fbasis` and `fbasis.cli` load most of them only on first use."""
    modules = [importlib.import_module(f"fbasis.{m.name}")
               for m in pkgutil.iter_modules(fbasis.__path__)]
    return {cls for mod in modules for cls in vars(mod).values()
            if isinstance(cls, type) and cls.__module__ == mod.__name__
            and cls.__setattr__ is _record._frozen_setattr}


def _twin(cls):
    """`cls` rebuilt by the standard decorator from its annotations and
    defaults: a subclass, so that `__post_init__` and the methods it calls
    are the record's, while every generated method is the decorator's."""
    body = {"__annotations__": dict(cls.__annotations__), "__qualname__": cls.__qualname__,
            "__module__": cls.__module__}
    for name in cls.__annotations__:
        if (cls, name) in FIELD_SPECS:
            body[name] = FIELD_SPECS[cls, name]
        elif name in vars(cls):
            body[name] = vars(cls)[name]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (cls,), body))


TWINS = {cls: _twin(cls) for cls in BUILDERS}


def _pairs(seed):
    """Three (record, twin) pairs per class, each built from the same seeded arguments."""
    rng = random.Random(seed)
    out = []
    for cls, build in BUILDERS.items():
        for _ in range(3):
            args, kwargs = build(rng)
            out.append((cls(*args, **kwargs), TWINS[cls](*args, **kwargs)))
    return out


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # e.g. hashing a record that holds a list
        return "raises", type(exc)


def test_every_record_class_has_a_builder():
    assert _record_classes() == set(BUILDERS)
    assert len(BUILDERS) == 49


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda c: c.__name__)
def test_signature_and_defaults_match_the_standard_decorator(cls):
    twin = TWINS[cls]
    ours = inspect.signature(cls).parameters.values()
    theirs = inspect.signature(twin).parameters.values()
    assert [(p.name, p.kind, p.default is p.empty) for p in ours] == \
        [(p.name, p.kind, p.default is p.empty) for p in theirs]
    # built from the required fields alone, both fill in the same defaults
    args, kwargs = BUILDERS[cls](random.Random(0))
    sample = cls(*args, **kwargs)
    required = {p.name: getattr(sample, p.name) for p in ours if p.default is p.empty}
    a, b = cls(**required), cls(**required)
    ta, tb = twin(**required), twin(**required)
    for f in dataclasses.fields(twin):
        assert getattr(a, f.name) == getattr(ta, f.name)
        if f.default_factory is not dataclasses.MISSING:  # a fresh value per instance
            assert getattr(a, f.name) is not getattr(b, f.name)
            assert getattr(ta, f.name) is not getattr(tb, f.name)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eq_hash_repr_match_the_standard_decorator(seed):
    pairs = _pairs(seed)
    for obj, twin in pairs:
        assert repr(obj) == repr(twin)
        assert _outcome(hash, obj) == _outcome(hash, twin)
        # a record never equals its twin: another class
        assert obj.__eq__(twin) is NotImplemented and twin.__eq__(obj) is NotImplemented
        assert obj != twin
    for obj, twin in pairs:
        for other, other_twin in pairs:
            ours, theirs = obj.__eq__(other), twin.__eq__(other_twin)
            assert (ours is NotImplemented) == (theirs is NotImplemented)
            assert (obj == other) == (twin == other_twin)


def test_compare_false_stays_out_of_eq_hash_and_repr():
    a = GreedyBlockSet(PowerLog(1, 2), PowerLog(1, -1), 1)
    b = GreedyBlockSet(PowerLog(1, 2), PowerLog(1, -1), 1, criterion="unbounded")
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "criterion" not in repr(b)


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise(cls):
    args, kwargs = BUILDERS[cls](random.Random(0))
    obj, twin = cls(*args, **kwargs), TWINS[cls](*args, **kwargs)
    for name in [*cls.__annotations__, "other"]:
        for target in (obj, twin):
            with pytest.raises(AttributeError):
                setattr(target, name, 1)
            with pytest.raises(AttributeError):
                delattr(target, name)
    assert repr(obj) == repr(twin)
