"""The frozen records of qaw.context.Record keep what the frozen dataclasses
they replaced gave each class: its fields, construction, immutability,
equality, hashing and repr."""

import pytest

import qaw
from qaw.context import MISSING, QContext
from qaw.identities import (
    AtakishiyevParams,
    AWParams,
    CheckOutcome,
    Generating3phi2Params,
    GeneratingParams,
    IdentityReport,
    PlainAtakishiyevParams,
    PlainAWParams,
)
from qaw.qcore import HypergeometricSpec
from qaw.quad import QuadratureResult

M = MISSING
_GEN = [("q", "float", M), ("a", "float", M), ("x", "float", M), ("mu", "float", M),
        ("b", "complex", 0.0)]
_PLAIN = [("b", "complex", 0.0), ("c", "complex", 0.0), ("d", "complex", 0.0)]
_XMU = [("x", "float", 0.0), ("mu", "float", 1.0)]

# each class as a frozen dataclass described it: its fields as (name,
# declared type, default), a report's two diag fields by default_factory=dict;
# one instance's positional arguments; its repr; and whether it hashes (a
# dict field does not)
SNAPSHOT = [
    (QContext, [("q", "float", M)], (0.5,), "QContext(q=0.5)", True),
    (HypergeometricSpec,
     [("numer", "tuple", ()), ("denom", "tuple", ()), ("z", "complex", 1.0),
      ("terminating_k", "int | None", None)],
     ((0.1, 0.2j), (0.3,), 0.4, 2),
     "HypergeometricSpec(numer=(0.1, 0.2j), denom=(0.3,), z=0.4, terminating_k=2)", True),
    (QuadratureResult,
     [("value", "complex", M), ("est_error", "float", M), ("nodes_used", "int", M),
      ("window", "tuple | None", M)],
     (1.5 + 0j, 1e-16, 33, (-1.5, 1.5)),
     "QuadratureResult(value=(1.5+0j), est_error=1e-16, nodes_used=33, window=(-1.5, 1.5))",
     True),
    (GeneratingParams,
     [*_GEN, *(("r", "complex", 0.0), ("s", "complex", 0.0), ("t", "complex", 0.0),
               ("u", "complex", 0.0), ("z", "complex", 0.0))],
     (0.5, 0.2, 0.6, 1.5, 0.3, 0.4, 0.1, 0.2, 0.1, 0.3j),
     "GeneratingParams(q=0.5, a=0.2, x=0.6, mu=1.5, b=0.3, r=0.4, s=0.1, t=0.2, u=0.1, z=0.3j)",
     True),
    (Generating3phi2Params,
     [*_GEN, *(("s", "complex", 0.0), ("t", "complex", 0.0), ("z", "complex", 0.0))],
     (0.5, 0.2, 0.6, 1.5, 0.3, 0.1, 0.2, 0.3j),
     "Generating3phi2Params(q=0.5, a=0.2, x=0.6, mu=1.5, b=0.3, s=0.1, t=0.2, z=0.3j)", True),
    (PlainAWParams, [("q", "float", M), ("a", "float", M), *_PLAIN],
     (0.5, 0.2, 0.3, 0.1, 0.15), "PlainAWParams(q=0.5, a=0.2, b=0.3, c=0.1, d=0.15)", True),
    (AWParams, [("q", "float", M), ("a", "float", M), *_PLAIN, *_XMU],
     (0.5, 0.2, 0.3, 0.1, 0.15, 0.6, 1.5),
     "AWParams(q=0.5, a=0.2, b=0.3, c=0.1, d=0.15, x=0.6, mu=1.5)", True),
    (PlainAtakishiyevParams, [("alpha_g", "float", M), ("a", "float", 0.0), *_PLAIN],
     (1.0, 0.1, 0.05, 0.05, 0.02),
     "PlainAtakishiyevParams(alpha_g=1.0, a=0.1, b=0.05, c=0.05, d=0.02)", True),
    (AtakishiyevParams, [("alpha_g", "float", M), ("a", "float", 0.0), *_PLAIN, *_XMU],
     (1.0, 0.1, 0.05, 0.05, 0.02, 0.6, 1.5),
     "AtakishiyevParams(alpha_g=1.0, a=0.1, b=0.05, c=0.05, d=0.02, x=0.6, mu=1.5)", True),
    (IdentityReport,
     [("identity_name", "str", M), ("params", "dict", M), ("lhs", "complex", M),
      ("rhs", "complex", M), ("abs_err", "float", M), ("rel_err", "float", M),
      ("lhs_diag", "dict", {}), ("rhs_diag", "dict", {}), ("wall_time", "float", 0.0),
      ("tolerance", "float", 0.0), ("passed", "bool", False), ("failure", "str | None", None)],
     ("askey-wilson", {"q": 0.5}, 1j, 1j, 0.0, 0.0, {"nodes": 33}, {}, 0.001, 1e-6, True, None),
     "IdentityReport(identity_name='askey-wilson', params={'q': 0.5}, lhs=1j, rhs=1j, "
     "abs_err=0.0, rel_err=0.0, lhs_diag={'nodes': 33}, rhs_diag={}, wall_time=0.001, "
     "tolerance=1e-06, passed=True, failure=None)", False),
    (CheckOutcome,
     [("identity_name", "str", M), ("status", "str", M), ("report", "IdentityReport | None", None),
      ("reason", "str | None", None), ("params", "dict | None", None),
      ("details", "dict | None", None)],
     ("askey-wilson", "skipped", None, "a must be real", {"q": 0.5}, None),
     "CheckOutcome(identity_name='askey-wilson', status='skipped', report=None, "
     "reason='a must be real', params={'q': 0.5}, details=None)", False),
]


@pytest.mark.parametrize("cls, fields, args, text, hashable", SNAPSHOT,
                         ids=[row[0].__name__ for row in SNAPSHOT])
def test_record_keeps_its_dataclass_semantics(cls, fields, args, text, hashable):
    assert [(f.name, f.type, f.default) for f in cls.fields] == fields
    names = [name for name, _, _ in fields]
    record = cls(*args)
    assert record == cls(**dict(zip(names, args))) and not record != cls(*args)
    assert vars(record) == dict(zip(names, args)) and list(vars(record)) == names
    assert repr(record) == text
    if hashable:
        assert hash(record) == hash(cls(*args))
    else:
        with pytest.raises(TypeError):
            hash(record)
    # the required fields alone take every default
    required = [name for name, _, default in fields if default is M]
    defaults = cls(*args[:len(required)])
    assert [getattr(defaults, name) for name in names[len(required):]] == [
        default for _, _, default in fields[len(required):]]
    for name in [*names, "other"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == dict(zip(names, args))
    for bad in ({"args": (*args, 0)}, {"args": args, "named": {names[0]: args[0]}},
                {"args": args, "named": {"other": 0}}):
        with pytest.raises(TypeError):
            cls(*bad["args"], **bad.get("named", {}))
    if required:
        with pytest.raises(TypeError, match=f"needs the field\\(s\\) {', '.join(required)}$"):
            cls()


def test_equality_is_within_one_class():
    assert PlainAWParams(0.5, 0.2) != AWParams(0.5, 0.2)
    assert AWParams(0.5, 0.2) == AWParams(0.5, 0.2, 0.0, 0.0, 0.0, 0.0, 1.0)
    assert AWParams(0.5, 0.2) != AWParams(0.5, 0.3)


def test_class_constants_are_no_fields():
    assert Generating3phi2Params.r == Generating3phi2Params.u == 0.0
    p = Generating3phi2Params(0.5, 0.2, 0.6, 1.5)
    assert (p.r, p.u) == (0.0, 0.0) and not {"r", "u"} & set(vars(p))
    with pytest.raises(TypeError, match="has no field\\(s\\) r$"):
        Generating3phi2Params(0.5, 0.2, 0.6, 1.5, r=0.4)


def test_each_report_takes_fresh_diag_dicts():
    first, second = (IdentityReport("x", {}, 0j, 0j, 0.0, 0.0) for _ in range(2))
    first.lhs_diag["nodes"] = 33
    assert second.lhs_diag == {} and IdentityReport.fields[6].default == {}
    assert len({id(r.lhs_diag) for r in (first, second)} | {id(first.rhs_diag)}) == 3


def test_post_init_checks_still_run():
    with pytest.raises(qaw.DomainError):
        QContext(1.5)
    spec = HypergeometricSpec([0.1], [0.2], terminating_k=2)
    assert (spec.numer, spec.denom) == ((0.1,), (0.2,))

