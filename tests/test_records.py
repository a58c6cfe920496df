"""The closed-form layer's records behave as the frozen dataclasses they replace.

Eight of them are plain classes on geometry.Record; CertificateReport is
still a frozen dataclass.  Each table row gives a record's class, its field
names in order, one value per field, and the fields that have defaults.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import newton2d
from newton2d.certificate import CertificateReport
from newton2d.extremal import (
    Classification,
    ExtremalCertificate,
    GradientReport,
    SolutionReport,
    SolutionStatus,
)
from newton2d.geometry import (
    CounterexampleParams,
    ProblemSpec,
    Profile,
    Record,
    StaircaseParams,
    ValidationResult,
    Variant,
)

_POINTS = ((0.0, 0.0), (0.6, 0.0), (1.0, 0.4))
_TRIANGLE = Profile(((0.0, 0.0), (1.0, 2.0)))

RECORDS = [
    (ProblemSpec, ("r", "H", "variant", "dimension"),
     (1.0, 0.4, Variant.RESTRICTED, 2), {"variant": Variant.RESTRICTED, "dimension": 2}),
    (Profile, ("breakpoints",), (_POINTS,), {}),
    (StaircaseParams, ("n", "xi", "mu"), (1, (0.0, 0.6, 1.0, 1.0), (0.0, 0.4)), {}),
    (CounterexampleParams, ("a",), (3.0,), {}),
    (ValidationResult, ("ok", "issues"), (False, ("a", "b")), {"issues": ()}),
    (ExtremalCertificate, ("lam", "stationary", "classification", "psi0"),
     (0.5, (0.29559774252208476, 1.0), (Classification.LOCAL_MIN, Classification.LOCAL_MAX), -1.0),
     {"psi0": -1.0}),
    (CertificateReport, ("passed", "lam", "worst_violation", "h_max", "segment_values", "notes"),
     (True, 0.5, 0.0, -1.0, (-1.0, -1.0), ("note",)), {"notes": ()}),
    (SolutionReport,
     ("variant", "status", "minimal_resistance", "representative_profiles", "certificate", "notes"),
     (Variant.RESTRICTED, SolutionStatus.UNIQUE_MINIMIZER, 0.2, (_TRIANGLE,), None, ("note",)),
     {"notes": ()}),
    (GradientReport,
     ("analytic", "finite_difference", "analytic_norm", "finite_difference_norm", "coordinate_names"),
     ((0.0, 1e-3), (1e-9, 1e-3), 1e-3, 1e-3, ("xi_1", "xi_2")), {}),
]
IDS = [row[0].__name__ for row in RECORDS]


@pytest.fixture(params=RECORDS, ids=IDS)
def row(request):
    return request.param


def _build(row):
    cls, names, values, _ = row
    return cls(*values)


def test_positional_and_keyword_construction_agree(row):
    cls, names, values, defaults = row
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert tuple(getattr(record, name) for name in names) == values


def test_defaults_fill_the_trailing_fields(row):
    cls, names, values, defaults = row
    given = {n: v for n, v in zip(names, values) if n not in defaults}
    record = cls(**given)
    for name, default in defaults.items():
        assert getattr(record, name) == default
    assert record == cls(*values[: len(given)], *defaults.values())


def test_equal_only_to_the_same_class(row):
    cls, names, values, _ = row
    record = _build(row)
    same = type("Same", (cls,), {})(*values)
    assert record == cls(*values)
    assert not record != cls(*values)
    assert record != values
    assert values != record
    assert record != same and same != record
    assert record.__eq__(values) is NotImplemented


def test_hash_is_the_hash_of_the_field_tuple(row):
    cls, names, values, _ = row
    record = _build(row)
    assert hash(record) == hash(values)
    assert hash(record) == hash(cls(*values))


def test_fields_cannot_be_assigned_or_deleted(row):
    cls, names, values, _ = row
    record = _build(row)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(row, protocol):
    record = _build(row)
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is type(record) and back == record


def test_copies_are_equal(row):
    record = _build(row)
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record


def test_repr_names_every_field(row):
    cls, names, values, _ = row
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(_build(row)) == f"{cls.__name__}({fields})"


def test_records_list_their_fields_in_order(row):
    cls, names, _, _ = row
    if cls is CertificateReport:
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
    else:
        assert issubclass(cls, Record) and cls._fields == names


def _package_records():
    # every Record subclass defined in the package, each module imported
    for module in pkgutil.iter_modules(newton2d.__path__):
        importlib.import_module(f"newton2d.{module.name}")
    found, stack = set(), [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("newton2d."):
                found.add(cls)
    return found


def test_every_record_defines_its_own_constructor():
    # _fields are read from the class's own __init__; an inherited one would
    # silently give a record its base's fields
    records = _package_records()
    assert records == {cls for cls, *_ in RECORDS} - {CertificateReport}
    for cls in records:
        assert "__init__" in vars(cls), cls.__name__


def test_fields_are_the_positional_parameters_of_the_constructor():
    class Point(Record):
        def __init__(self, x, y=0.0, *, scale=1.0):
            sx = x * scale  # a local, not a field
            self._init(sx, y * scale)

    assert Point._fields == ("x", "y")
    assert Point(1.0, scale=2.0) == Point(2.0, 0.0)
    assert repr(Point(1.0, 2.0)).endswith("Point(x=1.0, y=2.0)")


def test_repr_strings_are_those_of_the_dataclasses():
    spec = ProblemSpec(1.0, 0.4)
    assert repr(spec) == (
        "ProblemSpec(r=1.0, H=0.4, variant=<Variant.RESTRICTED: 'restricted'>, dimension=2)"
    )
    assert repr(ProblemSpec(2, 3, "unrestricted", 3)) == (
        "ProblemSpec(r=2, H=3, variant=<Variant.UNRESTRICTED: 'unrestricted'>, dimension=3)"
    )
    profile = Profile(_POINTS)
    assert repr(profile) == "Profile(breakpoints=((0.0, 0.0), (0.6, 0.0), (1.0, 0.4)))"
    profile.slopes
    assert repr(profile) == "Profile(breakpoints=((0.0, 0.0), (0.6, 0.0), (1.0, 0.4)))"
    assert repr(ValidationResult(ok=True)) == "ValidationResult(ok=True, issues=())"
    assert repr(ValidationResult(False, ("a", "b"))) == (
        "ValidationResult(ok=False, issues=('a', 'b'))"
    )


def test_profile_caches_its_coordinates_outside_the_fields():
    profile = Profile(((0, 0), (1, 2), (3, 2)))
    assert profile.breakpoints == ((0.0, 0.0), (1.0, 2.0), (3.0, 2.0))
    assert profile.xs == (0.0, 1.0, 3.0)
    assert profile.ys == (0.0, 2.0, 2.0)
    assert profile.slopes == (2.0, 0.0)
    assert profile.xs is profile.xs and profile.slopes is profile.slopes
    assert profile == Profile(((0, 0), (1, 2), (3, 2)))
    assert hash(profile) == hash((profile.breakpoints,))
    for clone in (pickle.loads(pickle.dumps(profile)), copy.deepcopy(profile)):
        assert clone == profile and clone.slopes == (2.0, 0.0)
        assert clone.slope_at(2.0) == 0.0


def test_string_variant_is_stored_as_the_enum():
    assert ProblemSpec(1.0, 2.0, "unrestricted").variant is Variant.UNRESTRICTED
    assert ProblemSpec(1.0, 2.0, "unrestricted") == ProblemSpec(1.0, 2.0, Variant.UNRESTRICTED)
