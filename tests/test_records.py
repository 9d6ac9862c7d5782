"""Records built through their slots behave as plain frozen dataclasses."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, fields, make_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seclink
from seclink.effects import Caller, Err, ErrCode, IoOp, Ok, _Trusted
from seclink.monitor import WebServerState, Written


def _frozen_classes():
    """Every frozen dataclass in seclink, in definition order: each is a `record`."""
    found = {}
    for info in pkgutil.walk_packages(seclink.__path__, "seclink."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():  # `ret` names `Ret` too, hence the dict
            if isinstance(cls, type) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found[cls] = cls.__dataclass_params__.frozen
    return [cls for cls, frozen in found.items() if frozen]


# A `__post_init__` makes a class more than its fields, and `_Trusted` cannot
# be called (tests/test_demos.py checks it); every other record has a twin.
RECORDS = tuple(cls for cls in _frozen_classes() if not hasattr(cls, "__post_init__") and cls is not _Trusted)


def _own_repr(cls):
    return cls.__repr__.__qualname__ == f"{cls.__qualname__}.__repr__"


def _twin(cls):
    """A plain `@dataclass(frozen=True)` with the same fields, field flags,
    defaults and hand-written `__repr__`."""
    specs = [
        (
            f.name,
            f.type,
            dataclasses.field(
                default=f.default, default_factory=f.default_factory, repr=f.repr, hash=f.hash, compare=f.compare
            ),
        )
        for f in fields(cls)
    ]
    namespace = {"__repr__": cls.__repr__} if _own_repr(cls) else {}
    return make_dataclass(cls.__name__, specs, frozen=True, eq=cls.__dataclass_params__.eq, namespace=namespace)


TWINS = {cls: _twin(cls) for cls in RECORDS}

values = st.one_of(
    st.integers(-3, 3),
    st.binary(max_size=3),
    st.text(max_size=2),
    st.none(),
    st.booleans(),
    st.sampled_from([*IoOp, *Caller, *ErrCode, Ok(1), Err(ErrCode.EBADF, "why"), Written()]),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
)


def _field_values(obj):
    return tuple(getattr(obj, f.name) for f in fields(obj))


def _hash(obj):
    try:
        return ("hash", hash(obj))
    except TypeError as exc:  # a field such as `Written` is unhashable
        return ("unhashable", str(exc))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(RECORDS), st.data())
def test_records_match_their_frozen_dataclass_twins(cls, data):
    twin, names = TWINS[cls], [f.name for f in fields(cls)]
    args = data.draw(st.tuples(*[values] * len(names)))
    other = data.draw(st.tuples(*[values] * len(names)))
    rec, ref = cls(*args), twin(*args)

    assert [f.name for f in fields(rec)] == [f.name for f in fields(ref)] == names
    assert _field_values(cls(**dict(zip(names, args)))) == _field_values(rec) == args
    assert repr(rec) == repr(ref)
    assert (rec == cls(*args)) == (ref == twin(*args))
    assert (rec == cls(*other)) == (ref == twin(*other))
    assert rec != ref and (rec == rec) and (ref == ref)
    if cls.__dataclass_params__.eq:
        assert _hash(rec) == _hash(ref)
    else:
        assert hash(rec) == object.__hash__(rec)

    for name, new in zip(names, other):
        changed, changed_ref = replace(rec, **{name: new}), replace(ref, **{name: new})
        assert type(changed) is cls and _field_values(changed) == _field_values(changed_ref)
        assert (changed == rec) == (changed_ref == ref)  # one field changed: its `compare` flag decides
        with pytest.raises(FrozenInstanceError):
            setattr(rec, name, new)
        with pytest.raises(FrozenInstanceError):
            delattr(rec, name)
    assert _field_values(rec) == args
    for again in (copy.copy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(again) is cls and _field_values(again) == args


def test_every_record_is_covered():
    names = {cls.__name__ for cls in RECORDS}
    assert len(names) == len(RECORDS)  # the test ids below are unique
    assert {"Ok", "Err", "Event", "DInt", "WebServerState", "ArrowT", "Leaf", "Var", "_Token"} <= names
    assert {"TargetInterface", "SecureIoLib", "Call", "_Guard"} <= names
    assert {cls for cls in RECORDS if _own_repr(cls)} == {Ok, Err}
    assert not any(cls.__name__ in ("MStateDesc", "SourceInterface") for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_defaults_match_their_twins(cls):
    required = [f for f in fields(cls) if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    args = [object() for _ in required]
    made, ref = cls(*args), TWINS[cls](*args)
    for f in fields(cls):
        mine, theirs = getattr(made, f.name), getattr(ref, f.name)
        assert type(mine) is type(theirs) and mine == theirs
    with pytest.raises(TypeError):
        cls(*[None] * (len(fields(cls)) + 1))


def test_each_web_server_state_gets_a_fresh_written():
    a, b = WebServerState(), WebServerState()
    assert type(a.written) is Written and a.written is not b.written
    assert WebServerState(responded=True).written is not a.written
    assert a == b and Err(ErrCode.EBADF) == Err(ErrCode.EBADF, None)
