"""Records built through their slots behave as plain frozen dataclasses."""

from __future__ import annotations

import dataclasses
from dataclasses import FrozenInstanceError, fields, make_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seclink import contracts
from seclink.effects import Caller, Err, ErrCode, Event, IoOp, Ok
from seclink.monitor import WebServerState, Written

RECORDS = (
    Ok,
    Err,
    Event,
    contracts.DUnit,
    contracts.DInt,
    contracts.DBytes,
    contracts.DFd,
    contracts.DErr,
    contracts.DPair,
    contracts.DLeft,
    contracts.DRight,
    contracts.DClosure,
    WebServerState,
)
CUSTOM_REPR = (Ok, Err)


def _twin(cls):
    """A plain `@dataclass(frozen=True)` with the same fields, defaults and
    hand-written `__repr__`."""
    specs = [
        (f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory))
        for f in fields(cls)
    ]
    namespace = {"__repr__": cls.__repr__} if cls in CUSTOM_REPR else {}
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


@settings(max_examples=300, deadline=None)
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
        with pytest.raises(FrozenInstanceError):
            setattr(rec, name, new)
        with pytest.raises(FrozenInstanceError):
            delattr(rec, name)
    assert _field_values(rec) == args


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
