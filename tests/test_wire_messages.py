"""The wire messages' contract, independent of how ``__init__`` is built.

Every class in :mod:`repro.transport.messages` must construct exactly
what a frozen dataclass constructs — the same fields, defaults, ``==``,
hash and repr — and stay frozen, while its ``__init__`` fills the
instance in one step instead of one ``object.__setattr__`` per field.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.transport import messages

CLASSES = sorted(
    (obj for obj in vars(messages).values()
     if isinstance(obj, type) and dataclasses.is_dataclass(obj)
     and obj.__module__ == messages.__name__),
    key=lambda cls: cls.__name__)

FACTORY_CLASSES = [
    cls for cls in CLASSES
    if any(f.default_factory is not dataclasses.MISSING
           for f in dataclasses.fields(cls))]


def non_default_value(f: dataclasses.Field):
    """A value for field ``f`` that differs from its default."""
    if f.default_factory is not dataclasses.MISSING:
        return {f.name: 1}
    default = f.default
    if default is dataclasses.MISSING or default is None:
        return f"{f.name}-value"
    if isinstance(default, bool):
        return not default
    if isinstance(default, (int, float)):
        return default + 3
    if isinstance(default, str):
        return f"{f.name}-value"
    if isinstance(default, bytes):
        return f.name.encode()
    if isinstance(default, tuple):
        return (f"{f.name}-item",)
    raise AssertionError(f"no sample value for {f.name}: {default!r}")


def field_values(cls, filled: bool) -> dict:
    """Every field of ``cls`` → its default (``sender`` always set), or a
    non-default value when ``filled``."""
    values = {}
    for f in dataclasses.fields(cls):
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        if filled or required:
            values[f.name] = non_default_value(f)
        elif f.default_factory is not dataclasses.MISSING:
            values[f.name] = f.default_factory()
        else:
            values[f.name] = f.default
    return values


def reference(cls, values: dict):
    """What a frozen dataclass's generated ``__init__`` builds."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a dict field: unhashable either way
        return type(exc)


def test_every_class_is_covered():
    names = {cls.__name__ for cls in CLASSES}
    assert {"Message", "TaskMessage", "ResultMessage", "TaskBatchMessage",
            "ResultBatchMessage", "Heartbeat", "Registration",
            "Advertisement", "CommandMessage"} <= names


@pytest.mark.parametrize("filled", [False, True], ids=["defaults", "filled"])
@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestConstruction:
    def test_matches_reference(self, cls, filled):
        values = field_values(cls, filled)
        ref = reference(cls, values)
        kwargs = values if filled else {"sender": values["sender"]}
        for obj in (cls(**kwargs), cls(*values.values())):
            assert obj == ref
            assert hash_or_error(obj) == hash_or_error(ref)
            assert repr(obj) == repr(ref)
            assert list(vars(obj)) == list(values)

    def test_frozen(self, cls, filled):
        obj = cls(**field_values(cls, filled))
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.sender = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del obj.sender

    def test_pickles(self, cls, filled):
        obj = cls(**field_values(cls, filled))
        assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestSignature:
    def test_unknown_keyword_raises(self, cls):
        with pytest.raises(TypeError):
            cls(sender="s", no_such_field=1)

    def test_missing_sender_raises(self, cls):
        with pytest.raises(TypeError):
            cls()

    def test_init_sets_no_field_one_by_one(self, cls):
        assert "__setattr__" not in cls.__init__.__code__.co_names


@pytest.mark.parametrize("cls", FACTORY_CLASSES, ids=lambda cls: cls.__name__)
def test_default_factory_is_fresh_per_instance(cls):
    first, second = cls(sender="s"), cls(sender="s")
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(first, f.name) == f.default_factory()
            assert getattr(first, f.name) is not getattr(second, f.name)
