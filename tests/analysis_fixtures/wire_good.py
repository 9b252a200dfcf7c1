# module: repro.transport.messages
# Known-good corpus for the wire-compat check: serializer-safe types,
# defaults on post-seed fields, the seed exemption (Message.sender), a
# quoted forward reference, and ClassVar pass-through.
from dataclasses import dataclass, field
from typing import Any, ClassVar


@dataclass(frozen=True)
class Message:
    sender: str  # seed field: exempt from the default requirement
    kind: ClassVar[str] = "message"


@dataclass(frozen=True)
class GoodTask(Message):
    task_id: str = ""
    payload: bytes = b""
    retries: int | None = None
    labels: dict[str, str] = field(default_factory=dict)
    shape: tuple[int, ...] = ()
    extra: Any = None
    result: "ResultMessage | None" = field(default=None, compare=False)
