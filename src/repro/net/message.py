"""Message representation for the simulated network.

Messages are small tagged records.  ``mtype`` identifies the protocol
message (e.g. ``"client_request"``, ``"state_update"``, ``"pre_prepare"``)
and ``payload`` carries protocol-specific fields in a plain dict so that
messages stay printable and hashable-by-content for signing.

Messages are the single most-allocated protocol object, so the class is
``__slots__``-based (no per-instance dict, no dataclass machinery) and
:meth:`Message.reply` / :meth:`Message.forwarded` *share* payload
mappings with the original instead of copying them — by protocol
convention payloads are written once at construction and never mutated
in flight.
"""

from __future__ import annotations

from typing import Any, Mapping

#: Shared default payload.  Handlers treat payloads as read-only, so an
#: empty default can safely be one object instead of a dict per message.
_EMPTY_PAYLOAD: Mapping[str, Any] = {}


class Message:
    """A datagram travelling between two named processes.

    Attributes
    ----------
    src, dst:
        Process names (network addresses).
    mtype:
        Protocol message type tag.
    payload:
        Message body; by convention a mapping of plain values, treated
        as immutable once the message is constructed.
    """

    __slots__ = ("src", "dst", "mtype", "payload")

    def __init__(
        self,
        src: str,
        dst: str,
        mtype: str,
        payload: Mapping[str, Any] | None = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.mtype = mtype
        self.payload = _EMPTY_PAYLOAD if payload is None else payload

    def reply(self, mtype: str, payload: Mapping[str, Any] | None = None) -> "Message":
        """Build a response message addressed back to our sender.

        The caller's ``payload`` mapping is adopted as-is (not copied).
        """
        return Message(src=self.dst, dst=self.src, mtype=mtype, payload=payload)

    def forwarded(self, src: str, dst: str) -> "Message":
        """Build a copy of this message re-addressed ``src`` → ``dst``.

        Used by proxies, which relay client requests to servers verbatim;
        the payload mapping is shared with the original, not copied.
        """
        return Message(src=src, dst=dst, mtype=self.mtype, payload=self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, "
            f"mtype={self.mtype!r}, payload={self.payload!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.mtype} {self.src}->{self.dst}]"
