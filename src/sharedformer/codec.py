"""Little-endian binary codec shared by the feature, label and checkpoint files.

Each file opens with a 4-byte magic and a u32 format version; strings are a
u32 byte length followed by utf-8 bytes. ``Reader`` bounds every read by the
payload, so a short or corrupt file raises ``FormatError`` with the offset
where decoding stopped instead of an unpacking error.
"""

from __future__ import annotations

import struct

from .errors import FormatError

VERSION = 1


def header(magic: bytes) -> bytes:
    return magic + struct.pack("<I", VERSION)


def string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class Reader:
    def __init__(self, path, kind: str):
        with open(path, "rb") as f:
            self.data = f.read()
        self.kind = kind
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.data):
            raise FormatError(f"truncated {self.kind} reading {what}", offset=self.off)
        chunk = self.data[self.off:self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), what))

    def u32(self, what: str) -> int:
        return self.unpack("I", what)[0]

    def string(self, what: str) -> str:
        start = self.off
        raw = self.take(self.u32(f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.kind} {what} is not utf-8", offset=start) from None

    def header(self, magic: bytes) -> None:
        if self.take(4, "magic") != magic:
            raise FormatError(f"bad {self.kind} magic", offset=0)
        version = self.u32("version")
        if version != VERSION:
            raise FormatError(f"unsupported {self.kind} version {version}", offset=4)
