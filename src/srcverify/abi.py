"""Strict ABI decoding of constructor arguments.

The creation-prefix check leaves a remainder (tx input minus compiled code).
Naive verifiers accept any remainder, which lets junk bytes ride along and is
the heart of the R3 bypass.  The hardened path requires the remainder to be a
plausible compiler-produced encoding of the declared constructor parameters:
word-aligned, canonically packed (tails in order, no gaps), exactly consumed,
with value-level checks where the format fixes bytes (address lead padding,
bool range, fixed-bytes tail padding).  Dynamic contents are validated
structurally only; no meaning is assigned to them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    LengthNotWordMultipleError,
    MalformedValueError,
    OffsetOutOfRangeError,
    TrailingBytesError,
    UnsupportedAbiTypeError,
)

WORD = 32


@dataclass(frozen=True)
class AbiParam:
    tag: str  # uint256 | int256 | address | bool | fixed-bytes | bytes | string | static-array | dynamic-array
    width: int = 0  # byte width for fixed-bytes, element count for static-array
    element: "AbiParam | None" = None

    @property
    def is_dynamic(self) -> bool:
        if self.tag in ("bytes", "string", "dynamic-array"):
            return True
        if self.tag == "static-array":
            return self.element.is_dynamic
        return False

    def render(self) -> str:
        if self.tag == "fixed-bytes":
            return f"bytes{self.width}"
        if self.tag == "static-array":
            return f"{self.element.render()}[{self.width}]"
        if self.tag == "dynamic-array":
            return f"{self.element.render()}[]"
        return self.tag


def parse_type(text: str) -> AbiParam:
    """The parameter a type string declares, or UnsupportedAbiTypeError."""
    try:
        return _parse_type(text)
    except (ValueError, RecursionError) as exc:  # int(), rindex(), nesting
        raise UnsupportedAbiTypeError(
            f"unsupported ABI type {text!r}: {exc}") from exc


def _parse_type(text: str) -> AbiParam:
    s = text.strip()
    if s.endswith("]"):
        open_idx = s.rindex("[")
        count = s[open_idx + 1:-1]
        element = _parse_type(s[:open_idx])
        if count == "":
            return AbiParam("dynamic-array", element=element)
        n = int(count)
        if n <= 0:
            raise ValueError("array length must be positive")
        return AbiParam("static-array", width=n, element=element)
    if s in ("uint", "uint256"):
        return AbiParam("uint256")
    if s in ("int", "int256"):
        return AbiParam("int256")
    if s in ("address", "bool", "bytes", "string"):
        return AbiParam(s)
    if s.startswith("bytes"):
        n = int(s[5:])
        if not 1 <= n <= 32:
            raise ValueError(f"fixed bytes width must be 1..32, got {n}")
        return AbiParam("fixed-bytes", width=n)
    raise ValueError("not a supported type")


def parse_params(type_strings: list[str]) -> list[AbiParam]:
    return [parse_type(t) for t in type_strings]


def _head_words(param: AbiParam) -> int:
    if param.is_dynamic:
        return 1
    if param.tag == "static-array":
        return param.width * _head_words(param.element)
    return 1


def _read_word(data: bytes, pos: int, exc: type[Exception], what: str) -> int:
    if pos + WORD > len(data):
        raise exc(f"{what} needs bytes [{pos}, {pos + WORD}), have {len(data)}")
    return int.from_bytes(data[pos:pos + WORD], "big")


def _decode_static(data: bytes, pos: int, param: AbiParam):
    if param.tag == "static-array":
        values = []
        for _ in range(param.width):
            value, pos = _decode_static(data, pos, param.element)
            values.append(value)
        return values, pos
    word_int = _read_word(data, pos, LengthNotWordMultipleError, param.render())
    word = data[pos:pos + WORD]
    end = pos + WORD
    if param.tag == "uint256":
        return word_int, end
    if param.tag == "int256":
        return word_int - (1 << 256) if word_int >> 255 else word_int, end
    if param.tag == "address":
        if any(word[:12]):
            raise MalformedValueError(
                f"address word at {pos} has nonzero lead octets")
        return "0x" + word[12:].hex(), end
    if param.tag == "bool":
        if word_int > 1:
            raise MalformedValueError(f"bool word at {pos} is {word_int}")
        return bool(word_int), end
    if param.tag == "fixed-bytes":
        if any(word[param.width:]):
            raise MalformedValueError(
                f"bytes{param.width} word at {pos} has nonzero tail padding")
        return word[:param.width], end
    raise AssertionError(f"not a static tag: {param.tag}")


def _decode_tail(data: bytes, start: int, param: AbiParam):
    if param.tag in ("bytes", "string"):
        n = _read_word(data, start, OffsetOutOfRangeError, f"{param.tag} length")
        if n > len(data):
            raise OffsetOutOfRangeError(
                f"{param.tag} of {n} bytes cannot fit in {len(data)}")
        padded = (n + WORD - 1) // WORD * WORD
        end = start + WORD + padded
        if end > len(data):
            raise OffsetOutOfRangeError(
                f"{param.tag} content runs past the data end")
        content = data[start + WORD:start + WORD + n]
        if any(data[start + WORD + n:end]):
            raise MalformedValueError(f"{param.tag} padding at {start + WORD + n} is nonzero")
        if param.tag == "string":
            try:
                return content.decode("utf-8"), end
            except UnicodeDecodeError:
                return content, end  # structural validation only
        return content, end
    if param.tag == "dynamic-array":
        n = _read_word(data, start, OffsetOutOfRangeError, "array length")
        if n > max(0, (len(data) - start - WORD)) // WORD:
            raise OffsetOutOfRangeError(
                f"array of {n} elements cannot fit in the remaining data")
        return _decode_sequence(data, start + WORD, [param.element] * n)
    if param.tag == "static-array":  # static shape, dynamic elements
        return _decode_sequence(data, start, [param.element] * param.width)
    raise AssertionError(f"not a dynamic tag: {param.tag}")


def _decode_sequence(data: bytes, scope_start: int, params: list[AbiParam]):
    head_size = sum(WORD * _head_words(p) for p in params)
    if scope_start + head_size > len(data):
        raise LengthNotWordMultipleError(
            f"head needs {scope_start + head_size} bytes, have {len(data)}")
    cursor = scope_start
    tail = scope_start + head_size
    values = []
    for param in params:
        if param.is_dynamic:
            offset = _read_word(data, cursor, LengthNotWordMultipleError, "tail offset")
            cursor += WORD
            if offset % WORD:
                raise OffsetOutOfRangeError(f"tail offset {offset} is not word-aligned")
            if scope_start + offset != tail:
                raise OffsetOutOfRangeError(
                    f"tail offset {offset} does not match the canonical packing "
                    f"position {tail - scope_start}")
            value, tail = _decode_tail(data, tail, param)
        else:
            value, cursor = _decode_static(data, cursor, param)
        values.append(value)
    return values, tail


def abi_validate_arguments(data: bytes, params: list[AbiParam]) -> list:
    """Decode data as the exact canonical encoding of params, or raise."""
    if len(data) % WORD:
        raise LengthNotWordMultipleError(
            f"{len(data)} bytes is not a multiple of {WORD}")
    values, end = _decode_sequence(data, 0, params)
    if end != len(data):
        raise TrailingBytesError(
            f"{len(data) - end} undecoded bytes after the arguments")
    return values
