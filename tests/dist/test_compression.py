"""Compressed-frame protocol tests: the zlib flag bit, the size-only
compression rule, and the receiver's acceptance of both encodings.

The load-bearing invariant is that *receivers always accept both
forms*: the compression flag is carried per-frame in the length
prefix, so any mix of compressed and raw frames on one connection
round-trips -- hypothesis drives random headers/payloads through every
encoding mix, built with test-side frame helpers so the raw and the
deflated form of the same frame are both exercised whatever
:func:`pack_message` would choose.  The guard tests pin the failure
taxonomy: truncated zlib streams, zlib bombs and oversized frames are
:class:`ProtocolError` (a broken peer), never a hang or an allocation.
"""

import json
import socket
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dist.protocol import (
    COMPRESS_FLAG,
    COMPRESS_MIN_BYTES,
    MAX_FRAME_BYTES,
    ProtocolError,
    pack_message,
    recv_message,
)

_LEN = struct.Struct(">I")


def _pipe() -> tuple[socket.socket, socket.socket]:
    return socket.socketpair()


def _body(header: dict, payload: bytes | None) -> bytes:
    head = json.dumps(header, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    return _LEN.pack(len(head)) + head + (payload or b"")


def _raw_frame(header: dict, payload: bytes | None = None) -> bytes:
    """The uncompressed encoding of one frame, whatever its size."""
    body = _body(header, payload)
    return _LEN.pack(len(body)) + body


def _deflated_frame(header: dict, payload: bytes | None = None) -> bytes:
    """The compressed encoding of one frame, whatever its size."""
    body = zlib.compress(_body(header, payload))
    return _LEN.pack(len(body) | COMPRESS_FLAG) + body


def _flagged(frame: bytes) -> bool:
    return bool(_LEN.unpack(frame[:4])[0] & COMPRESS_FLAG)


# ----------------------------------------------------------------------
# The frame itself: compression is decided by size alone
# ----------------------------------------------------------------------
def test_large_frame_actually_compresses_on_the_wire():
    payload = b"A" * 100_000  # maximally compressible
    packed = pack_message({"type": "result"}, payload)
    assert len(packed) < len(_raw_frame({"type": "result"}, payload)) // 10
    assert _flagged(packed)


def test_small_frame_ships_raw():
    packed = pack_message({"type": "heartbeat"})
    assert not _flagged(packed)
    # Compressible, but one byte under the floor: still raw.
    header = {"type": "result"}
    floor_payload = b"A" * (COMPRESS_MIN_BYTES
                            - len(_body(header, None)) - 1)
    packed = pack_message(header, floor_payload)
    assert not _flagged(packed)
    assert len(packed) == len(_raw_frame(header, floor_payload))
    assert _flagged(pack_message(header, floor_payload + b"A"))


def test_incompressible_frame_ships_raw():
    import random

    payload = random.Random(7).randbytes(8 * COMPRESS_MIN_BYTES)
    packed = pack_message({"type": "result"}, payload)
    assert not _flagged(packed)
    assert len(packed) == len(_raw_frame({"type": "result"}, payload))


# ----------------------------------------------------------------------
# Receiver acceptance (hypothesis): any encoding mix round-trips
# ----------------------------------------------------------------------
_headers = st.fixed_dictionaries(
    {"type": st.sampled_from(["result", "job", "status_update"])},
    optional={
        "job_id": st.text(max_size=20),
        "ok": st.booleans(),
        "attempt": st.integers(min_value=0, max_value=10),
        "error": st.text(max_size=200),
        "nested": st.dictionaries(st.text(max_size=8),
                                  st.integers(), max_size=4),
    })

_payloads = st.one_of(
    st.none(),
    st.binary(max_size=64),
    # Compressible bodies (repeated structure) past the threshold.
    st.binary(min_size=1, max_size=64).map(lambda b: b * 200),
)

_encoders = st.sampled_from([_raw_frame, _deflated_frame, pack_message])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(header=_headers, payload=_payloads,
       encoders=st.lists(_encoders, min_size=1, max_size=4))
def test_any_flag_mix_roundtrips_on_one_connection(header, payload,
                                                   encoders):
    """One connection, several frames, each independently compressed or
    not: the receiver reassembles every frame identically."""
    a, b = _pipe()
    try:
        for encode in encoders:
            a.sendall(encode(header, payload))
        for _ in encoders:
            got_header, got_payload = recv_message(b)
            assert got_header == header
            assert got_payload == (payload or b"")
    finally:
        a.close(), b.close()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payload=st.binary(min_size=1, max_size=32).map(lambda b: b * 300))
def test_compressed_and_raw_encodings_parse_identically(payload):
    """The raw encoding, the deflated encoding and whatever
    pack_message chose all decode to the same frame."""
    header = {"type": "result", "ok": True}
    for packed in (_raw_frame(header, payload),
                   _deflated_frame(header, payload),
                   pack_message(header, payload)):
        a, b = _pipe()
        try:
            a.sendall(packed)
            got_header, got_payload = recv_message(b)
            assert got_header == header
            assert got_payload == payload
        finally:
            a.close(), b.close()


# ----------------------------------------------------------------------
# Rejection guards
# ----------------------------------------------------------------------
def _send_compressed_body(sock: socket.socket, body: bytes) -> None:
    sock.sendall(_LEN.pack(len(body) | COMPRESS_FLAG) + body)


def test_truncated_zlib_stream_rejected():
    frame = pack_message({"type": "result"}, b"x" * 4096)
    assert _flagged(frame), "test needs a compressed frame"
    body = frame[4:-10]  # drop the stream's tail
    a, b = _pipe()
    try:
        _send_compressed_body(a, body)
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close(), b.close()


def test_garbage_zlib_stream_rejected():
    a, b = _pipe()
    try:
        _send_compressed_body(a, b"\xff\xfenot zlib at all")
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close(), b.close()


def test_zlib_bomb_rejected_without_allocating(monkeypatch):
    """A tiny zlib stream inflating past the cap dies mid-stream.
    The cap is monkeypatched down so the test's own allocations stay
    small; the guard logic is identical at the real 256 MB."""
    import repro.dist.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1 << 16)
    bomb = zlib.compress(b"\x00" * (1 << 20), 9)  # 1 MiB -> ~1 KiB
    assert len(bomb) <= protocol.MAX_FRAME_BYTES
    a, b = _pipe()
    try:
        _send_compressed_body(a, bomb)
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close(), b.close()


def test_oversized_compressed_prefix_rejected(monkeypatch):
    import repro.dist.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1 << 16)
    a, b = _pipe()
    try:
        a.sendall(struct.pack(">I", ((1 << 16) + 1) | COMPRESS_FLAG))
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close(), b.close()


def test_zero_length_compressed_frame_rejected():
    a, b = _pipe()
    try:
        a.sendall(struct.pack(">I", COMPRESS_FLAG))
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close(), b.close()


def test_pack_rejects_bodies_over_the_cap(monkeypatch):
    import repro.dist.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1 << 12)
    # Compression cannot rescue an oversized body (this one deflates to
    # a few dozen bytes): the cap applies to the decompressed size,
    # which is what the receiver would check.
    with pytest.raises(ProtocolError):
        pack_message({"type": "result"}, b"x" * (1 << 13))


def test_max_frame_is_far_below_the_flag_bit():
    """The flag bit must never collide with a legal length."""
    assert MAX_FRAME_BYTES < COMPRESS_FLAG
