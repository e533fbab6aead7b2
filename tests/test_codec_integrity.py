"""Codec integrity: a damaged payload must fail loudly, never decode wrong.

The compiled-graph payload carries a CRC32 per section plus a trailing
whole-payload CRC32.  The contract under test: *any* content damage raises
:class:`~repro.exceptions.CorruptPayloadError` (framing violations — foreign
magic, old versions, truncation, trailing bytes — keep raising plain
:class:`~repro.exceptions.SerializationError`), and a payload that decodes
at all decodes exactly.  This is what lets the parallel executor treat a
corrupt rehydration payload as a recoverable worker fault rather than a
silent wrong-answer hazard.

A CRC only proves the bytes are unchanged.  A crafted payload with
re-stamped checksums must still fail with a typed
:class:`~repro.exceptions.SerializationError` naming its section — never an
``IndexError`` or a geometry error from deep inside the decoder.
"""

import os
import random
import struct
import subprocess
import sys
import textwrap
from pathlib import Path
from zlib import crc32

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.exceptions import CorruptPayloadError, SerializationError
from repro.io.compiled_codec import (
    SECTION_NAMES,
    compiled_graph_from_bytes,
    compiled_graph_to_bytes,
    payload_section_spans,
    verify_payload,
)
from repro.io.serialize import load_compiled_graph, save_compiled_graph

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<6sH")


@pytest.fixture(scope="module")
def payload(example_itgraph):
    return compiled_graph_to_bytes(example_itgraph.compiled())


def patch_trailing_crc(data: bytes) -> bytes:
    """Recompute the whole-payload CRC so deeper checks get exercised."""
    body = data[: -_U32.size]
    return body + _U32.pack(crc32(body))


def restamped(payload: bytes, section: str, offset: int, replacement: bytes) -> bytes:
    """Overwrite bytes of one section at ``offset`` (relative to its data),
    then re-stamp the section CRC and the whole-payload CRC, so only the
    decoder's structural checks stand between the bytes and a graph."""
    spans = {name: (start, end) for name, start, end in payload_section_spans(payload)}
    start, end = spans[section]
    assert start + offset + len(replacement) <= end
    damaged = bytearray(payload)
    damaged[start + offset : start + offset + len(replacement)] = replacement
    damaged[start - _U32.size : start] = _U32.pack(crc32(bytes(damaged[start:end])))
    return patch_trailing_crc(bytes(damaged))


def with_section(payload: bytes, section: str, data: bytes) -> bytes:
    """``payload`` with one section's data replaced whole (its length may
    change), every length word and CRC re-stamped."""
    spans = payload_section_spans(payload)
    body = _U32.pack(len(spans))
    for name, start, end in spans:
        content = data if name == section else payload[start:end]
        body += _U32.pack(len(content)) + _U32.pack(crc32(content)) + content
    framed = payload[: _HEADER.size] + _U32.pack(len(body)) + body
    return framed + _U32.pack(crc32(framed))


#: Loads a payload from stdin in a child process whose address space is
#: capped, so a decoder that walks a huge floor span fails fast on the cap
#: instead of hanging the suite or exhausting the host's memory.
_CAPPED_LOAD = textwrap.dedent(
    """
    import resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    from repro.exceptions import SerializationError
    from repro.io.compiled_codec import compiled_graph_from_bytes
    try:
        compiled_graph_from_bytes(sys.stdin.buffer.read())
    except SerializationError as exc:
        print(exc)
    else:
        sys.exit("the payload loaded")
    """
)


def with_tenth_section(payload: bytes, version: int) -> bytes:
    """The nine-section ``payload`` re-framed with a tenth section appended
    and the given version word — the shape of the retired ``precompute``
    payloads."""
    prefix = _HEADER.size + _U32.size
    sections = payload[prefix + _U32.size : -_U32.size]
    extra = b"\x00" * 8
    body = (
        _U32.pack(len(SECTION_NAMES) + 1)
        + sections
        + _U32.pack(len(extra))
        + _U32.pack(crc32(extra))
        + extra
    )
    framed = _HEADER.pack(b"RPROCG", version) + _U32.pack(len(body)) + body
    return framed + _U32.pack(crc32(framed))


class TestIntactPayload:
    def test_verify_payload_accepts_a_good_payload(self, payload):
        verify_payload(payload)  # must not raise

    def test_section_spans_cover_disjoint_content(self, payload):
        spans = payload_section_spans(payload)
        assert [name for name, _, _ in spans] == list(SECTION_NAMES)
        previous_end = 0
        for _name, start, end in spans:
            assert previous_end <= start <= end <= len(payload)
            previous_end = end


class TestContentDamage:
    @pytest.mark.parametrize("section_name", SECTION_NAMES)
    def test_single_byte_flip_in_each_section_is_detected(self, payload, section_name):
        spans = {name: (start, end) for name, start, end in payload_section_spans(payload)}
        start, end = spans[section_name]
        if start == end:
            pytest.skip(f"section {section_name!r} is empty for this venue")
        rng = random.Random(hash(section_name) & 0xFFFF)
        damaged = bytearray(payload)
        damaged[rng.randrange(start, end)] ^= 1 << rng.randrange(8)
        # Patch the trailing CRC so the *section* checksum is what trips,
        # proving the error names the damaged section.
        blob = patch_trailing_crc(bytes(damaged))
        with pytest.raises(CorruptPayloadError, match=section_name):
            compiled_graph_from_bytes(blob)
        with pytest.raises(CorruptPayloadError):
            verify_payload(blob)

    def test_unpatched_flip_fails_the_whole_payload_crc(self, payload):
        rng = random.Random(2024)
        body_start = _HEADER.size + _U32.size
        for _ in range(16):
            damaged = bytearray(payload)
            offset = rng.randrange(body_start, len(payload) - _U32.size)
            damaged[offset] ^= 1 << rng.randrange(8)
            with pytest.raises(CorruptPayloadError):
                compiled_graph_from_bytes(bytes(damaged))

    def test_corrupt_payload_error_is_a_serialization_error(self):
        assert issubclass(CorruptPayloadError, SerializationError)
        damaged = patch_trailing_crc(b"\x00" * 64)
        with pytest.raises(SerializationError):
            compiled_graph_from_bytes(damaged)


class TestFramingViolations:
    def test_foreign_magic_is_a_framing_error(self, payload):
        blob = b"NOTRPG" + payload[6:]
        with pytest.raises(SerializationError, match="magic"):
            compiled_graph_from_bytes(blob)

    def test_old_format_version_is_rejected_cleanly(self, payload):
        # A v1 payload (same magic, version word 1) must be refused by
        # version, not misparsed into CRC noise.
        blob = _HEADER.pack(b"RPROCG", 1) + payload[_HEADER.size :]
        with pytest.raises(SerializationError, match="version"):
            compiled_graph_from_bytes(blob)
        with pytest.raises(SerializationError, match="version"):
            verify_payload(blob)

    def test_truncation_is_a_framing_error(self, payload):
        for keep in (4, len(payload) // 2, len(payload) - 1):
            with pytest.raises(SerializationError):
                compiled_graph_from_bytes(payload[:keep])

    def test_trailing_garbage_is_a_framing_error(self, payload):
        with pytest.raises(SerializationError, match="trailing"):
            compiled_graph_from_bytes(payload + b"\x00\x01")

    def test_tampered_section_count_is_a_framing_error(self, payload):
        offset = _HEADER.size + _U32.size
        damaged = bytearray(payload)
        damaged[offset : offset + _U32.size] = _U32.pack(len(SECTION_NAMES) + 1)
        with pytest.raises(SerializationError, match="sections"):
            compiled_graph_from_bytes(patch_trailing_crc(bytes(damaged)))


class TestFileLevel:
    def test_roundtrip_through_file(self, example_itgraph, tmp_path):
        target = tmp_path / "index.bin"
        save_compiled_graph(example_itgraph.compiled(), target)
        graph = load_compiled_graph(target)
        assert graph.door_count == example_itgraph.compiled().door_count

    def test_corrupted_file_raises_corrupt_payload_error(self, payload, tmp_path):
        target = tmp_path / "damaged.bin"
        damaged = bytearray(payload)
        damaged[len(damaged) // 2] ^= 0x10
        target.write_bytes(bytes(damaged))
        with pytest.raises(CorruptPayloadError):
            load_compiled_graph(target)

    def test_unreadable_file_raises_serialization_error(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot read"):
            load_compiled_graph(tmp_path / "does-not-exist.bin")


class TestOptionalPrecomputeSection:
    """Version 3's optional tenth ``precompute`` section is retired: nine
    sections load under both versions, ten are a framing error."""

    def test_version_2_payloads_still_load(self, payload, example_itgraph):
        # A v2 payload is a v3 payload with the version word set to 2 — the
        # exact bytes old checkouts wrote.
        downgraded = bytearray(payload)
        downgraded[:_HEADER.size] = _HEADER.pack(b"RPROCG", 2)
        blob = patch_trailing_crc(bytes(downgraded))
        graph = compiled_graph_from_bytes(blob)
        assert graph.door_count == example_itgraph.compiled().door_count

    def test_version_2_rejects_ten_sections(self, payload):
        # Any version: a tenth section is framing-invalid, not quietly
        # accepted or skipped, and the error names the retired section.
        for version in (2, 3):
            blob = with_tenth_section(payload, version)
            with pytest.raises(SerializationError, match="sections") as excinfo:
                compiled_graph_from_bytes(blob)
            assert "precompute" in str(excinfo.value)
            with pytest.raises(SerializationError, match="precompute"):
                verify_payload(blob)

    def test_declared_but_missing_precompute_is_a_framing_error(self, payload):
        # Section count says ten, body carries nine: truncation, by name.
        offset = _HEADER.size + _U32.size
        damaged = bytearray(payload)
        damaged[offset : offset + _U32.size] = _U32.pack(len(SECTION_NAMES) + 1)
        with pytest.raises(SerializationError, match="sections"):
            compiled_graph_from_bytes(patch_trailing_crc(bytes(damaged)))


class TestStructuralValidation:
    """CRC-valid but crafted sections fail with a typed, named error."""

    @pytest.mark.parametrize(
        "section, offset, replacement, problem",
        [
            # Door 0's first group: [group count][partition index]...
            ("adjacency", 4, _U32.pack(9999), "partition index 9999"),
            # [door count][first id length][first id bytes]
            ("id-tables", 8, b"\xff", "UTF-8"),
            # Door 0's bounds: [count][first boundary]
            ("ati-bounds", 4, struct.pack("<d", float("nan")), "ATI bounds"),
            ("ati-bounds", 4, struct.pack("<d", 1e9), "ATI bounds"),
            # Partition 0's leaveable doors: [count][first door]
            ("leaveable-doors", 4, _U32.pack(9999), "door index 9999"),
            # [spec count][first spec's partition index]
            ("point-location", 4, _U32.pack(9999), "partition index 9999"),
            # [start count][first start][second start]...
            ("interval-bitsets", 4, struct.pack("<d", float("nan")), "interval starts"),
            ("interval-bitsets", 12, struct.pack("<d", 0.0), "interval starts"),
        ],
        ids=[
            "adjacency-partition",
            "id-not-utf8",
            "ati-nan",
            "ati-decreasing",
            "leaveable-door",
            "locate-partition",
            "bitsets-nan",
            "bitsets-repeated",
        ],
    )
    def test_crafted_section_is_named(self, payload, section, offset, replacement, problem):
        blob = restamped(payload, section, offset, replacement)
        with pytest.raises(SerializationError, match=problem) as excinfo:
            compiled_graph_from_bytes(blob)
        assert section in str(excinfo.value)
        assert not isinstance(excinfo.value, CorruptPayloadError)

    def test_empty_interval_bitsets_are_named(self, payload):
        # No interval at all: every ITG/A lookup would index past the end.
        blob = with_section(payload, "interval-bitsets", _U32.pack(0) + _U32.pack(0))
        with pytest.raises(SerializationError, match="interval-bitsets.*interval starts"):
            compiled_graph_from_bytes(blob)

    def test_floor_span_past_the_venue_is_named_without_a_hang(self, payload):
        # The example venue is one floor; give its first point-location row a
        # span of 2**31 floors.  [count][pidx][floor][spans flag][...]
        spans = {name: (start, end) for name, start, end in payload_section_spans(payload)}
        start, end = spans["point-location"]
        section = payload[start:end]
        assert section[12] == 0, "the first row already carries a span"
        spanned = section[:12] + b"\x01" + struct.pack("<ii", 0, 2**31 - 1) + section[13:]
        blob = with_section(payload, "point-location", spanned)
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", _CAPPED_LOAD],
            input=blob,
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr.decode()[-500:]
        message = child.stdout.decode()
        assert "point-location" in message and "floor span (0, 2147483647)" in message

    @staticmethod
    def first_edge_group(payload):
        """Offset of the first adjacency group with edges, and its edge count.

        Per door: ``[group count]``; per group: ``[partition][door count]
        [doors...][leg count][legs...]``.
        """
        offset = 0
        for groups in compiled_graph_from_bytes(payload).adjacency:
            offset += 4
            for _pidx, _private, edges in groups:
                if edges:
                    return offset, len(edges)
                offset += 4 + 4 + 4
        raise AssertionError("the venue has no adjacency edges")

    def test_out_of_range_edge_door_is_named(self, payload):
        group_at, _count = self.first_edge_group(payload)
        blob = restamped(payload, "adjacency", group_at + 8, _U32.pack(9999))
        with pytest.raises(SerializationError, match="adjacency.*door index 9999"):
            compiled_graph_from_bytes(blob)

    def test_non_finite_or_negative_leg_is_named(self, payload):
        group_at, count = self.first_edge_group(payload)
        legs_at = group_at + 8 + 4 * count + 4
        for leg in (float("nan"), float("inf"), -1.0):
            blob = restamped(payload, "adjacency", legs_at, struct.pack("<d", leg))
            with pytest.raises(SerializationError, match="adjacency.*legs"):
                compiled_graph_from_bytes(blob)

    def test_polygon_that_does_not_rebuild_is_named(self, payload):
        graph = compiled_graph_from_bytes(payload)
        _pidx, _floor, spans, polygon = graph.locate_specs[0]
        assert spans is None and polygon.__class__.__name__ == "Rectangle"
        # [count][pidx][floor][spans flag][kind][min_x][min_y][max_x][max_y]
        max_x_at = 4 + 4 + 4 + 1 + 1 + 16
        blob = restamped(payload, "point-location", max_x_at, struct.pack("<d", -1e9))
        with pytest.raises(SerializationError, match="point-location.*polygon"):
            compiled_graph_from_bytes(blob)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(section=st.sampled_from(SECTION_NAMES), data=st.data())
    def test_mutated_section_loads_or_raises_serialization_error(self, payload, section, data):
        start, end = {name: (s, e) for name, s, e in payload_section_spans(payload)}[section]
        if start == end:
            return
        offset = data.draw(st.integers(0, end - start - 1), label="offset")
        width = min(end - start - offset, data.draw(st.sampled_from([1, 4, 8]), label="width"))
        replacement = data.draw(st.binary(min_size=width, max_size=width), label="bytes")
        blob = restamped(payload, section, offset, replacement)
        try:
            compiled_graph_from_bytes(blob)
        except SerializationError as exc:
            assert not isinstance(exc, CorruptPayloadError), "both CRCs were re-stamped"
