"""Golden parity for the encode-once/write-N upcall fast path.

The fan-out hot path encodes an :class:`UpcallMessage` *once* as a
template and patches only the per-subscriber fields (serial, ruc_id)
into a copy per stream (:func:`repro.wire.patch_upcall_frame`).  The
optimization is only sound if a patched template is **byte-identical**
to encoding the full message per subscriber — these tests pin that,
across the trace-context fields, so
any future field reorder in ``UpcallMessage.bundle`` that silently
moves the patch offsets fails loudly here rather than corrupting
frames on the wire.
"""

import pytest

from repro.wire import (
    UpcallMessage,
    decode_message,
    encode_message,
    encode_upcall_template,
    patch_upcall_frame,
)
from repro.wire.messages import UPCALL_RUC_OFFSET, UPCALL_SERIAL_OFFSET

def test_patched_template_matches_full_encode():
    args = b"\x00\x01\x02payload-bytes\xff" * 3
    template = encode_upcall_template(
        args,
        expects_reply=True,
        trace_id="trace-abc",
        parent_span=0x1122334455,
    )
    for serial, ruc_id in [(1, 1), (7, 42), (0xFFFFFFFF, 2**63 - 1), (0, 0)]:
        patched = bytes(patch_upcall_frame(template, serial, ruc_id))
        golden = encode_message(
            UpcallMessage(
                serial=serial,
                ruc_id=ruc_id,
                args=args,
                expects_reply=True,
                trace_id="trace-abc",
                parent_span=0x1122334455,
            )
        )
        assert patched == golden, (
            f"serial={serial} ruc={ruc_id}: patched frame "
            f"differs from per-subscriber encode"
        )


@pytest.mark.parametrize("expects_reply", [True, False])
def test_patched_template_decodes_correctly(expects_reply):
    args = b"round-trip"
    template = encode_upcall_template(
        args, expects_reply=expects_reply, trace_id="t", parent_span=9
    )
    message = decode_message(bytes(patch_upcall_frame(template, 31337, 0xDEAD)))
    assert isinstance(message, UpcallMessage)
    assert message.serial == 31337
    assert message.ruc_id == 0xDEAD
    assert message.args == args
    assert message.expects_reply is expects_reply
    assert message.trace_id == "t"
    assert message.parent_span == 9


def test_write_n_shares_one_template():
    """The write-N shape: one template, N patched frames, all golden."""
    args = b"fan-out-event"
    template = encode_upcall_template(args, trace_id="tr", parent_span=5)
    subscribers = [(serial, 1000 + serial) for serial in range(1, 6)]
    frames = [
        bytes(patch_upcall_frame(template, serial, ruc_id))
        for serial, ruc_id in subscribers
    ]
    for frame, (serial, ruc_id) in zip(frames, subscribers):
        assert frame == encode_message(
            UpcallMessage(
                serial=serial, ruc_id=ruc_id, args=args,
                trace_id="tr", parent_span=5,
            )
        )
    # Every frame differs from the template only at the patched fields.
    for frame in frames:
        for i, (a, b) in enumerate(zip(frame, template)):
            if a != b:
                assert (
                    UPCALL_SERIAL_OFFSET <= i < UPCALL_SERIAL_OFFSET + 4
                    or UPCALL_RUC_OFFSET <= i < UPCALL_RUC_OFFSET + 8
                ), f"patch touched unexpected byte {i}"


def test_patch_offsets_pin_the_wire_layout():
    """The fixed offsets assume serial/ruc_id lead the body after the
    type code; decoding a frame with distinctive sentinel bytes proves
    the assumption against the real codec."""
    template = encode_upcall_template(b"")
    patched = patch_upcall_frame(template, 0x0A0B0C0D, 0x0102030405060708)
    assert bytes(patched[UPCALL_SERIAL_OFFSET:UPCALL_SERIAL_OFFSET + 4]) == bytes(
        [0x0A, 0x0B, 0x0C, 0x0D]
    )
    assert bytes(patched[UPCALL_RUC_OFFSET:UPCALL_RUC_OFFSET + 8]) == bytes(
        [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08]
    )
    message = decode_message(bytes(patched))
    assert message.serial == 0x0A0B0C0D
    assert message.ruc_id == 0x0102030405060708
