"""Property and corruption fuzzing of the SNCM and SNNA decoders.

Every input either decodes or raises ``ValueError``: round trips return
what was encoded, no strict prefix or suffixed blob decodes, and a blob
with any one byte replaced raises nothing but ``ValueError``. A message
whose fields the encoder cannot write raises ``ValueError`` when built.
The flat config text round trips every valid configuration exactly.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from sienna.bench import SCENARIOS, ExperimentConfig  # noqa: E402
from sienna.cli import default_config_text, parse_config_text  # noqa: E402
from sienna.commitment import Commitment, deserialize_commitment, serialize_commitment  # noqa: E402
from sienna.gf import FieldSpec  # noqa: E402
from sienna.protocol import (  # noqa: E402
    AckNak,
    CommitMessage,
    InitMessage,
    decode_message,
    encode_message,
)
from sienna.rs import RsCodeSpec  # noqa: E402

SMALL = RsCodeSpec(FieldSpec(3), 7, 3)  # 21-bit masked codewords
FUZZ = settings(max_examples=150, deadline=None, database=None)

u32 = st.integers(0, 2**32 - 1)
commitments = st.builds(
    lambda bits, digest: Commitment(np.array(bits, dtype=np.uint8), digest, SMALL),
    st.lists(st.integers(0, 1), min_size=SMALL.codeword_bits, max_size=SMALL.codeword_bits),
    st.binary(min_size=32, max_size=32),
)
windows = st.tuples(st.integers(0, 2**64 - 2), st.integers(1, 2**64 - 1)).filter(
    lambda w: w[0] < w[1]
)
messages = st.one_of(
    st.builds(lambda h, w: InitMessage(h, *w), st.binary(min_size=32, max_size=32), windows),
    st.builds(CommitMessage, u32, commitments),
    st.builds(AckNak, st.sampled_from(["ACK", "NAK"]), u32),
)


def same_commitment(a: Commitment, b: Commitment) -> bool:
    return np.array_equal(a.masked_codeword, b.masked_codeword) and a.salt_hash == b.salt_hash


def same_message(a, b) -> bool:
    if isinstance(a, CommitMessage):
        return (
            isinstance(b, CommitMessage)
            and a.level_index == b.level_index
            and same_commitment(a.commitment, b.commitment)
        )
    return a == b


def corrupted(blob: bytes, data) -> bytes:
    """``blob`` with one byte replaced by a different value."""
    pos = data.draw(st.integers(0, len(blob) - 1))
    value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[pos]))
    return blob[:pos] + bytes([value]) + blob[pos + 1 :]


def decodes_or_value_error(decode, blob: bytes) -> None:
    try:
        decode(blob)
    except ValueError:
        pass


@FUZZ
@given(commitments)
def test_sncm_round_trip_and_framing(c):
    blob = serialize_commitment(c)
    assert same_commitment(deserialize_commitment(blob, SMALL), c)
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            deserialize_commitment(blob[:cut], SMALL)
    with pytest.raises(ValueError):
        deserialize_commitment(blob + b"\x00", SMALL)


@FUZZ
@given(commitments, st.data())
def test_sncm_single_byte_corruption_raises_only_value_error(c, data):
    blob = corrupted(serialize_commitment(c), data)
    decodes_or_value_error(lambda b: deserialize_commitment(b, SMALL), blob)


@FUZZ
@given(messages)
def test_snna_round_trip_and_framing(msg):
    blob = encode_message(msg)
    assert same_message(decode_message(blob, SMALL), msg)
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            decode_message(blob[:cut], SMALL)
    with pytest.raises(ValueError):
        decode_message(blob + b"\x00", SMALL)


@FUZZ
@given(messages, st.data())
def test_snna_single_byte_corruption_raises_only_value_error(msg, data):
    blob = corrupted(encode_message(msg), data)
    decodes_or_value_error(lambda b: decode_message(b, SMALL), blob)


# Messages whose fields the SNNA encoder cannot write: a window bound
# outside u64 or an empty window, a level outside u32, an unknown verdict.
def outside(bits):
    return st.integers(max_value=-1) | st.integers(min_value=1 << bits)


u64 = st.integers(0, 2**64 - 1)
key_hashes = st.binary(min_size=32, max_size=32)
invalid_messages = st.one_of(
    st.builds(lambda h, t, e: lambda: InitMessage(h, t, e), key_hashes, outside(64), u64),
    st.builds(lambda h, t, e: lambda: InitMessage(h, t, e), key_hashes, u64, outside(64)),
    st.builds(
        lambda h, w: lambda: InitMessage(h, *sorted(w, reverse=True)),
        key_hashes,
        st.tuples(u64, u64),
    ),
    st.builds(lambda lvl, c: lambda: CommitMessage(lvl, c), outside(32), commitments),
    st.builds(lambda v, lvl: lambda: AckNak(v, lvl), st.sampled_from(["ACK", "NAK"]), outside(32)),
    st.builds(
        lambda v, lvl: lambda: AckNak(v, lvl),
        st.text(max_size=4).filter(lambda v: v not in ("ACK", "NAK")),
        u32,
    ),
)


@FUZZ
@given(invalid_messages)
@example(lambda: AckNak("ack", 0))
@example(lambda: AckNak("ACK", -1))
@example(lambda: AckNak("NAK", 2**32))
@example(lambda: InitMessage(bytes(32), -1, 5))
def test_messages_reject_fields_the_wire_cannot_carry(build):
    with pytest.raises(ValueError):
        build()


counts = st.integers(1, 10**6)
configs = st.builds(
    ExperimentConfig,
    scenario=st.sampled_from(SCENARIOS),
    seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3).map(tuple),
    trials=counts,
    samples=counts,
    output_path=st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True),
)


@FUZZ
@given(configs)
def test_config_text_round_trips_exactly(config):
    assert parse_config_text(default_config_text(config)) == config
