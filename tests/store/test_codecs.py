"""Tests for the store codec layer."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import StorageError
from repro.io.bitutil import bits_to_hex, random_bits
from repro.store.codecs import (
    JsonCodec,
    JsonLinesCodec,
    JsonText,
    decode_float64_array,
    encode_float64_array,
    encode_json_array,
    encode_json_object,
    pack_bits_hex,
    restore_rng_state,
    rng_state_doc,
    unpack_bits_hex,
)


class TestJsonCodec:
    def test_compact_bytes_match_json_dumps(self):
        doc = {"b": 1, "a": [1, 2, {"c": None}]}
        assert JsonCodec().encode(doc) == json.dumps(doc).encode()

    def test_indent_and_sort_options_pin_the_bytes(self):
        doc = {"b": 1, "a": 2}
        assert (
            JsonCodec(indent=2, sort_keys=True).encode(doc)
            == json.dumps(doc, indent=2, sort_keys=True).encode()
        )

    def test_roundtrip(self):
        doc = {"months": 24, "refs": {"0": "ab"}}
        codec = JsonCodec()
        assert codec.decode(codec.encode(doc)) == doc

    def test_unserialisable_raises(self):
        with pytest.raises(StorageError, match="serialisable"):
            JsonCodec().encode({"bad": object()})

    def test_invalid_bytes_raise(self):
        with pytest.raises(StorageError, match="invalid JSON"):
            JsonCodec().decode(b"{nope")


class TestJsonLinesCodec:
    def test_encode_line_has_no_newline(self):
        line = JsonLinesCodec().encode_line({"a": 1})
        assert "\n" not in line
        assert json.loads(line) == {"a": 1}

    def test_stream_roundtrip(self):
        codec = JsonLinesCodec(sort_keys=True)
        docs = [{"b": i, "a": -i} for i in range(3)]
        data = codec.encode(docs)
        assert list(codec.decode_lines(data)) == docs

    def test_bad_line_reports_source_and_number(self):
        codec = JsonLinesCodec()
        with pytest.raises(StorageError, match=r"alerts\.jsonl:2"):
            list(codec.decode_lines(b'{"ok": 1}\n{broken\n', source="alerts.jsonl"))

    def test_blank_lines_skipped(self):
        codec = JsonLinesCodec()
        assert list(codec.decode_lines(b'\n{"a": 1}\n\n')) == [{"a": 1}]


class TestBitPacking:
    def test_matches_io_bitutil_hex(self):
        bits = random_bits(256, random_state=3)
        assert pack_bits_hex(bits) == bits_to_hex(bits)

    def test_roundtrip_exact(self):
        bits = random_bits(1024, random_state=9)
        hexed = pack_bits_hex(bits)
        restored = unpack_bits_hex(hexed, bits.size)
        assert restored.dtype == np.uint8
        np.testing.assert_array_equal(restored, bits)

    def test_rejects_non_byte_aligned(self):
        with pytest.raises(StorageError, match="multiple of 8"):
            pack_bits_hex(np.ones(7, dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(StorageError, match="0 and 1"):
            pack_bits_hex(np.full(8, 2, dtype=np.uint8))

    def test_unpack_rejects_overlong_request(self):
        with pytest.raises(StorageError, match="requested"):
            unpack_bits_hex("ff", 16)

    def test_unpack_rejects_bad_hex(self):
        with pytest.raises(StorageError, match="hex"):
            unpack_bits_hex("zz", 8)


class TestFloat64Codec:
    def test_roundtrip_is_exact_bitwise(self):
        values = np.array(
            [0.1, -0.0, np.pi, 1e-308, np.nan, np.inf, -np.inf], dtype=np.float64
        )
        restored = decode_float64_array(encode_float64_array(values))
        assert restored.dtype == np.dtype("<f8")
        # Bitwise equality, which also pins NaN payloads and -0.0.
        np.testing.assert_array_equal(
            values.view(np.uint64), restored.view(np.uint64)
        )

    def test_rejects_2d(self):
        with pytest.raises(StorageError, match="1-D"):
            encode_float64_array(np.zeros((2, 2)))

    def test_rejects_bad_base64(self):
        with pytest.raises(StorageError, match="base64"):
            decode_float64_array("!not base64!")

    def test_rejects_truncated_payload(self):
        import base64

        payload = base64.b64encode(b"1234567").decode()  # 7 bytes, not /8
        with pytest.raises(StorageError, match="multiple of 8"):
            decode_float64_array(payload)


#: Values whose reprs are easy to get wrong: signed zeros, NaNs with
#: different payloads and signs, infinities, subnormals, extremes.
SPECIAL_FLOATS = np.array(
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
     1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e-7, 123456789.0]
    + [np.nan]
    + list(np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64)
           .view(np.float64))
)

#: Arrays with many repeats, as a month's pairwise FHDs (k / read_bits).
repeated_floats = hnp.arrays(
    np.float64,
    st.integers(0, 300),
    elements=st.sampled_from(list(SPECIAL_FLOATS) + [k / 512 for k in range(0, 513, 7)]),
)
any_floats = hnp.arrays(
    np.float64,
    st.integers(0, 100),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
float32s = hnp.arrays(
    np.float32,
    st.integers(0, 100),
    elements=st.floats(width=32, allow_nan=True, allow_infinity=True),
)


def dumps_oracle(values) -> str:
    return json.dumps(np.asarray(values).tolist())


class TestJsonArray:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(repeated_floats, any_floats, float32s))
    def test_equals_json_dumps_of_tolist(self, values):
        assert encode_json_array(values) == dumps_oracle(values)

    @settings(max_examples=50, deadline=None)
    @given(repeated_floats, st.integers(2, 4))
    def test_non_contiguous_views(self, values, step):
        for view in (values[::step], values[::-1], np.stack([values, values], 1)[:, 1]):
            assert not view.flags.c_contiguous or view.size <= 1
            assert encode_json_array(view) == dumps_oracle(view)

    @pytest.mark.parametrize(
        "values",
        [
            np.array([], dtype=float),
            np.array([0.25]),
            np.arange(50) / 7.0,  # all unique
            np.full(40, 0.4921875),  # all equal
            SPECIAL_FLOATS,
            np.array([-0.0, 0.0, -0.0, 0.0]),
            np.array([np.nan, np.inf, -np.inf, np.nan]),
            np.array([1e-310, 4e-320, 1e-310]),  # subnormals
            np.array([0.1, 1 / 3], dtype=np.float32),
            np.array([3, -1, 3, 0], dtype=np.int64),
            np.array([True, False, True]),
        ],
        ids=["empty", "single", "unique", "equal", "special", "zeros", "nonfinite",
             "subnormal", "float32", "int", "bool"],
    )
    def test_edge_cases(self, values):
        assert encode_json_array(values) == dumps_oracle(values)

    def test_signed_zeros_keep_their_sign(self):
        assert encode_json_array(np.array([0.0, -0.0, 0.0])) == "[0.0, -0.0, 0.0]"

    def test_rejects_2d_and_non_numeric(self):
        with pytest.raises(StorageError, match="1-D"):
            encode_json_array(np.zeros((2, 2)))
        with pytest.raises(StorageError, match="cannot encode"):
            encode_json_array(np.array(["a", "b"]))


class TestJsonObject:
    DOC = {"z": 1, "a": np.array([0.5, -0.0, 0.5]), "m": None, "n": {"y": 2, "b": [1.5]}}

    def test_equals_json_dumps(self):
        plain = {key: value.tolist() if isinstance(value, np.ndarray) else value
                 for key, value in self.DOC.items()}
        assert encode_json_object(self.DOC) == json.dumps(plain)

    def test_json_text_is_embedded_verbatim(self):
        inner = JsonText(encode_json_object({"a": 1, "b": 2}))
        outer = encode_json_object({"kind": "x", "doc": inner})
        assert outer == '{"kind": "x", "doc": {"a": 1, "b": 2}}'

    def test_empty_object(self):
        assert encode_json_object({}) == "{}"

    def test_unserialisable_raises_storage_error(self):
        with pytest.raises(StorageError, match="'bad'.*serialisable"):
            encode_json_object({"ok": 1, "bad": object()})


class TestRngStateCodec:
    def test_state_survives_json_roundtrip_exactly(self):
        gen = np.random.default_rng(42)
        gen.random(17)  # advance off the seed position
        doc = json.loads(json.dumps(rng_state_doc(gen)))
        expected = gen.random(8)

        clone = np.random.default_rng(0)
        restore_rng_state(clone, doc)
        np.testing.assert_array_equal(clone.random(8), expected)

    def test_malformed_state_raises(self):
        with pytest.raises(StorageError, match="RNG state"):
            restore_rng_state(np.random.default_rng(0), {"bit_generator": "PCG64"})
