"""Dynamic codec registry: registration, lookup, and integration.

The registry is the single resolution point for every codec id the
archive, the store, and the CLI accept, so these tests pin both the
registry's own contract (duplicate / unknown ids raise ConfigError
naming the known ids) and the end-to-end promise: a codec registered
at runtime is immediately usable as a per-chunk store codec and as an
archive codec with zero changes elsewhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.archive import FieldArchive
from repro.codecs.registry import (
    CodecSpec,
    codec_functions,
    codec_ids,
    get_codec,
    have_codec,
    register_codec,
    unregister_codec,
)
from repro.errors import ConfigError
from repro.store import MemoryStore, Store


def _xor_compress(data, **_kw):
    arr = np.ascontiguousarray(np.asarray(data), dtype="<f4")
    head = np.array([arr.ndim, *arr.shape], dtype="<u4").tobytes()
    body = bytes(b ^ 0x5A for b in arr.tobytes())
    return head + body


def _xor_decompress(blob):
    ndim = int(np.frombuffer(blob[:4], dtype="<u4")[0])
    shape = tuple(np.frombuffer(blob[4:4 + 4 * ndim], dtype="<u4"))
    body = bytes(b ^ 0x5A for b in blob[4 + 4 * ndim:])
    return np.frombuffer(body, dtype="<f4").reshape(shape).copy()


@pytest.fixture
def xor_codec():
    """Register a throwaway lossless codec, unregister on teardown."""
    register_codec("xor-test", _xor_compress, _xor_decompress,
                   kind="lossless")
    try:
        yield "xor-test"
    finally:
        unregister_codec("xor-test")


class TestRegistration:
    def test_duplicate_id_raises_with_known_ids(self, xor_codec):
        with pytest.raises(ConfigError) as exc_info:
            register_codec(xor_codec, _xor_compress, _xor_decompress)
        message = str(exc_info.value)
        assert "already registered" in message
        assert "known ids" in message
        assert "'sz'" in message and "'xor-test'" in message

    def test_overwrite_replaces(self, xor_codec):
        spec = register_codec(xor_codec, _xor_compress,
                              _xor_decompress, kind="lossless",
                              source="elsewhere", overwrite=True)
        assert get_codec(xor_codec) is spec
        assert spec.source == "elsewhere"

    @pytest.mark.parametrize("bad_id", ["", "a:b", "a/b", "a\x00b"])
    def test_invalid_ids_rejected(self, bad_id):
        with pytest.raises(ConfigError, match="invalid codec id"):
            register_codec(bad_id, _xor_compress, _xor_decompress)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigError, match="invalid codec kind"):
            register_codec("k-test", _xor_compress, _xor_decompress,
                           kind="quantum")

    def test_unregister_unknown_raises_with_known_ids(self):
        with pytest.raises(ConfigError, match="known ids"):
            unregister_codec("never-registered")

    def test_spec_shape(self, xor_codec):
        spec = get_codec(xor_codec)
        assert isinstance(spec, CodecSpec)
        assert spec.pair == (spec.compress, spec.decompress)
        assert spec.kind == "lossless"

    def test_compress_recon_without_member_decodes(self, xor_codec, rng):
        """A codec registered without ``compress_recon=`` compresses and
        then decompresses, so user codecs need nothing new."""
        spec = get_codec(xor_codec)
        assert spec.recon is None
        data = rng.normal(size=(5, 3)).astype("<f4")
        payload, recon = spec.compress_recon(data)
        assert payload == _xor_compress(data)
        np.testing.assert_array_equal(recon, _xor_decompress(payload))

    def test_compress_recon_member_is_called(self, rng):
        calls = []

        def recon_fn(data, **kw):
            calls.append(kw)
            payload = _xor_compress(data)
            return payload, _xor_decompress(payload)

        register_codec("recon-test", _xor_compress, _xor_decompress,
                       compress_recon=recon_fn)
        try:
            data = rng.normal(size=(4,)).astype("<f4")
            payload, recon = get_codec("recon-test").compress_recon(
                data, eps=1.0)
        finally:
            unregister_codec("recon-test")
        assert calls == [{"eps": 1.0}]
        np.testing.assert_array_equal(recon, data)


class TestLookup:
    def test_unknown_id_raises_with_known_ids(self):
        with pytest.raises(ConfigError) as exc_info:
            get_codec("no-such-codec")
        message = str(exc_info.value)
        assert "unknown codec 'no-such-codec'" in message
        assert "'dpz'" in message and "'raw'" in message

    def test_builtins_present(self):
        for name in ("dpz", "sz", "zfp", "mgard", "dctz", "tucker",
                     "raw", "delta", "scale-offset"):
            assert have_codec(name)

    def test_kind_filter(self):
        lossless = codec_ids(kind="lossless")
        assert "raw" in lossless and "delta" in lossless
        assert "sz" not in lossless
        assert "scale-offset" in codec_ids(kind="filter")

    def test_module_qualified_lookup(self):
        spec = get_codec("repro.codecs.filters:delta")
        assert spec.name == "delta"
        assert spec is get_codec("delta")

    def test_module_qualified_bad_module(self):
        with pytest.raises(ConfigError, match="cannot import"):
            get_codec("repro.codecs.does_not_exist:delta")

    def test_codec_functions_shorthand(self):
        compress, decompress = codec_functions("raw")
        data = np.arange(6, dtype="<f4")
        np.testing.assert_array_equal(decompress(compress(data)), data)


class TestEndToEnd:
    def test_runtime_codec_in_store(self, xor_codec, rng):
        data = rng.normal(size=(10, 8)).astype("<f4")
        with Store.create(MemoryStore()) as st:
            st.add("f", data, codec=xor_codec, chunk_shape=(4, 4))
            np.testing.assert_array_equal(st.get("f"), data)
            region = (slice(1, 7), slice(2, 8))
            np.testing.assert_array_equal(st.get_region("f", region),
                                          data[region])
        assert st.info("f")["codec"] == xor_codec

    def test_runtime_codec_in_archive(self, xor_codec, rng):
        data = rng.normal(size=(16,)).astype("<f4")
        ar = FieldArchive()
        ar.add("f", data, codec=xor_codec)
        restored = FieldArchive.from_bytes(ar.to_bytes())
        np.testing.assert_array_equal(restored.get("f"), data)

    def test_store_rejects_unknown_codec_listing_ids(self, rng):
        st = Store.create(MemoryStore())
        with pytest.raises(ConfigError, match="unknown codec"):
            st.add("f", rng.normal(size=(4,)), codec="no-such")

    def test_reading_store_with_unregistered_codec_fails_cleanly(
            self, rng):
        # A store written with a runtime codec, read in a process
        # where it is absent: clean FormatError naming the codec.
        from repro.errors import FormatError

        register_codec("ephemeral-test", _xor_compress,
                       _xor_decompress, kind="lossless")
        bk = MemoryStore()
        try:
            with Store.create(bk) as st:
                st.add("f", rng.normal(size=(4,)).astype("<f4"),
                       codec="ephemeral-test", chunk_shape=(4,))
        finally:
            unregister_codec("ephemeral-test")
        st = Store.open(bk)
        with pytest.raises(FormatError, match="ephemeral-test"):
            st.get("f")
