"""Fault-injection matrix for the byte-store backends.

The acceptance matrix: every backend (memory, directory, single-file)
crossed with every fault kind (io-error, torn-write, bit-flip,
stale-read) crossed with the store operations (pack, region read,
append).  The invariants asserted in every cell:

* a faulted operation either raises a :class:`~repro.errors.ReproError`
  subclass or returns verified-correct data -- never a bare OSError /
  KeyError / garbage array;
* after any failed or corrupted *write*, reopening the underlying
  backend yields either the previous consistent state (the last durable
  manifest, fields bit-identical) or a clean FormatError -- readers
  never observe a half-written manifest or a silently truncated field;
* framed (key/value) backends *detect* value corruption via the CRC32
  integrity frame; the v1 single-file backend is only promised the
  manifest-last durability protocol (its layout predates the frame).

Seeds are fixed but overridable: ``DPZ_FAULT_SEED`` (comma-separated
ints) selects the seeds, and when ``DPZ_FAULT_LOG`` names a file every
injected fault is appended there as NDJSON -- the CI fault-injection
job runs three seeds and uploads that log as an artifact, so a failure
is replayable from the exact fault sequence.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    FormatError,
    ReproError,
    StoreError,
)
from repro.store import (
    DirectoryStore,
    DpzsFileBackend,
    FaultInjectingStore,
    FaultRule,
    MemoryStore,
    Store,
)
from repro.store.backends import FAULT_KINDS

#: Seeds for the matrix; CI overrides via DPZ_FAULT_SEED.
FAULT_SEEDS = tuple(
    int(s) for s in os.environ.get("DPZ_FAULT_SEED",
                                   "20260808").split(","))

BACKENDS = ("memory", "dir", "file")
OPS = ("pack", "region", "append")


def make_inner(kind, tmp_path):
    if kind == "memory":
        return MemoryStore()
    if kind == "dir":
        return DirectoryStore(tmp_path / "s.d", create=True)
    return DpzsFileBackend(tmp_path / "s.dpzs", create=True)


def baseline(rng):
    return rng.normal(size=(8, 8)).astype("<f4")


def pack_base(inner, data):
    with Store.create(inner) as st:
        st.add("base", data, codec="raw", chunk_shape=(4, 4))


def dump_log(wrapper):
    """Append this wrapper's fault records to the CI NDJSON log."""
    path = os.environ.get("DPZ_FAULT_LOG")
    if path:
        wrapper.write_log(path)


@pytest.mark.parametrize("seed", FAULT_SEEDS)
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("fault", FAULT_KINDS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestFaultMatrix:
    """One test per (backend x fault kind x store operation) cell.

    ``pack`` runs the faulted op against a fresh store, ``append``
    against a store already holding a committed ``base`` field, and
    ``region`` reads an intact ``base`` field under the fault.  Each
    scenario returns the wrapper plus the set of consistent field
    listings a post-crash reopen may legitimately observe; the cell
    then asserts the reopen lands on one of them (or raises a clean
    FormatError) with committed data bit-identical.
    """

    def test_cell(self, backend, fault, op, seed, tmp_path, rng):
        inner = make_inner(backend, tmp_path)
        base = None
        if op != "pack":
            base = baseline(rng)
            pack_base(inner, base)
        new = (baseline(rng) * 2.0 + 1.0).astype("<f4")
        run = getattr(self, f"_run_{fault.replace('-', '_')}")
        wrapper, allowed = run(inner, base, new, op, seed)
        assert wrapper.records, (
            f"cell ({backend}, {fault}, {op}) injected no fault -- "
            f"the matrix entry is vacuous")
        dump_log(wrapper)
        # Crash-then-reopen on the raw backend: either the corruption
        # is *detected* (clean FormatError) or the manifest resolves
        # to one of the consistent states, data bit-identical.
        try:
            reopened = Store.open(inner)
        except FormatError:
            return
        assert reopened.names() in allowed
        if base is not None and "base" in reopened.names():
            np.testing.assert_array_equal(reopened.get("base"), base)

    # -- per-kind scenarios: (wrapper, allowed reopen states) -----------

    def _run_io_error(self, inner, base, new, op, seed):
        if op == "region":
            wrapper = FaultInjectingStore(
                inner, FaultRule("io-error", op="get",
                                 key_glob="chunks/*"), seed=seed)
            st = Store.open(wrapper)
            with pytest.raises(ReproError):
                st.get_region("base", (slice(0, 4), slice(0, 4)))
            return wrapper, [["base"]]
        # pack (first field) / append (second field): the write path
        # raises, the field must not be committed.
        wrapper = FaultInjectingStore(
            inner, FaultRule("io-error", op="set",
                             key_glob="chunks/extra/*"), seed=seed)
        st = (Store.open(wrapper) if op == "append"
              else Store.create(wrapper))
        with pytest.raises(StoreError):
            st.add("extra", new, codec="raw", chunk_shape=(4, 4))
        assert "extra" not in st.names()
        return wrapper, [[], ["base"]]

    def _run_torn_write(self, inner, base, new, op, seed):
        if op == "region":
            # Region reads must be unaffected by a torn write landing
            # elsewhere in the keyspace.
            wrapper = FaultInjectingStore(
                inner, FaultRule("torn-write", op="set",
                                 key_glob="chunks/extra/*",
                                 max_faults=1), seed=seed)
            st = Store.open(wrapper)
            with pytest.raises(StoreError):
                st.add("extra", new, codec="raw", chunk_shape=(4, 4))
            region = (slice(1, 7), slice(2, 8))
            np.testing.assert_array_equal(
                st.get_region("base", region), base[region])
            return wrapper, [["base"]]
        # pack/append: tear the manifest write itself -- the commit
        # point.  The operation must raise, and the torn manifest must
        # never be served as data (FormatError or the previous state).
        wrapper = FaultInjectingStore(
            inner, FaultRule("torn-write", op="set",
                             key_glob="manifest", max_faults=1),
            seed=seed)
        with pytest.raises(StoreError):
            if op == "pack":
                st = Store.create(wrapper)  # create IS a manifest write
                st.add("extra", new, codec="raw", chunk_shape=(4, 4))
            else:
                Store.open(wrapper).add("extra", new, codec="raw",
                                        chunk_shape=(4, 4))
        return wrapper, [[], ["base"], ["extra"]]

    def _run_bit_flip(self, inner, base, new, op, seed):
        if op == "region":
            wrapper = FaultInjectingStore(
                inner, FaultRule("bit-flip", op="get",
                                 key_glob="chunks/*"), seed=seed)
            st = Store.open(wrapper)
            try:
                out = st.get_region("base", (slice(0, 8), slice(0, 8)))
            except ReproError:
                return wrapper, [["base"]]
            if wrapper.framed:
                pytest.fail(
                    "framed backend served a bit-flipped chunk without "
                    "tripping the CRC32 integrity frame")
            # v1 file layout has no per-chunk checksum: a flip may
            # decode; geometry must still hold.
            assert out.shape == base.shape
            return wrapper, [["base"]]
        # pack/append: corruption at rest.  The write itself succeeds
        # silently; the *read back* must detect it on framed backends.
        wrapper = FaultInjectingStore(
            inner, FaultRule("bit-flip", op="set",
                             key_glob="chunks/extra/*", max_faults=1),
            seed=seed)
        st = (Store.open(wrapper) if op == "append"
              else Store.create(wrapper))
        st.add("extra", new, codec="raw", chunk_shape=(4, 4))
        reader = Store.open(inner)
        if wrapper.framed:
            with pytest.raises(FormatError):
                reader.get("extra")
        else:
            try:
                out = reader.get("extra")
                assert out.shape == new.shape
            except ReproError:
                pass
        return wrapper, [["extra"], ["base", "extra"]]

    def _run_stale_read(self, inner, base, new, op, seed):
        # Stale reads model an eventually-consistent keyspace: the
        # manifest read returns its previous value.  A stale reader
        # lands on the *previous consistent state* -- fields it sees
        # decode exactly, and the new field is simply not visible yet.
        wrapper = FaultInjectingStore(
            inner, FaultRule("stale-read", op="get",
                             key_glob="manifest"), seed=seed)
        st = (Store.open(wrapper) if op != "pack"
              else Store.create(wrapper))
        st.add("extra", new, codec="raw", chunk_shape=(4, 4))
        stale = Store.open(wrapper)
        previous = [] if op == "pack" else ["base"]
        assert stale.names() == previous
        if base is not None:
            np.testing.assert_array_equal(stale.get("base"), base)
            if op == "region":
                region = (slice(2, 6), slice(0, 5))
                np.testing.assert_array_equal(
                    stale.get_region("base", region), base[region])
        # A non-stale reader sees the committed append.
        fresh = Store.open(inner)
        assert fresh.names() == previous + ["extra"]
        np.testing.assert_array_equal(fresh.get("extra"), new)
        return wrapper, [previous + ["extra"]]


class TestCrashThenReopen:
    """Durability: the last durable manifest survives any failed append."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("glob", ["manifest", "chunks/extra/*"])
    def test_failed_append_keeps_previous_manifest(self, backend, glob,
                                                   tmp_path, rng):
        inner = make_inner(backend, tmp_path)
        base = baseline(rng)
        pack_base(inner, base)
        wrapper = FaultInjectingStore(
            inner, FaultRule("io-error", op="set", key_glob=glob),
            seed=FAULT_SEEDS[0])
        st = Store.open(wrapper)
        with pytest.raises(StoreError):
            st.add("extra", base * 3, codec="raw", chunk_shape=(4, 4))
        dump_log(wrapper)
        # Crash-then-reopen: a brand-new handle on the raw backend.
        reopened = Store.open(inner)
        assert reopened.names() == ["base"]
        np.testing.assert_array_equal(reopened.get("base"), base)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_torn_manifest_never_reads_as_garbage(self, backend,
                                                  tmp_path, rng):
        inner = make_inner(backend, tmp_path)
        base = baseline(rng)
        pack_base(inner, base)
        wrapper = FaultInjectingStore(
            inner, FaultRule("torn-write", op="set",
                             key_glob="manifest", max_faults=1),
            seed=FAULT_SEEDS[0])
        st = Store.open(wrapper)
        with pytest.raises(StoreError):
            st.add("extra", base * 3, codec="raw", chunk_shape=(4, 4))
        dump_log(wrapper)
        try:
            reopened = Store.open(inner)
        except FormatError:
            return  # detected, not served -- acceptable
        assert reopened.names() in ([], ["base"])
        if reopened.names() == ["base"]:
            np.testing.assert_array_equal(reopened.get("base"), base)


class TestFaultMachinery:
    """The injector itself: rules, seeding, budgets, and the log."""

    def test_rule_validation(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultRule("gamma-ray")
        with pytest.raises(ConfigError, match="unknown fault op"):
            FaultRule("io-error", op="fsync")
        with pytest.raises(ConfigError, match="cannot target op"):
            FaultRule("torn-write", op="get")
        with pytest.raises(ConfigError, match="cannot target op"):
            FaultRule("stale-read", op="set")
        with pytest.raises(ConfigError, match="probability"):
            FaultRule("io-error", probability=0.0)
        with pytest.raises(ConfigError, match="probability"):
            FaultRule("io-error", probability=1.5)

    def test_same_seed_same_fault_sequence(self):
        def run(seed):
            inner = MemoryStore()
            wrapper = FaultInjectingStore(
                inner,
                FaultRule("bit-flip", op="get", probability=0.3),
                seed=seed)
            for i in range(30):
                inner[f"k/{i}"] = bytes(range(32))
            for i in range(30):
                wrapper[f"k/{i}"]
            return wrapper.records

        a, b = run(1234), run(1234)
        assert a == b
        assert a != run(4321)

    def test_max_faults_budget_holds(self):
        inner = MemoryStore()
        wrapper = FaultInjectingStore(
            inner, FaultRule("io-error", op="set", max_faults=2),
            seed=7)
        failures = 0
        for i in range(10):
            try:
                wrapper[f"k/{i}"] = b"v"
            except StoreError:
                failures += 1
        assert failures == 2
        assert len(wrapper.records) == 2
        assert len(inner) == 8

    def test_first_matching_rule_wins(self):
        inner = MemoryStore()
        inner["k/0"] = b"value"
        wrapper = FaultInjectingStore(
            inner,
            [FaultRule("io-error", op="get", key_glob="k/*"),
             FaultRule("bit-flip", op="get", key_glob="*")],
            seed=0)
        with pytest.raises(StoreError):
            wrapper["k/0"]
        assert [r["kind"] for r in wrapper.records] == ["io-error"]

    def test_ndjson_log_replayable(self, tmp_path):
        inner = MemoryStore()
        wrapper = FaultInjectingStore(
            inner, FaultRule("io-error", op="set", max_faults=3),
            seed=42)
        for i in range(3):
            with pytest.raises(StoreError):
                wrapper[f"k/{i}"] = b"v"
        log = tmp_path / "faults.ndjson"
        wrapper.write_log(log)
        lines = log.read_text().splitlines()
        assert len(lines) == 3
        for seq, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["event"] == "fault"
            assert rec["seq"] == seq
            assert rec["kind"] == "io-error"
            assert rec["seed"] == 42
            assert rec["backend"] == "memory"

    def test_faults_counter_increments(self):
        from repro.observability import (
            Tracer,
            metrics_reset,
            metrics_snapshot,
            use_tracer,
        )

        metrics_reset()
        with use_tracer(Tracer()):
            inner = MemoryStore()
            wrapper = FaultInjectingStore(
                inner, FaultRule("io-error", op="set", max_faults=1),
                seed=0)
            with pytest.raises(StoreError):
                wrapper["k/0"] = b"v"
            assert (metrics_snapshot()["counters"].get("store.faults.injected")
                    == 1)
