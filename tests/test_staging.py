"""Unit tests for out-of-band data staging (Globus substitute)."""

from __future__ import annotations

import pytest

from repro.errors import NotFoundError
from repro.staging import DataRef, DataStore, TransferService


class TestDataStore:
    def test_put_get_roundtrip(self):
        store = DataStore("alcf")
        ref = store.put(b"image bytes")
        assert store.get(ref) == b"image bytes"
        assert ref.size == 11

    def test_named_key(self):
        store = DataStore("s")
        ref = store.put(b"x", key="dataset/frame-001.h5")
        assert ref.key == "dataset/frame-001.h5"
        assert store.exists(ref.key)

    def test_missing_object(self):
        store = DataStore("s")
        bogus = DataRef(store="s", key="missing", size=1, checksum=0)
        with pytest.raises(NotFoundError):
            store.get(bogus)

    def test_wrong_store(self):
        a, b = DataStore("a"), DataStore("b")
        ref = a.put(b"data")
        with pytest.raises(NotFoundError):
            b.get(ref)

    def test_checksum_detects_corruption(self):
        store = DataStore("s")
        ref = store.put(b"data", key="k")
        store._objects["k"] = b"tampered"
        with pytest.raises(ValueError, match="checksum"):
            store.get(ref)

    def test_delete(self):
        store = DataStore("s")
        ref = store.put(b"x", key="k")
        assert store.delete("k")
        assert not store.delete("k")
        assert len(store) == 0

    def test_ref_argument_roundtrip(self):
        ref = DataStore("s").put(b"payload")
        record = ref.as_argument()
        assert record["__dataref__"]
        assert DataRef.from_argument(record) == ref

    def test_from_argument_rejects_plain_dict(self):
        for record in ({"store": "s"}, ["__dataref__"], "__dataref__"):
            with pytest.raises(ValueError):
                DataRef.from_argument(record)


class TestTransferService:
    def _service(self, **kwargs):
        svc = TransferService(**kwargs)
        svc.create_store("beamline")
        svc.create_store("hpc")
        return svc

    def test_transfer_copies_object(self):
        svc = self._service()
        ref = svc.store("beamline").put(b"detector frame")
        new_ref = svc.transfer(ref, "hpc")
        assert new_ref.store == "hpc"
        assert svc.store("hpc").get(new_ref) == b"detector frame"
        # source still intact
        assert svc.store("beamline").get(ref) == b"detector frame"

    def test_estimate_uses_link_model(self):
        svc = self._service(default_latency=1.0, default_bandwidth=100.0)
        assert svc.estimate("beamline", "hpc", 200) == pytest.approx(3.0)

    def test_custom_link_overrides_default(self):
        svc = self._service(default_latency=1.0, default_bandwidth=1.0)
        svc.set_link("beamline", "hpc", latency=0.0, bandwidth=1e9)
        assert svc.estimate("beamline", "hpc", 10**6) < 0.01

    def test_records_audit_trail(self):
        svc = self._service()
        ref = svc.store("beamline").put(b"12345")
        svc.transfer(ref, "hpc")
        assert len(svc.records) == 1
        record = svc.records[0]
        assert record.source == "beamline" and record.destination == "hpc"
        assert record.size == 5
        assert svc.total_bytes_moved() == 5

    def test_unknown_store(self):
        svc = self._service()
        ref = svc.store("beamline").put(b"x")
        with pytest.raises(NotFoundError):
            svc.transfer(ref, "nowhere")

    def test_applied_delay(self):
        slept = []
        svc = TransferService(
            default_latency=0.25,
            default_bandwidth=1e9,
            apply_delay=True,
            sleeper=slept.append,
        )
        svc.create_store("a")
        svc.create_store("b")
        ref = svc.store("a").put(b"x" * 1000)
        svc.transfer(ref, "b")
        assert len(slept) == 1 and slept[0] >= 0.25

    def test_link_validation(self):
        svc = self._service()
        with pytest.raises(ValueError):
            svc.set_link("a", "b", latency=-1, bandwidth=10)
        with pytest.raises(ValueError):
            svc.set_link("a", "b", latency=0, bandwidth=0)


class TestStoreRegistry:
    def setup_method(self):
        from repro.staging.transfer import clear_registry

        clear_registry()

    def test_register_and_resolve(self):
        from repro.staging import register_store, resolve_store

        store = register_store(DataStore("beamline"))
        assert resolve_store("beamline") is store

    def test_resolve_unknown(self):
        from repro.staging import resolve_store

        with pytest.raises(NotFoundError):
            resolve_store("nowhere")

    def test_fetch_ref_roundtrip(self):
        from repro.staging import fetch_ref, register_store

        store = register_store(DataStore("site"))
        ref = store.put(b"detector frame bytes")
        assert fetch_ref(ref.as_argument()) == b"detector frame bytes"

    def test_function_fetches_staged_data_through_live_fabric(self):
        """The §4.6 pattern end to end: stage data, pass only the
        reference through the service, the function reads it at the site."""
        from repro import LocalDeployment
        from repro.staging import register_store

        store = register_store(DataStore("edge"))
        ref = store.put(b"0123456789" * 100)

        def count_bytes(data_ref):
            from repro.staging.transfer import fetch_ref

            return len(fetch_ref(data_ref))

        with LocalDeployment() as dep:
            client = dep.client()
            ep = dep.create_endpoint("edge-ep", nodes=1)
            fid = client.register_function(count_bytes)
            future = client.submit(fid, ep, ref.as_argument())
            assert future.result(timeout=30) == 1000
        # the reference that crossed the service is tiny
        import json

        assert len(json.dumps(ref.as_argument())) < 300
