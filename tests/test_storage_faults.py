"""Seeded storage fault injection and graceful degradation.

The claims under test, matching ``repro.faults.storage``'s contract:

* the injector is deterministic — one ``(seed, plan)`` against one
  operation sequence injects the same faults at the same points;
* the fault model is physical — a torn write leaves exactly a prefix,
  ``fill_after_bytes`` behaves like a disk with that much room, and a
  crash-at-fsync unwinds like SIGKILL (uncatchable by the ``OSError``
  degrade paths, tmp debris left behind);
* atomic writes never expose a partial file under the real name;
* the result cache *degrades* under a failing disk — lost writes are
  counted/warned/emitted as telemetry, and a campaign on a completely
  dead disk still finishes with the right numbers.
"""

import errno
import json
import os

import pytest

from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.export import matrix_to_json
from repro.experiments.parallel import (
    ExperimentEngine,
    record_engine_metrics,
)
from repro.faults.storage import (
    STORAGE_FAULTS_ENV,
    SimulatedCrash,
    StorageFaultInjector,
    StorageFaultPlan,
    active_storage_injector,
    atomic_write_bytes,
    atomic_write_text,
    install_from_env,
    install_storage_faults,
    shim_fsync,
    shim_write,
    storage_faults,
    uninstall_storage_faults,
)
from repro.telemetry import Tracer
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Every test starts and ends on the pass-through fast path."""
    uninstall_storage_faults()
    yield
    uninstall_storage_faults()


class TestStorageFaultPlan:
    def test_default_plan_is_noop(self):
        plan = StorageFaultPlan()
        assert plan.is_noop
        assert "noop" in plan.describe()

    def test_active_plan_is_not_noop_and_describes_itself(self):
        plan = StorageFaultPlan(
            seed=7, eio_probability=0.25, crash_at_fsync=3,
        )
        assert not plan.is_noop
        description = plan.describe()
        assert "seed=7" in description
        assert "eio=0.25" in description
        assert "crash_at_fsync=3" in description

    @pytest.mark.parametrize("field_name", (
        "enospc_probability", "torn_write_probability", "eio_probability",
    ))
    @pytest.mark.parametrize("bad", (-0.1, 1.5))
    def test_probabilities_must_be_in_unit_interval(self, field_name, bad):
        with pytest.raises(ConfigError, match=field_name):
            StorageFaultPlan(**{field_name: bad})

    @pytest.mark.parametrize("field_name", (
        "crash_at_fsync", "fill_after_bytes",
    ))
    def test_counters_must_be_non_negative(self, field_name):
        with pytest.raises(ConfigError, match=field_name):
            StorageFaultPlan(**{field_name: -1})

    def test_dict_round_trip(self):
        plan = StorageFaultPlan(
            name="ci-smoke", seed=11, torn_write_probability=0.05,
            crash_at_fsync=20,
        )
        assert StorageFaultPlan.from_dict(plan.as_dict()) == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown storage fault"):
            StorageFaultPlan.from_dict({"tornado_probability": 1.0})

    def test_from_dict_rejects_non_objects(self):
        with pytest.raises(ConfigError, match="JSON object"):
            StorageFaultPlan.from_dict([1, 2, 3])


def _run_sequence(plan, path, ops=40):
    """Drive one injector through a fixed op sequence; returns the
    per-op outcome trace (None for success, fault kind for a raise)."""
    injector = StorageFaultInjector(plan)
    trace = []
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        for index in range(ops):
            data = ("op-{}\n".format(index)).encode("ascii")
            try:
                injector.write(fd, data)
            except OSError as exc:
                trace.append(exc.errno)
            else:
                trace.append(None)
    finally:
        os.close(fd)
    return trace, injector


class TestInjectorDeterminism:
    def test_same_plan_same_sequence_same_faults(self, tmp_path):
        plan = StorageFaultPlan(
            seed=7, torn_write_probability=0.2, eio_probability=0.1,
        )
        first, injector_a = _run_sequence(plan, tmp_path / "a")
        second, injector_b = _run_sequence(plan, tmp_path / "b")
        assert first == second
        assert injector_a.injected == injector_b.injected
        assert any(code is not None for code in first), \
            "plan should fire at least once in 40 ops"

    def test_different_seeds_differ(self, tmp_path):
        base = dict(torn_write_probability=0.2, eio_probability=0.1)
        first, _ = _run_sequence(
            StorageFaultPlan(seed=1, **base), tmp_path / "a",
        )
        second, _ = _run_sequence(
            StorageFaultPlan(seed=2, **base), tmp_path / "b",
        )
        assert first != second

    def test_fill_after_bytes_tears_at_the_horizon(self, tmp_path):
        path = tmp_path / "full-disk"
        injector = StorageFaultInjector(
            StorageFaultPlan(fill_after_bytes=10),
        )
        fd = os.open(str(path), os.O_WRONLY | os.O_CREAT)
        try:
            with pytest.raises(OSError) as excinfo:
                injector.write(fd, b"0123456789abcdef")
            assert excinfo.value.errno == errno.ENOSPC
            # Exactly the free space landed: the canonical torn append.
            assert path.read_bytes() == b"0123456789"
            # The disk stays full for every later write.
            with pytest.raises(OSError):
                injector.write(fd, b"x")
            assert path.read_bytes() == b"0123456789"
        finally:
            os.close(fd)
        assert injector.injected["enospc"] == 2

    def test_torn_write_leaves_a_prefix(self, tmp_path):
        path = tmp_path / "torn"
        injector = StorageFaultInjector(
            StorageFaultPlan(seed=3, torn_write_probability=1.0),
        )
        fd = os.open(str(path), os.O_WRONLY | os.O_CREAT)
        try:
            with pytest.raises(OSError):
                injector.write(fd, b"hello world\n")
        finally:
            os.close(fd)
        on_disk = path.read_bytes()
        assert b"hello world\n".startswith(on_disk)
        assert len(on_disk) < len(b"hello world\n")


class TestAtomicWrite:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "file.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"

    def test_replace_leaves_no_tmp_files(self, tmp_path):
        path = tmp_path / "file.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_failed_write_preserves_old_content(self, tmp_path):
        path = tmp_path / "file.txt"
        atomic_write_text(path, "good")
        with pytest.raises(TypeError):
            atomic_write_bytes(path, object())  # not bytes
        assert path.read_text() == "good"
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


class TestSimulatedCrash:
    def test_crash_is_not_degradable_as_oserror(self):
        assert issubclass(SimulatedCrash, BaseException)
        assert not issubclass(SimulatedCrash, OSError)
        assert not issubclass(SimulatedCrash, Exception)

    def test_crash_at_fsync_fires_on_the_nth_fsync(self, tmp_path):
        with storage_faults(StorageFaultPlan(crash_at_fsync=3)) as injector:
            atomic_write_bytes(tmp_path / "one", b"one")
            atomic_write_bytes(tmp_path / "two", b"two")
            with pytest.raises(SimulatedCrash):
                atomic_write_bytes(tmp_path / "three", b"three")
        assert injector.injected["crash-fsync"] == 1
        assert (tmp_path / "one").read_bytes() == b"one"
        assert (tmp_path / "two").read_bytes() == b"two"
        # The write preceding the fatal fsync did land, but only in the
        # tmp file: the real name never sees unsynced data.
        assert not (tmp_path / "three").exists()
        (debris,) = tmp_path.glob("*.tmp")
        assert debris.read_bytes() == b"three"

    def test_crash_during_atomic_write_leaves_tmp_debris(self, tmp_path):
        with storage_faults(StorageFaultPlan(crash_at_fsync=1)):
            with pytest.raises(SimulatedCrash):
                atomic_write_bytes(tmp_path / "target", b"payload")
        assert not (tmp_path / "target").exists()
        debris = list(tmp_path.glob("*.tmp"))
        assert len(debris) == 1, "a crash must leave the tmp file behind"

    def test_clean_oserror_cleans_up_its_tmp_file(self, tmp_path):
        with storage_faults(StorageFaultPlan(seed=5, eio_probability=1.0)):
            with pytest.raises(OSError):
                atomic_write_bytes(tmp_path / "target", b"payload")
        assert list(tmp_path.glob("*.tmp")) == []
        assert not (tmp_path / "target").exists()


class TestShimInstallation:
    def test_fast_path_with_no_injector(self, tmp_path):
        assert active_storage_injector() is None
        fd = os.open(str(tmp_path / "plain"), os.O_WRONLY | os.O_CREAT)
        try:
            assert shim_write(fd, b"line\n") == 5
            shim_fsync(fd)
        finally:
            os.close(fd)
        atomic_write_bytes(tmp_path / "atom", b"data")
        assert (tmp_path / "plain").read_bytes() == b"line\n"
        assert (tmp_path / "atom").read_bytes() == b"data"

    def test_context_manager_scopes_the_injector(self):
        plan = StorageFaultPlan(seed=1, eio_probability=0.5)
        with storage_faults(plan) as injector:
            assert active_storage_injector() is injector
            assert injector.plan == plan
        assert active_storage_injector() is None

    def test_install_accepts_prebuilt_injector(self):
        injector = StorageFaultInjector(StorageFaultPlan(seed=2))
        assert install_storage_faults(injector) is injector
        assert active_storage_injector() is injector

    def test_install_from_env_unset_is_none(self):
        assert install_from_env(environ={}) is None
        assert active_storage_injector() is None

    def test_install_from_env_parses_a_plan(self):
        plan = StorageFaultPlan(seed=9, torn_write_probability=0.125)
        injector = install_from_env(environ={
            STORAGE_FAULTS_ENV: json.dumps(plan.as_dict()),
        })
        assert injector is not None
        assert injector.plan == plan
        assert active_storage_injector() is injector

    def test_install_from_env_rejects_bad_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            install_from_env(environ={STORAGE_FAULTS_ENV: "{not json"})

    def test_install_from_env_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown"):
            install_from_env(environ={
                STORAGE_FAULTS_ENV: '{"warp_probability": 1.0}',
            })


_DEAD_DISK = StorageFaultPlan(seed=0, eio_probability=1.0)


class TestCacheDegradation:
    def test_put_degrades_counts_and_returns_false(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with storage_faults(_DEAD_DISK):
            with pytest.warns(RuntimeWarning, match="degrading"):
                assert cache.put("key-1", {"v": 1}) is False
            assert cache.put("key-2", {"v": 2}) is False  # warns only once
        stats = cache.stats()
        assert stats["write_errors"] == 2
        assert cache.get("key-1", default="miss") == "miss"
        # No partial entry (or tmp file) is left visible.
        assert [p for p in (tmp_path / "cache").rglob("*") if p.is_file()] \
            == []
        # The degradation is transient: a healthy disk stores again.
        assert cache.put("key-1", {"v": 1}) is True
        assert cache.get("key-1") == {"v": 1}

    def test_unpicklable_values_still_raise(self, tmp_path):
        # Caller bugs are not disk faults and must not be degraded.
        cache = ResultCache(tmp_path / "cache")
        with storage_faults(_DEAD_DISK), pytest.raises(Exception):
            cache.put("key", lambda: None)
        assert cache.stats()["write_errors"] == 0


class TestEngineOnDeadDisk:
    """A campaign whose every durable write fails still finishes."""

    def test_campaign_survives_and_counts_the_damage(self, tmp_path):
        apps, configs, threads = ("fmm",), ("baseline", "thrifty"), 4
        reference = ExperimentEngine(
            cache=tmp_path / "ref-cache",
        ).run_matrix(apps, configs=configs, threads=threads, seed=1)

        tracer = Tracer()
        engine = ExperimentEngine(cache=tmp_path / "cache", tracer=tracer)
        with storage_faults(_DEAD_DISK), pytest.warns(RuntimeWarning):
            matrix = engine.run_matrix(
                apps, configs=configs, threads=threads, seed=1,
            )
        # Same science out, despite a disk that dropped everything.
        assert matrix_to_json(matrix) == matrix_to_json(reference)
        assert engine.cache.stats()["write_errors"] == len(apps) * len(
            configs
        )
        faults = [e for e in tracer.events if e.kind == "storage.fault"]
        assert [e.op for e in faults] == ["cache-store"] * len(configs)
        assert tracer.metrics.counter("storage.faults").value == len(faults)

        metrics = MetricsRegistry()
        record_engine_metrics(metrics, engine)
        assert metrics.counter("cache.write_errors").value == \
            engine.cache.stats()["write_errors"]
