"""Feedback-driven adaptive planning (PR 9).

Covers the observation store's failure paths (corrupt / truncated /
wrong-schema disk entries, concurrent writers — all loud, never fatal),
the bounded first-chunk probe that frees unknown-length streams from
"assume large" pessimism, the warm re-plan that flips a mispriced
reduce-side join to broadcast from stored observations, and the mid-job
broadcast-overflow switch — the two acceptance scenarios asserted
byte-identical.
"""

from __future__ import annotations

import json
import os
import threading

from repro.codegen.base import view_records
from repro.compiler import translate
from repro.cost.observe import (
    Observation,
    ObservationStore,
    dataset_fingerprint,
    fragment_observation_key,
    harvest_observation,
)
from repro.engine.multiprocess import MapStep, MultiprocessEngine, ReduceStep
from repro.engine.source import GeneratorSource, ListSource
from repro.options import ExecOptions
from repro.session import Session
from repro.workloads import datagen

#: Integer-valued variant of the BENCH_pr5 misprice scenario: availqty ×
#: size instead of supplycost × size, so the joined fold is exact integer
#: arithmetic and broadcast / reduce-side / adapted runs are
#: byte-identical (float folds drift in the last ulp across strategies).
INT_JOIN_SOURCE = """
class PartSupp {
  int ps_partkey;
  int ps_suppkey;
  int ps_availqty;
}
class Part {
  int p_partkey;
  int p_size;
}

int joinQty(List<PartSupp> partsupp, List<Part> part) {
  int total = 0;
  for (PartSupp ps : partsupp) {
    for (Part p : part) {
      if (ps.ps_partkey == p.p_partkey) {
        total += ps.ps_availqty * p.p_size;
      }
    }
  }
  return total;
}
"""

#: Budget below the small side's bytes — forces the static rule to pick
#: reduce-side, the misprice the observation feedback must correct.
MISPRICE_BUDGET = 512
#: A planned run under that budget.
MISPRICED = ExecOptions(plan="auto", memory_budget=MISPRICE_BUDGET)

_COMPILED: dict[str, object] = {}


def compiled_join():
    if "join" not in _COMPILED:
        result = translate(INT_JOIN_SOURCE, "joinQty")
        fragment = result.fragments[0]
        assert fragment.translated, fragment.failure_reason
        _COMPILED["join"] = result
    return _COMPILED["join"]


def join_program():
    """The compiled int-join fragment's adaptive program.  It holds no
    observation state: a run is warm only when it is handed a store."""
    return compiled_join().fragments[0].program


def join_inputs(size: int = 1500, seed: int = 7) -> dict:
    part, _supplier, partsupp = datagen.part_supplier_tables(
        parts=max(8, size // 40),
        suppliers=8,
        partsupps=size,
        seed=seed,
    )
    return {"partsupp": partsupp, "part": part}


def make_observation(**overrides) -> Observation:
    base = dict(fragment_key="frag", dataset_key="data", input_records=100)
    base.update(overrides)
    return Observation(**base)


# ----------------------------------------------------------------------
# Store failure paths: loud, never fatal


class TestStoreFailurePaths:
    def entry_path(self, store: ObservationStore) -> str:
        return store._disk_path("frag", "data")

    def test_round_trip_through_disk(self, tmp_path):
        store = ObservationStore(cache_dir=str(tmp_path))
        store.record(make_observation(input_bytes=4096, spilled=True))
        fresh = ObservationStore(cache_dir=str(tmp_path))  # simulates restart
        got = fresh.lookup("frag", "data")
        assert got is not None
        assert got.input_records == 100
        assert got.input_bytes == 4096
        assert got.spilled is True
        assert fresh.last_note is None

    def test_corrupt_json_is_a_loud_miss(self, tmp_path):
        store = ObservationStore(cache_dir=str(tmp_path))
        store.record(make_observation())
        with open(self.entry_path(store), "w") as handle:
            handle.write("{this is not json")
        fresh = ObservationStore(cache_dir=str(tmp_path))
        assert fresh.lookup("frag", "data") is None
        assert fresh.last_note is not None
        assert "corrupt JSON" in fresh.last_note

    def test_truncated_entry_is_a_loud_miss(self, tmp_path):
        store = ObservationStore(cache_dir=str(tmp_path))
        store.record(make_observation())
        path = self.entry_path(store)
        with open(path) as handle:
            content = handle.read()
        with open(path, "w") as handle:
            handle.write(content[: len(content) // 2])  # torn write
        fresh = ObservationStore(cache_dir=str(tmp_path))
        assert fresh.lookup("frag", "data") is None
        assert "corrupt JSON" in (fresh.last_note or "")

    def test_schema_version_mismatch_is_a_loud_miss(self, tmp_path):
        store = ObservationStore(cache_dir=str(tmp_path))
        path = self.entry_path(store)
        with open(path, "w") as handle:
            json.dump(
                {"format": 999, "observation": make_observation().as_dict()},
                handle,
            )
        assert store.lookup("frag", "data") is None
        assert "schema version mismatch" in (store.last_note or "")
        assert "999" in store.last_note

    def test_entry_missing_keys_is_a_loud_miss(self, tmp_path):
        store = ObservationStore(cache_dir=str(tmp_path))
        path = self.entry_path(store)
        with open(path, "w") as handle:
            json.dump(
                {"format": 1, "observation": {"input_records": 5}}, handle
            )
        assert store.lookup("frag", "data") is None
        assert "malformed entry" in (store.last_note or "")

    def test_note_clears_on_next_clean_lookup(self, tmp_path):
        store = ObservationStore(cache_dir=str(tmp_path))
        with open(self.entry_path(store), "w") as handle:
            handle.write("garbage")
        assert store.lookup("frag", "data") is None
        assert store.last_note is not None
        store.record(make_observation(fragment_key="other"))
        assert store.lookup("other", "data") is not None
        assert store.last_note is None  # per-lookup, not sticky
        assert len(store.notes) == 1  # ...but the history keeps it

    def test_concurrent_writers_race_benignly(self, tmp_path):
        store = ObservationStore(cache_dir=str(tmp_path))
        errors: list[BaseException] = []

        def write(worker: int) -> None:
            try:
                for round_index in range(20):
                    store.record(
                        make_observation(
                            input_records=worker * 1000 + round_index
                        )
                    )
            except BaseException as exc:  # pragma: no cover - the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(worker,)) for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Whatever write won, the surviving entry is complete and valid.
        fresh = ObservationStore(cache_dir=str(tmp_path))
        got = fresh.lookup("frag", "data")
        assert got is not None and got.input_records is not None
        assert fresh.last_note is None

    def test_two_writers_of_one_key_keep_their_own_tmp_files(
        self, tmp_path, monkeypatch
    ):
        """Both writers are inside the write (tmp file open, nothing
        renamed yet) before either finishes: neither may truncate,
        rename or lose the other's tmp file."""
        from repro.pipeline import diskio

        barrier = threading.Barrier(2, timeout=30)
        dump = json.dump

        def paused_dump(payload, handle):
            barrier.wait()
            dump(payload, handle)

        monkeypatch.setattr(diskio.json, "dump", paused_dump)
        store = ObservationStore(cache_dir=str(tmp_path))
        written: list[bool] = []
        threads = [
            threading.Thread(
                target=lambda n=n: written.append(
                    store.record(make_observation(input_records=n))
                )
            )
            for n in (1, 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert written == [True, True]
        assert [p.name for p in tmp_path.iterdir()] == [
            os.path.basename(store._disk_path("frag", "data"))
        ]
        fresh = ObservationStore(cache_dir=str(tmp_path))
        got = fresh.lookup("frag", "data")
        assert got is not None and got.input_records in (1, 2)
        assert fresh.last_note is None

    def test_capacity_evicts_lru(self):
        store = ObservationStore(capacity=2)
        store.record(make_observation(dataset_key="a"))
        store.record(make_observation(dataset_key="b"))
        store.record(make_observation(dataset_key="c"))
        assert len(store) == 2
        assert store.lookup("frag", "a") is None  # evicted, silent miss
        assert store.last_note is None

    def test_runs_counter_accumulates(self):
        store = ObservationStore()
        store.record(make_observation())
        store.record(make_observation())
        assert store.lookup("frag", "data").runs == 2


class TestFingerprints:
    def test_dataset_fingerprint_tracks_content(self):
        a = dataset_fingerprint({"xs": [1, 2, 3]})
        assert a == dataset_fingerprint({"xs": [1, 2, 3]})
        assert a != dataset_fingerprint({"xs": [1, 2, 4]})
        assert a != dataset_fingerprint({"xs": [1, 2, 3], "n": 3})

    def test_dataset_fingerprint_accepts_streams(self):
        stream = GeneratorSource(lambda: iter(range(10)))
        key = dataset_fingerprint({"xs": stream})
        assert key == dataset_fingerprint(
            {"xs": GeneratorSource(lambda: iter(range(10)))}
        )

    def test_fragment_key_is_stable(self):
        fragment = compiled_join().fragments[0]
        key = fragment_observation_key(
            fragment.analysis, fragment.program.programs[0].summary
        )
        assert key == fragment_observation_key(
            fragment.analysis, fragment.program.programs[0].summary
        )
        assert len(key) == 20


# ----------------------------------------------------------------------
# Satellite 1: bounded first-chunk probe on unknown-length streams


class TestStreamProbe:
    def test_probe_exhausting_caches_exact_length(self):
        source = GeneratorSource(lambda: iter(range(300)))
        assert source.known_length is None
        probe = source.probe(1024)
        assert probe.exhausted and probe.records == 300
        assert source.known_length == 300  # cached for the planner

    def test_probe_beyond_bound_stays_unknown(self):
        source = GeneratorSource(lambda: iter(range(10_000)))
        probe = source.probe(64)
        assert not probe.exhausted and probe.records == 64
        assert source.known_length is None

    def test_small_generator_no_longer_forces_spill(self):
        """Regression: a short unknown-length stream used to be priced
        'assume large' and pushed through the spill shuffle; the probe
        measures it and the plan stays in memory, results identical."""
        inputs = join_inputs(400)
        fragment = compiled_join().fragments[0]
        out_var = list(fragment.analysis.output_vars)[0]
        expected = join_program().run(
            dict(inputs), ExecOptions(plan="sequential")
        ).outputs[out_var]

        rows = list(view_records(fragment.analysis.view, dict(inputs)))
        outcome = join_program().run(
            dict(inputs),
            ExecOptions(plan="auto", memory_budget=1 << 20),
            records=GeneratorSource(lambda: iter(rows)),
        )
        got, report = outcome.outputs[out_var], outcome.report
        assert got == expected
        assert report.plan.spill is False
        assert report.estimates["input_records"]["source"] == "observed"
        assert any("stream probe" in r for r in report.plan.reasons)

    def test_disabled_probe_keeps_assume_large(self, monkeypatch):
        """Contrast: a probe bound too short to see the stream's end
        leaves the pessimistic pricing — the same short stream is
        planned 'assume large' and spills."""
        inputs = join_inputs(400)
        fragment = compiled_join().fragments[0]
        out_var = list(fragment.analysis.output_vars)[0]
        expected = join_program().run(
            dict(inputs), ExecOptions(plan="sequential")
        ).outputs[out_var]
        rows = list(view_records(fragment.analysis.view, dict(inputs)))

        monkeypatch.setattr("repro.planner.planner.PROBE_RECORDS", 1)
        outcome = join_program().run(
            dict(inputs),
            ExecOptions(plan="auto", memory_budget=1 << 20),
            records=GeneratorSource(lambda: iter(rows)),
        )
        got, report = outcome.outputs[out_var], outcome.report
        assert got == expected  # pessimism costs time, never correctness
        assert report.plan.spill is True


class TestEngineStreamAdaptation:
    """Mid-job: the engine probes unknown-length input itself."""

    def run_engine(self, records, combine: bool):
        engine = MultiprocessEngine(
            processes=1, partitions=8, memory_budget=1 << 16
        )
        steps = [
            MapStep(lambda r: [(r % 5, r)]),
            ReduceStep(lambda a, b: a + b, combine=combine),
        ]
        return engine.run_pipeline(records, steps)

    def test_partitions_shrink_for_a_measured_short_stream(self):
        data = list(range(500))
        stream = GeneratorSource(lambda: iter(data))
        result = self.run_engine(stream, combine=False)
        kinds = [a["kind"] for a in result.adaptations]
        assert kinds == ["stream_partitions"]
        adaptation = result.adaptations[0]
        assert adaptation["records"] == 500
        assert adaptation["partitions_after"] < adaptation["partitions_before"]
        # Byte-identity with the known-length run is the whole point.
        reference = self.run_engine(ListSource(list(data)), combine=False)
        assert result.pairs == reference.pairs

    def test_combining_reduce_pins_the_partition_count(self):
        stream = GeneratorSource(lambda: iter(range(500)))
        result = self.run_engine(stream, combine=True)
        adaptation = result.adaptations[0]
        assert adaptation["kind"] == "stream_partitions"
        assert adaptation["partitions_after"] == adaptation["partitions_before"]
        assert "combine" in adaptation["note"]

    def test_long_streams_keep_pessimistic_settings(self):
        stream = GeneratorSource(lambda: iter(range(9000)))
        result = self.run_engine(stream, combine=False)
        assert result.adaptations[0]["kind"] == "stream_probe"
        assert result.adaptations[0]["exhausted"] is False


# ----------------------------------------------------------------------
# Acceptance: warm re-plan from stored observations


class TestWarmReplan:
    def test_second_run_flips_mispriced_join_to_broadcast(self):
        inputs = join_inputs(1500)
        out_var = list(compiled_join().fragments[0].analysis.output_vars)[0]
        store = ObservationStore()

        outcome = join_program().run(dict(inputs), MISPRICED, observations=store)
        cold, cold_report = outcome.outputs, outcome.report
        assert cold_report.plan.join_strategies == ("reduce_side",)

        outcome = join_program().run(dict(inputs), MISPRICED, observations=store)
        warm, warm_report = outcome.outputs, outcome.report
        assert warm_report.plan.join_strategies == ("broadcast",)
        # Integer fold: byte-identical across the strategy flip.
        assert warm[out_var] == cold[out_var]
        # ...and byte-identical to a plain broadcast execution.
        reference = join_program().run(dict(inputs), ExecOptions(plan="auto")).outputs
        assert warm[out_var] == reference[out_var]

        provenance = warm_report.estimates["join_strategy"]
        assert provenance["source"] == "observed"
        assert provenance["static"] == "reduce_side"
        assert provenance["used"] == "broadcast"
        assert (
            provenance["observed_shuffled_bytes"]
            > provenance["observed_right_bytes"]
        )
        # The raised broadcast limit keeps the mid-job guard from
        # instantly re-tripping on the side the observation justified.
        assert warm_report.plan.broadcast_limit >= MISPRICE_BUDGET
        assert any("re-priced from observation" in r for r in warm_report.plan.reasons)

    def test_feedback_off_replans_cold_every_time(self):
        inputs = join_inputs(1500)
        options = ExecOptions(plan="auto", memory_budget=MISPRICE_BUDGET)
        first = join_program().run(dict(inputs), options).report.plan.join_strategies
        again = join_program().run(dict(inputs), options).report.plan.join_strategies
        assert again == first
        assert first == ("reduce_side",)

    def test_changed_data_misses_the_observation(self):
        store = ObservationStore()
        join_program().run(
            dict(join_inputs(1500, seed=7)), MISPRICED, observations=store
        )
        report = join_program().run(
            dict(join_inputs(1500, seed=8)),  # different content
            MISPRICED,
            observations=store,
        ).report
        # Fresh data → no stored evidence → the static rule stands.
        assert report.plan.join_strategies == ("reduce_side",)

    def test_corrupt_store_entry_falls_back_loudly(self, tmp_path):
        inputs = join_inputs(1500)
        join_program().run(
            dict(inputs),
            MISPRICED,
            observations=ObservationStore(cache_dir=str(tmp_path)),
        )
        entries = [n for n in os.listdir(tmp_path) if n.endswith(".json")]
        assert len(entries) == 1
        with open(os.path.join(tmp_path, entries[0]), "w") as handle:
            handle.write("{torn")
        # New store over the same dir: the memory tier is gone, the disk
        # entry is corrupt — the run must fall back to static estimates
        # and say so in the report, not crash.
        report = join_program().run(
            dict(inputs),
            MISPRICED,
            observations=ObservationStore(cache_dir=str(tmp_path)),
        ).report
        assert report.plan.join_strategies == ("reduce_side",)  # static
        fallback = report.estimates["fallback"]
        assert fallback["source"] == "static"
        assert "corrupt JSON" in fallback["note"]
        assert any("static estimates in effect" in r for r in report.plan.reasons)


# ----------------------------------------------------------------------
# Acceptance: mid-job broadcast-overflow switch


class TestMidJobSwitch:
    def test_overflowing_build_switches_to_reduce_side(self, monkeypatch):
        inputs = join_inputs(1500)
        out_var = list(compiled_join().fragments[0].analysis.output_vars)[0]
        reference = join_program().run(
            dict(inputs), ExecOptions(plan="auto", memory_budget=MISPRICE_BUDGET)
        ).outputs[out_var]

        import repro.codegen.joins as joins_mod

        monkeypatch.setattr(
            joins_mod, "sizeof_pair", lambda key, value: 1 << 40
        )
        outcome = join_program().run(dict(inputs), ExecOptions(plan="auto"))
        switched, report = outcome.outputs, outcome.report
        assert report.plan.join_strategies == ("broadcast",)  # the plan...
        adaptation = report.adaptations[0]
        assert adaptation["kind"] == "broadcast_overflow"  # ...adapted
        assert adaptation["switched_to"] == "reduce_side"
        assert adaptation["observed_bytes"] > adaptation["limit"]
        # The join evidence describes what actually ran.
        level = report.join["levels"][0]
        assert level["strategy"] == "reduce_side"
        assert "overflowed" in level["reason"]
        # Byte-identical to the reduce-side execution it switched into.
        assert switched[out_var] == reference

    def test_observed_limit_guards_the_warm_broadcast(self):
        """The warm re-plan raises broadcast_limit above the observed
        side bytes, so the guard does not re-trip on the very side the
        observation justified."""
        inputs = join_inputs(1500)
        store = ObservationStore()
        join_program().run(dict(inputs), MISPRICED, observations=store)
        report = join_program().run(dict(inputs), MISPRICED, observations=store).report
        assert report.plan.join_strategies == ("broadcast",)
        assert report.adaptations == []  # no overflow switch fired


# ----------------------------------------------------------------------
# Serve: sessions accumulate observations across jobs


class TestSessionObserve:
    def test_session_self_tunes_run_over_run(self):
        inputs = join_inputs(1500)
        options = ExecOptions(memory_budget=MISPRICE_BUDGET)
        with Session(max_workers=0) as session:
            program = session.registry.adopt(compiled_join())
            first = session.run(program, dict(inputs), options, fragment_index=0)
            assert first.ok, first.error
            assert first.plan_report.plan.join_strategies == ("reduce_side",)
            second = session.run(program, dict(inputs), options, fragment_index=0)
            assert second.ok, second.error
            assert second.plan_report.plan.join_strategies == ("broadcast",)
            assert (
                second.plan_report.estimates["join_strategy"]["source"]
                == "observed"
            )
            assert second.outputs == first.outputs

    def test_observe_false_keeps_runs_independent(self):
        inputs = join_inputs(1500)
        options = ExecOptions(memory_budget=MISPRICE_BUDGET)
        with Session(max_workers=0, observe=False) as session:
            program = session.registry.adopt(compiled_join())
            session.run(program, dict(inputs), options, fragment_index=0)
            second = session.run(program, dict(inputs), options, fragment_index=0)
            assert second.plan_report.plan.join_strategies == ("reduce_side",)

    def test_per_job_feedback_override_wins(self):
        inputs = join_inputs(1500)
        with Session(max_workers=0) as session:
            program = session.registry.adopt(compiled_join())
            opted_out = ExecOptions(
                memory_budget=MISPRICE_BUDGET, feedback=False
            )
            session.run(program, dict(inputs), opted_out, fragment_index=0)
            second = session.run(program, dict(inputs), opted_out, fragment_index=0)
            # feedback=False per job: nothing recorded, nothing resolved.
            assert second.plan_report.plan.join_strategies == ("reduce_side",)

    def test_per_job_feedback_on_in_a_session_that_does_not_observe(self):
        inputs = join_inputs(1500)
        with Session(max_workers=0, observe=False) as session:
            program = session.registry.adopt(compiled_join())
            opted_in = ExecOptions(memory_budget=MISPRICE_BUDGET, feedback=True)
            session.run(program, dict(inputs), opted_in, fragment_index=0)
            second = session.run(program, dict(inputs), opted_in, fragment_index=0)
            # The session's own store answers the second job.
            assert second.plan_report.plan.join_strategies == ("broadcast",)

    def test_observations_survive_a_restart(self, tmp_path):
        inputs = join_inputs(1500)
        options = ExecOptions(memory_budget=MISPRICE_BUDGET)
        with Session(max_workers=0, cache_dir=str(tmp_path)) as session:
            program = session.registry.adopt(compiled_join())
            session.run(program, dict(inputs), options, fragment_index=0)
        obs_dir = os.path.join(tmp_path, "observations")
        assert os.path.isdir(obs_dir) and os.listdir(obs_dir)
        with Session(max_workers=0, cache_dir=str(tmp_path)) as session:
            program = session.registry.adopt(compiled_join())
            warm = session.run(program, dict(inputs), options, fragment_index=0)
            assert warm.plan_report.plan.join_strategies == ("broadcast",)


# ----------------------------------------------------------------------
# Harvest details


class TestHarvest:
    def test_harvest_captures_stage_evidence(self):
        inputs = join_inputs(1500)
        outcome = join_program().run(
            dict(inputs), ExecOptions(plan="auto", memory_budget=MISPRICE_BUDGET)
        )
        observation = harvest_observation("f", "d", outcome.report, outcome)
        assert observation.stages, "no stage rows harvested"
        names = [row["name"] for row in observation.stages]
        assert "scan" in names
        assert any(name.startswith("shuffle.") for name in names)
        assert observation.join_levels[0]["strategy"] == "reduce_side"
        assert observation.join_levels[0]["right_bytes"] > 0
        assert observation.join_selectivity is not None
        assert 0 < observation.join_selectivity <= 1
        assert observation.key_ratios
