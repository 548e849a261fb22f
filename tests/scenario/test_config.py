"""ScenarioConfig schema, serialisation and fingerprint stability."""

import hashlib
import json

import pytest

from repro.scenario.config import (
    SCHEMA_VERSION,
    EngineSection,
    GpuSection,
    ScenarioConfig,
    as_scenario,
    cell_scenario,
)


class TestFingerprintStability:
    def test_scheme_config_insertion_order_is_canonicalised(self):
        a = cell_scenario(
            "fft", "killi_1:64",
            scheme_config={"priority_replacement": False, "dfh_bits": 2},
        )
        b = cell_scenario(
            "fft", "killi_1:64",
            scheme_config={"dfh_bits": 2, "priority_replacement": False},
        )
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_toml_round_trip_hashes_identically(self):
        original = cell_scenario(
            "fft", "killi_1:64",
            voltage=0.65, seed=7, accesses_per_cu=1234,
            scheme_config={"train_on_evict": False},
        )
        round_tripped = ScenarioConfig.from_toml(original.to_toml())
        assert round_tripped == original
        assert round_tripped.fingerprint() == original.fingerprint()

    def test_json_round_trip_hashes_identically(self):
        original = cell_scenario("xsbench", "msecc", voltage=0.65)
        round_tripped = ScenarioConfig.from_json(original.to_json())
        assert round_tripped.fingerprint() == original.fingerprint()

    def test_byte_compatible_with_legacy_cellspec_payload(self):
        """The exact payload the flat per-cell spec of earlier releases
        hashed: existing on-disk result caches must stay warm."""
        legacy_payload = {
            "workload": "nekbone",
            "scheme": "killi_1:32",
            "voltage": 0.6,
            "seed": 3,
            "accesses_per_cu": 500,
            "scheme_config": [["dfh_bits", 3]],
            "write_back": False,
            "schema": 1,
        }
        legacy = hashlib.sha256(
            json.dumps(legacy_payload, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()
        assert legacy == (
            "26a33dad0af6326d8f00f1eeab016e0c6bd5d6ded752cc8e148ca395480aad5e"
        )
        scenario = cell_scenario(
            "nekbone", "killi_1:32",
            voltage=0.6, seed=3, accesses_per_cu=500,
            scheme_config={"dfh_bits": 3}, write_back=False,
        )
        assert scenario.canonical_payload() == legacy_payload
        assert scenario.fingerprint() == legacy

    def test_engine_does_not_change_the_fingerprint(self):
        base = cell_scenario("fft", "baseline")
        for engine in ("batched", "scalar"):
            variant = base.replace(engine=EngineSection(engine=engine))
            assert variant.fingerprint() == base.fingerprint()

    def test_non_default_gpu_changes_the_fingerprint(self):
        base = cell_scenario("fft", "baseline")
        small = base.replace(gpu=GpuSection(l2_size_bytes=256 * 1024))
        assert small.fingerprint() != base.fingerprint()
        # ... and only the overridden knob enters the payload.
        assert small.canonical_payload()["gpu"] == {"l2_size_bytes": 256 * 1024}
        assert "gpu" not in base.canonical_payload()


class TestSchema:
    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown section"):
            ScenarioConfig.from_dict({"typo": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            ScenarioConfig.from_dict({"fault": {"voltage": 0.6, "sed": 1}})

    def test_newer_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            ScenarioConfig.from_dict({"schema_version": SCHEMA_VERSION + 1})

    def test_validate_resolves_every_axis(self):
        cell_scenario("fft", "killi_1:64").validate()
        with pytest.raises(KeyError, match="unknown scheme"):
            cell_scenario("fft", "nope").validate()
        with pytest.raises(KeyError, match="unknown workload"):
            cell_scenario("nope", "baseline").validate()
        with pytest.raises(ValueError, match="accesses_per_cu"):
            cell_scenario("fft", "baseline", accesses_per_cu=0).validate()
        with pytest.raises(ValueError, match="voltage"):
            cell_scenario("fft", "baseline", voltage=2.0).validate()

    def test_as_scenario_rejects_other_types(self):
        scenario = cell_scenario("fft", "baseline")
        assert as_scenario(scenario) is scenario
        with pytest.raises(TypeError, match="expected a ScenarioConfig"):
            as_scenario({"workload": "fft"})

    def test_removed_engine_rejected(self):
        with pytest.raises(KeyError, match="unknown engine 'vectorized'"):
            cell_scenario("fft", "baseline", engine="vectorized").validate()

    def test_removed_substrate_key_rejected(self):
        text = '[workload]\nname = "fft"\n\n[engine]\nsubstrate = "soa"\n'
        with pytest.raises(ValueError, match=r"unknown key.*'substrate'.*\[engine\]"):
            ScenarioConfig.from_toml(text)

    def test_scheme_options_validated_against_factory(self):
        with pytest.raises(ValueError, match="only apply to Killi"):
            cell_scenario(
                "fft", "baseline", scheme_config={"dfh_bits": 2}
            ).validate()
        with pytest.raises(ValueError, match="override"):
            cell_scenario(
                "fft", "killi_1:64", scheme_config={"not_a_field": 1}
            ).validate()

    def test_gpu_section_materialises_gpu_config(self):
        gpu = GpuSection(n_cus=4, l2_size_bytes=512 * 1024).to_gpu_config()
        assert gpu.n_cus == 4
        assert gpu.l2.size_bytes == 512 * 1024
