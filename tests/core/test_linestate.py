"""Tests for the sparse per-line error model."""

import numpy as np
import pytest

from repro.core.layout import LineLayout
from repro.core.linestate import LineErrorModel
from repro.faults.cell_model import CellFaultModel
from repro.faults.fault_map import FaultMap


@pytest.fixture
def layout():
    return LineLayout()


@pytest.fixture
def dense_map(rngs):
    anchors = ((0.5, 0.2), (0.625, 3e-2), (1.0, 1e-9))
    return FaultMap(
        n_lines=256,
        cell_model=CellFaultModel(anchors=anchors),
        rng=rngs.stream("dense"),
    )


@pytest.fixture
def model(dense_map, rngs):
    return LineErrorModel(dense_map, 0.625, rngs.stream("mask"))


@pytest.fixture
def sparse_model(rngs):
    """Error model over a map where most lines are fault-free."""
    sparse = FaultMap(n_lines=256, floor_voltage=0.65, rng=rngs.stream("sp"))
    return LineErrorModel(sparse, 0.65, rngs.stream("mask2"))


class TestLayout:
    def test_paper_dimensions(self, layout):
        assert layout.total_bits == 539
        assert layout.parity_offset == 512
        assert layout.check_offset == 528
        assert layout.gparity_offset == 538
        assert layout.codeword_bits == 523

    def test_region_predicates(self, layout):
        assert layout.is_data(0) and layout.is_data(511)
        assert layout.is_parity(512) and layout.is_parity(527)
        assert layout.is_checkbit(528) and layout.is_checkbit(538)
        assert not layout.is_data(512)

    def test_parity_index(self, layout):
        assert layout.parity_index(512) == 0
        assert layout.parity_index(527) == 15
        with pytest.raises(ValueError):
            layout.parity_index(100)

    def test_codeword_positions(self, layout):
        assert layout.codeword_position(0) == 0
        assert layout.codeword_position(511) == 511
        assert layout.codeword_position(528) == 512
        assert layout.codeword_position(538) == 522
        assert layout.codeword_position(520) is None  # parity region


class TestMaskingDeterminism:
    def test_same_tag_same_vector(self, model):
        line = next(l for l in range(256) if model.fault_map.has_faults(l))
        model.on_fill(line, salt=77)
        first = model.error_positions(line)
        model.on_fill(line, salt=123)  # different data
        model.on_fill(line, salt=77)  # same data again
        assert model.error_positions(line) == first

    def test_different_tags_eventually_differ(self, model, dense_map):
        lines = [l for l in range(256) if dense_map.fault_count(l, 0.625) >= 3]
        assert lines, "dense map should have multi-fault lines"
        differs = False
        for line in lines:
            model.on_fill(line, salt=1)
            a = model.error_positions(line)
            model.on_fill(line, salt=2)
            if model.error_positions(line) != a:
                differs = True
                break
        assert differs

    def test_masking_is_fair(self, model, dense_map):
        # Across many (line, salt) pairs about half the faults unmask.
        total_faults = 0
        total_unmasked = 0
        for line in range(256):
            count = dense_map.fault_count(line, 0.625)
            if not count:
                continue
            for salt in range(8):
                model.on_fill(line, salt=salt)
                total_faults += count
                total_unmasked += len(model.error_positions(line))
        assert 0.4 < total_unmasked / total_faults < 0.6

    def test_fault_free_line_always_clean(self, sparse_model):
        model = sparse_model
        line = next(l for l in range(256) if not model.fault_map.has_faults(l))
        model.on_fill(line, salt=9)
        assert not model.is_dirty(line)
        signals = model.signals(line, 16, True)
        assert signals.sp_mismatches == 0
        assert signals.syndrome_zero and signals.global_parity_ok


class TestWriteHit:
    def test_write_clears_soft_errors(self, sparse_model):
        model = sparse_model
        line = next(l for l in range(256) if not model.fault_map.has_faults(l))
        model.add_soft_error(line, [5])
        assert model.is_dirty(line)
        model.on_write_hit(line)
        assert not model.is_dirty(line)

    def test_write_toggles_with_configured_probability(self, model, dense_map):
        line = max(range(256), key=lambda l: dense_map.fault_count(l, 0.625))
        count = dense_map.fault_count(line, 0.625)
        model.on_fill(line, salt=0)
        toggles = 0
        trials = 400
        previous = model.error_positions(line)
        for _ in range(trials):
            model.on_write_hit(line)
            current = model.error_positions(line)
            toggles += len(previous ^ current)
            previous = current
        rate = toggles / (trials * count)
        assert 0.05 < rate < 0.2  # mask_flip_probability = 0.1

    def test_effective_stays_subset_of_faults(self, model, dense_map):
        line = max(range(256), key=lambda l: dense_map.fault_count(l, 0.625))
        positions = set(map(int, dense_map.line_faults(line, 0.625)[0]))
        model.on_fill(line, salt=0)
        for _ in range(50):
            model.on_write_hit(line)
            assert model.error_positions(line) <= positions


class TestSoftErrors:
    def test_xor_semantics(self, model):
        line = 0
        model.set_effective(line, set())
        model.add_soft_error(line, [7])
        assert 7 in model.error_positions(line)
        model.add_soft_error(line, [7])
        assert 7 not in model.error_positions(line)

    def test_out_of_range(self, model):
        with pytest.raises(IndexError):
            model.add_soft_error(0, [539])
        with pytest.raises(IndexError):
            model.set_effective(0, [600])

    def test_clear(self, model):
        model.set_effective(3, {1, 2})
        model.clear(3)
        assert not model.is_dirty(3)

    def test_clear_all(self, model):
        model.set_effective(3, {1})
        model.set_effective(4, {2})
        model.clear_all()
        assert not model.is_dirty(3) and not model.is_dirty(4)


class TestSignals:
    def test_single_data_error(self, model):
        model.set_effective(0, {100})
        signals = model.signals(0, 16, True)
        assert signals.sp_mismatches == 1
        assert not signals.syndrome_zero
        assert not signals.global_parity_ok
        assert signals.data_error_bits == 1

    def test_two_errors_same_segment_16(self, model):
        # Positions 0 and 16 share training segment 0: parity blind,
        # ECC sees both.
        model.set_effective(0, {0, 16})
        signals = model.signals(0, 16, True)
        assert signals.sp_mismatches == 0
        assert not signals.syndrome_zero
        assert signals.global_parity_ok  # even count

    def test_two_errors_different_segments(self, model):
        model.set_effective(0, {0, 1})
        signals = model.signals(0, 16, True)
        assert signals.sp_mismatches == 2

    def test_parity_bit_fault_in_use(self, model):
        model.set_effective(0, {512})  # parity bit 0
        signals = model.signals(0, 16, True)
        assert signals.sp_mismatches == 1
        assert signals.syndrome_zero  # not part of the ECC codeword

    def test_parity_bit_fault_out_of_use(self, model):
        model.set_effective(0, {520})  # parity bit 8: unused with 4 segments
        signals = model.signals(0, 4, True)
        assert signals.sp_mismatches == 0

    def test_checkbit_fault_with_ecc(self, model):
        model.set_effective(0, {530})
        signals = model.signals(0, 4, True)
        assert signals.sp_mismatches == 0
        assert not signals.syndrome_zero
        assert not signals.global_parity_ok

    def test_checkbit_fault_without_ecc(self, model):
        model.set_effective(0, {530})
        signals = model.signals(0, 4, False)
        assert signals.syndrome_zero and signals.global_parity_ok

    def test_global_parity_bit_fault(self, model):
        model.set_effective(0, {538})
        signals = model.signals(0, 4, True)
        assert signals.syndrome_zero
        assert not signals.global_parity_ok

    def test_segment_mapping_stable_mode(self, model):
        # Positions 0 and 4 differ mod 16 but share segment 0 mod 4.
        model.set_effective(0, {0, 4})
        assert model.signals(0, 4, True).sp_mismatches == 0
        assert model.signals(0, 16, True).sp_mismatches == 2


class TestCorrectionSoundness:
    def test_single_error_sound(self, model):
        model.set_effective(0, {10})
        assert model.correction_is_sound(0)

    def test_clean_sound(self, model):
        model.clear(0)
        assert model.correction_is_sound(0)

    def test_multi_data_error_unsound(self, model):
        model.set_effective(0, {10, 20, 30})
        assert not model.correction_is_sound(0)

    def test_parity_only_errors_sound(self, model):
        model.set_effective(0, {513, 514})
        assert model.correction_is_sound(0)

    def test_has_data_errors(self, model):
        model.set_effective(0, {520})
        assert not model.has_data_errors(0)
        model.set_effective(0, {520, 5})
        assert model.has_data_errors(0)


class TestObservableFaults:
    def test_includes_masked(self, model, dense_map):
        line = max(range(256), key=lambda l: dense_map.fault_count(l, 0.625))
        positions = set(map(int, dense_map.line_faults(line, 0.625)[0]))
        model.on_fill(line, salt=0)
        observable = model.observable_fault_positions(line)
        assert positions <= observable

    def test_includes_soft_errors(self, sparse_model):
        model = sparse_model
        line = next(l for l in range(256) if not model.fault_map.has_faults(l))
        model.add_soft_error(line, [3])
        assert 3 in model.observable_fault_positions(line)


class TestPackedScalarEquivalence:
    """The packed tracker is pinned to the scalar signals_for_positions."""

    @pytest.mark.parametrize("n_segments,use_ecc", [(16, True), (4, True), (4, False)])
    def test_signals_match_scalar_reference(self, model, n_segments, use_ecc):
        for line in range(64):
            model.on_fill(line, salt=line)
            positions = sorted(model.error_positions(line))
            want = model.signals_for_positions(positions, n_segments, use_ecc)
            got = model.signals(line, n_segments, use_ecc)
            assert (
                got.sp_mismatches,
                got.syndrome_zero,
                got.global_parity_ok,
                got.data_error_bits,
            ) == (
                want.sp_mismatches,
                want.syndrome_zero,
                want.global_parity_ok,
                want.data_error_bits,
            ), line

    def test_observable_signals_match_scalar_reference(self, model):
        for line in range(64):
            model.on_fill(line, salt=3)
            positions = sorted(model.observable_fault_positions(line))
            want = model.signals_for_positions(positions, 16, True)
            got = model.observable_signals(line, 16)
            assert (got.sp_mismatches, got.syndrome_zero, got.global_parity_ok) == (
                want.sp_mismatches,
                want.syndrome_zero,
                want.global_parity_ok,
            ), line

    def test_has_observable_faults_consistent(self, model):
        for line in range(128):
            model.on_fill(line, salt=1)
            assert model.has_observable_faults(line) == bool(
                model.observable_fault_positions(line)
            )

    def test_signal_cache_invalidated_on_mutation(self, model):
        line = 0
        model.set_effective(line, {100})
        assert model.signals(line, 16, True).data_error_bits == 1
        model.add_soft_error(line, [101])
        assert model.signals(line, 16, True).data_error_bits == 2
        model.set_effective(line, {512})
        signals = model.signals(line, 16, True)
        assert signals.data_error_bits == 0
        assert signals.sp_mismatches == 1
        model.clear(line)
        assert model.signals(line, 16, True).sp_mismatches == 0

    def test_signal_cache_keyed_per_configuration(self, model):
        # Positions 0 and 4 alias mod 4 but not mod 16; both configs
        # must be served correctly from the same line's cache.
        model.set_effective(0, {0, 4})
        assert model.signals(0, 16, True).sp_mismatches == 2
        assert model.signals(0, 4, True).sp_mismatches == 0
        assert model.signals(0, 16, True).sp_mismatches == 2

    def test_error_positions_roundtrip_packed(self, model, dense_map):
        line = max(range(256), key=lambda l: dense_map.fault_count(l, 0.625))
        faults = set(map(int, dense_map.line_faults(line, 0.625)[0]))
        model.on_fill(line, salt=5)
        positions = model.error_positions(line)
        assert positions <= faults
        model.set_effective(line, positions)
        assert model.error_positions(line) == positions


class TestValidation:
    def test_narrow_fault_map_rejected(self, rngs):
        narrow = FaultMap(n_lines=8, line_bits=100, rng=rngs.stream("n"))
        with pytest.raises(ValueError):
            LineErrorModel(narrow, 0.625, rngs.stream("m"))

    def test_ecc_cache_at_nominal_voltage(self, dense_map, rngs):
        model = LineErrorModel(
            dense_map, 0.625, rngs.stream("m"), lv_faults_in_ecc_cache=False
        )
        for line in range(256):
            model.on_fill(line, salt=1)
            for position in model.error_positions(line):
                assert position < 516  # data + 4 resident parity bits


@pytest.fixture(scope="module")
def low_vmin_model():
    """A dense map at 0.600xVDD (about 4.4 active faults per line)."""
    fault_map = FaultMap(n_lines=4096, rng=np.random.default_rng(2019))
    return LineErrorModel(fault_map, 0.6, np.random.default_rng(5))


def _row(offsets) -> int:
    return sum(1 << offset for offset in offsets)


def _masking_coins(line_ids, salts, positions):
    """Vectorized splitmix64 masking coins (True = unmasked): an
    independent numpy form of the integer mix in ``predicted_fill_row``
    (``uint64`` multiplies wrap like its ``& 2**64 - 1``)."""
    x = positions.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x ^= line_ids.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
    x ^= (salts.astype(np.uint64) + np.uint64(1)) * np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return ((x >> np.uint64(13)) & np.uint64(1)).astype(bool)


class TestRowDerivations:
    """The integer row paths, pinned to the vectorized coins and to rows
    recorded from the packed-matrix implementation they replaced."""

    def test_fill_rows_match_vectorized_coins(self, low_vmin_model):
        model = low_vmin_model
        rng = np.random.default_rng(77)
        n_pairs = 12_000
        slots = rng.integers(0, model.fault_map.n_lines, n_pairs)
        salts = rng.integers(0, 2**62, n_pairs)
        salts[:100] = np.arange(100)  # small tags too
        offsets, positions, _ = model.fault_map._active_csr(0.6)
        starts = np.asarray(offsets)[slots]
        counts = np.asarray(offsets)[slots + 1] - starts
        assert counts.mean() > 4  # dense: multi-fault lines dominate
        pair_of = np.repeat(np.arange(n_pairs), counts)
        flat = np.arange(int(counts.sum())) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        pair_positions = positions[np.repeat(starts, counts) + flat]
        coins = _masking_coins(slots[pair_of], salts[pair_of], pair_positions)
        want = [0] * n_pairs
        for pair, position in zip(
            pair_of[coins].tolist(), pair_positions[coins].tolist()
        ):
            want[pair] |= 1 << position
        for i, (slot, salt) in enumerate(zip(slots.tolist(), salts.tolist())):
            model.on_fill(slot, salt)
            assert model.row(slot) == want[i], (slot, salt)
            assert model.predicted_fill_row(slot, salt) == want[i]

    @pytest.mark.parametrize(
        "slot,salt,active,unmasked",
        [
            (7, 0, (237, 253, 461), (237, 461)),
            (1234, 99, (3, 82, 202, 306, 432, 536), (3, 432)),
            (2048, 123456789, (169, 238, 289, 311, 477), (289, 311, 477)),
            (4095, 31, (9, 416, 496), (416,)),
        ],
    )
    def test_recorded_fill_rows(self, low_vmin_model, slot, salt, active, unmasked):
        model = low_vmin_model
        assert tuple(model._active_positions(slot)) == active
        model.on_fill(slot, salt)
        assert model.row(slot) == _row(unmasked)

    def test_reroll_draws_exactly_n_active(self, low_vmin_model):
        model = low_vmin_model
        for line in (7, 1234, 2363):
            n_active = len(model._active_positions(line))
            model.on_fill(line, 3)
            model.rng = np.random.default_rng(line)
            twin = np.random.default_rng(line)
            model.rerolled_row(line, model.row(line))
            twin.random(n_active)
            assert model.rng.bit_generator.state == twin.bit_generator.state

    def test_recorded_reroll(self, low_vmin_model):
        model = low_vmin_model
        line = 2363
        assert model._active_positions(line) == [
            187, 195, 226, 252, 318, 320, 326, 354, 360, 429, 430, 444, 469, 474,
        ]
        model.on_fill(line, 17)
        assert model.row(line) == _row((226, 320, 326, 360, 429, 444, 474))
        model.add_soft_error(line, [300])  # not a fault: the write drops it
        model.rng = np.random.default_rng(11)
        model.on_write_hit(line)
        assert model.row(line) == _row((226, 252, 320, 360, 429, 444, 474))
