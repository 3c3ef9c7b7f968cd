"""FunctionalMemory decodes a line only when its stored word changed, and
builds a line's weak-cell RNG only when its weak population grows.

Both shortcuts must leave every outcome unchanged: the last class here
runs the ``functional`` exhibit and an 80-trial chaos campaign against a
memory that decodes every access and compares the results.
"""

import random

from repro.chaos.campaign import ChaosCampaign
from repro.ecc.layout import LineCodec
from repro.errors import DecodingError, ModeBitError
from repro.functional.faults import FaultProcess, SoftErrorModel
from repro.functional.memory import FunctionalMemory, NoEccMemory
from repro.reliability.retention import RetentionModel
from repro.report.spec import get_exhibit
from repro.types import EccMode


class CountingCodec(LineCodec):
    """A line codec that counts the words it decodes."""

    def __init__(self):
        super().__init__()
        self.decodes = 0  # every word decoded, batch words included
        self.batches = []  # the words handed to each decode_batch call

    def decode(self, stored):
        self.decodes += 1
        return super().decode(stored)

    def decode_batch(self, stored_words):
        stored_words = list(stored_words)
        self.batches.append(stored_words)
        return super().decode_batch(stored_words)


class CountingFaults(FaultProcess):
    """A fault process that counts the per-line RNGs it builds."""

    def __post_init__(self):
        super().__post_init__()
        self.rng_lines = []

    def rng_for_line(self, line_index):
        self.rng_lines.append(line_index)
        return super().rng_for_line(line_index)


class UncachedMemory(FunctionalMemory):
    """Decodes the stored word on every access (no outcome reuse)."""

    def _decode(self, entry):
        try:
            return self.codec.decode(entry.stored)
        except (DecodingError, ModeBitError) as exc:
            return exc

    def _decode_batch(self, entries):
        return self.codec.decode_batch([entry.stored for entry in entries])


def counting_memory(faults=None):
    memory = FunctionalMemory(codec=CountingCodec(), faults=faults)
    return memory, memory.codec


def hot_faults(seed, anchor_ber=0.01, cls=FaultProcess):
    return cls(
        retention=RetentionModel(anchor_ber=anchor_ber),
        soft_errors=SoftErrorModel(rate_per_bit_s=0.0),
        seed=seed,
    )


DATA = random.Random(7).getrandbits(512)


class TestDecodeCache:
    def test_reread_of_untouched_line_decodes_once(self):
        memory, codec = counting_memory()
        memory.write(0, DATA, EccMode.STRONG)
        assert [memory.read(0) for _ in range(4)] == [DATA] * 4
        assert codec.decodes == 1
        assert memory.counters.reads == 4

    def test_write_forces_a_fresh_decode(self):
        memory, codec = counting_memory()
        memory.write(0, DATA, EccMode.STRONG)
        memory.read(0)
        memory.write(0, DATA ^ 1, EccMode.STRONG)
        assert memory.read(0) == DATA ^ 1
        assert codec.decodes == 2

    def test_settle_flip_forces_a_fresh_decode(self):
        # Seed 2 decays exactly one cell of line 0 in its first slow window.
        memory, codec = counting_memory(hot_faults(seed=2))
        memory.set_refresh_period(1.024)
        memory.write(0, DATA, EccMode.STRONG)
        assert memory.read(0) == DATA
        memory.advance_time(2.0)
        assert memory.read(0) == DATA
        assert codec.decodes == 2
        assert memory.counters.corrected_bits == 1
        # The corrected word was written back: a further read decodes it.
        memory.read(0)
        assert codec.decodes == 3
        assert memory.counters.corrected_bits == 1

    def test_downgrade_reencode_forces_a_fresh_decode(self):
        memory, codec = counting_memory()
        memory.write(0, DATA, EccMode.STRONG)
        assert memory.read(0, downgrade=True) == DATA
        assert memory.mode_of(0) is EccMode.WEAK
        memory.read(0, downgrade=True)
        assert codec.decodes == 2
        assert memory.counters.downgrades == 1
        memory.read(0, downgrade=True)
        assert codec.decodes == 2

    def test_upgrade_line_reuses_then_forces_a_fresh_decode(self):
        memory, codec = counting_memory()
        memory.write(0, DATA, EccMode.WEAK)
        memory.read(0)
        assert memory.upgrade_line(0)
        assert codec.decodes == 1  # the weak word was already decoded
        assert memory.read(0) == DATA
        assert codec.decodes == 2
        assert memory.counters.upgrades == 1

    def test_corrupt_stored_forces_a_fresh_decode(self):
        memory, codec = counting_memory()
        memory.write(0, DATA, EccMode.STRONG)
        memory.read(0)
        memory.corrupt_stored(0, [codec.layout.field_bits + 5])
        assert memory.read(0) == DATA
        assert codec.decodes == 2
        assert memory.counters.corrected_bits == 1

    def test_rewrite_mode_forces_a_fresh_decode(self):
        memory, codec = counting_memory()
        memory.write(0, DATA, EccMode.STRONG)
        memory.read(0)
        memory.rewrite_mode(0, EccMode.WEAK)
        assert memory.read(0) == DATA
        assert codec.decodes == 2
        assert memory.mode_of(0) is EccMode.WEAK

    def test_uncorrectable_line_counts_on_every_read(self):
        memory, codec = counting_memory()
        memory.write(0, DATA, EccMode.WEAK)
        base = codec.layout.field_bits
        memory.corrupt_stored(0, [base + 3, base + 200])  # SEC-DED: detected
        assert [memory.read(0) for _ in range(3)] == [None] * 3
        assert memory.counters.detected_uncorrectable == 3
        assert not memory.upgrade_line(0)
        assert memory.counters.detected_uncorrectable == 4
        assert codec.decodes == 1

    def test_read_batch_hands_only_changed_words_to_decode_batch(self):
        memory, codec = counting_memory()
        addresses = [line * 64 for line in range(8)]
        datas = [DATA ^ line for line in range(8)]
        memory.write_batch(addresses, datas, EccMode.STRONG)
        assert memory.read_batch(addresses) == datas
        memory.corrupt_stored(2 * 64, [codec.layout.field_bits + 9])
        memory.write(5 * 64, DATA, EccMode.STRONG)
        expected = list(datas)
        expected[5] = DATA
        assert memory.read_batch(addresses) == expected
        assert [len(words) for words in codec.batches] == [8, 2]
        # Line 2's correction was written back; only that word changed.
        assert memory.read_batch(addresses) == expected
        assert [len(words) for words in codec.batches] == [8, 2, 1]
        memory.read_batch(addresses)
        assert [len(words) for words in codec.batches] == [8, 2, 1]
        assert memory.counters.reads == 32
        assert memory.counters.corrected_bits == 1

    def test_upgrade_batch_reuses_cached_decodes(self):
        memory, codec = counting_memory()
        addresses = [line * 64 for line in range(6)]
        datas = [DATA ^ (line << 9) for line in range(6)]
        memory.write_batch(addresses, datas, EccMode.WEAK)
        memory.read_batch(addresses)
        assert memory.upgrade_batch(addresses) == [True] * 6
        assert [len(words) for words in codec.batches] == [6]
        assert memory.read_batch(addresses) == datas
        assert [len(words) for words in codec.batches] == [6, 6]
        assert memory.counters.upgrades == 6


class TestLineRngOnGrowthOnly:
    def test_functional_memory_builds_an_rng_per_growth(self):
        faults = hot_faults(seed=2, cls=CountingFaults)
        memory = FunctionalMemory(faults=faults)
        memory.set_refresh_period(1.024)
        memory.write(0, DATA, EccMode.STRONG)
        memory.write(64, DATA, EccMode.STRONG)
        memory.advance_time(2.0)
        memory.read(0)
        memory.read_batch([0, 64])
        assert faults.rng_lines == [0, 1]
        for _ in range(3):  # same period: the populations are sampled
            memory.advance_time(2.0)
            memory.read(0)
            memory.read_batch([0, 64])
        assert faults.rng_lines == [0, 1]
        memory.advance_time(2.0)
        memory.set_refresh_period(4.096)  # settles at 1.024 s: no growth
        assert faults.rng_lines == [0, 1]
        memory.advance_time(5.0)
        memory.read_batch([64, 0])
        assert faults.rng_lines == [0, 1, 1, 0]
        memory.advance_time(5.0)
        memory.read(0)
        assert faults.rng_lines == [0, 1, 1, 0]

    def test_no_ecc_memory_builds_an_rng_per_growth(self):
        faults = hot_faults(seed=2, cls=CountingFaults)
        memory = NoEccMemory(faults=faults)
        memory.set_refresh_period(1.024)
        memory.write(0, DATA)
        for _ in range(3):
            memory.advance_time(2.0)
            memory.read(0)
        assert faults.rng_lines == [0]
        memory.set_refresh_period(4.096)
        memory.advance_time(5.0)
        memory.read(0)
        assert faults.rng_lines == [0, 0]

    def test_retention_decay_matches_an_always_extended_state(self):
        faults = hot_faults(seed=4, anchor_ber=0.05)
        lazy, eager = faults.line_state(), faults.line_state()
        for f in (0.01, 0.01, 0.03, 0.02, 0.03, 0.08):
            eager.extend(f, faults.rng_for_line(9))
            assert faults.retention_decay(lazy, 9, f) == eager.decayed_cells(f)
        assert lazy.sampled_f == eager.sampled_f == 0.08


class TestSameOutcomesWithoutTheCache:
    """The cached memory reproduces an always-decoding memory exactly."""

    def test_functional_exhibit_rows(self, monkeypatch):
        import repro.functional.session as session

        cached = get_exhibit("functional").build()
        monkeypatch.setattr(session, "FunctionalMemory", UncachedMemory)
        uncached = get_exhibit("functional").build()
        assert cached.rows == uncached.rows

    def test_chaos_campaign_report(self, monkeypatch):
        import repro.chaos.system as system

        cached = ChaosCampaign(trials=80, seed=0).run()
        monkeypatch.setattr(system, "FunctionalMemory", UncachedMemory)
        uncached = ChaosCampaign(trials=80, seed=0).run()
        assert cached == uncached
        assert cached.render_table() == uncached.render_table()
