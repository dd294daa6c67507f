"""Acceptance suite: eight binding checks on the full engine.

Each test prints one ACCEPTANCE line, pass or fail, and uses only
values fixed by hand ahead of the implementation (see conftest) or
computed by independent oracles inside the test body.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from versechant.dsp import crossfade_frames, pitch_shift, read_wav, stretch_to_length
from versechant.prosody import Weight, load_metre_db, weigh_units
from versechant.sandhi import apply_all
from versechant.synthesis import Config, TimedUnit, synthesize
from versechant.transliteration import split_quarters, tokenize
from versechant.units import Unit, split_into_units

from conftest import (
    ANUSTUP_Q13,
    ANUSTUP_Q24,
    Q1_T,
    Q1_UNITS,
    Q1_V,
    SAMPLE_VERSE,
    VAJRA_Q13,
    VAJRA_Q24,
    fft_peak_hz,
    random_text,
    sine_clip,
)


@contextmanager
def report(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def split_texts(text: str) -> list[str]:
    return [u.text for u in split_into_units(apply_all(tokenize(text)))]


def test_acceptance_1_unit_split_golden_set():
    with report(1, "unit split golden set"):
        start = time.perf_counter()
        quarter1 = split_quarters(SAMPLE_VERSE)[0]
        assert split_texts(quarter1) == Q1_UNITS
        assert split_texts("kārtsnyam") == ["kārt", "snyam"]
        assert split_texts("kāryam") == ["kār", "yam"]
        assert split_texts("ajñā") == ["a", "jñā"]
        assert split_texts("sapriyaḥ") == ["sa", "pri", "yaḥ"]
        assert split_texts("gurūṇām")[0] == "gu"
        assert time.perf_counter() - start < 1.0


def test_acceptance_2_weight_vectors():
    with report(2, "weight vectors and beat totals"):
        quarter1 = split_quarters(SAMPLE_VERSE)[0]
        weighted = weigh_units(split_into_units(apply_all(tokenize(quarter1))))
        assert [int(w.contextual) for w in weighted] == Q1_V
        assert [int(w.isolated) for w in weighted] == Q1_T
        # independent beat-total oracle: sum of (weight + 1)
        te = sum(v + 1 for v in Q1_V)
        ta = sum(t + 1 for t in Q1_T)
        assert te == 18
        assert ta == 16


def test_acceptance_3_sandhi_corrections():
    with report(3, "sandhi corrections"):
        def chant(text: str) -> str:
            return apply_all(tokenize(text)).text()

        assert chant("vahni") == "vanhi"
        assert chant("samnyāsa") == "sannyāsa"
        merged = apply_all(tokenize("namaḥ śivāya"))
        assert merged.text() == "namaśśivāya"
        assert len(merged.word_spans()) == 1
        assert chant("duḥkham") == "duzkham"
        assert chant("namaḥ pitre") == "namaf pitre"


def test_acceptance_4_pitch_tables():
    with report(4, "metre pitch tables"):
        records = {r.name: r for r in load_metre_db()}
        assert records["Anuṣṭup"].pitch_q13 == ANUSTUP_Q13
        assert records["Anuṣṭup"].pitch_q24 == ANUSTUP_Q24
        assert records["Upajāti"].pitch_q13 == VAJRA_Q13
        assert records["Upajāti"].pitch_q24 == VAJRA_Q24
        for record in records.values():
            for row in (record.pitch_q13, record.pitch_q24):
                assert all(-7 <= p <= 4 for p in row)


def test_acceptance_5_dsp_laws():
    with report(5, "pitch shift and stretch laws"):
        start = time.perf_counter()
        clip = sine_clip(440.0, 1.0)
        for s in range(-7, 5):
            shifted = pitch_shift(clip, s)
            assert abs(shifted.n_frames - clip.n_frames) <= 1
            want = 440.0 * 2.0 ** (s / 12.0)
            got = fft_peak_hz(shifted.samples, shifted.sample_rate)
            assert abs(got - want) / want < 0.01, f"semitone {s}: {got} vs {want}"
        doubled = stretch_to_length(clip, round(clip.n_frames * 2.0))
        assert abs(doubled.n_frames - 2 * clip.n_frames) <= 1
        got = fft_peak_hz(doubled.samples, doubled.sample_rate)
        assert abs(got - 440.0) / 440.0 < 0.01
        assert time.perf_counter() - start < 10.0


def test_acceptance_6_beat_conservation():
    with report(6, "beat conservation"):
        rng = random.Random(20260819)
        pairs = 0
        while pairs < 1000:
            n = rng.randint(1, 24)
            pairs += n
            timed = []
            for _ in range(n):
                t = rng.randint(0, 1)
                v = max(t, rng.randint(0, 1))
                unit = Unit((), tokenize("a").letters[0], (), rng.random() < 0.4)
                timed.append(TimedUnit(unit, Weight(t), Weight(v), 0))
            rendered = sum(tu.render_beats + tu.trailing_silence_beats for tu in timed)
            expected = sum(int(tu.contextual) + 1 for tu in timed)
            assert rendered == expected
        assert pairs >= 1000


def test_acceptance_7_end_to_end_duration(tmp_path):
    with report(7, "end-to-end duration"):
        start = time.perf_counter()
        out = tmp_path / "verse.wav"
        result = synthesize(SAMPLE_VERSE, Config(), out_path=out)
        assert result.plan.analysis.metre.name == "Upajāti"
        # 4 quarters, one caesura rest each, beat 0.5 s
        beats = result.plan.total_beats
        assert beats == sum(q.expected_beats for q in result.plan.quarters) + 4
        want = int(round(beats * 0.5 * 44100))
        got = read_wav(out).n_frames
        budget = result.joins * crossfade_frames(44100)
        assert abs(want - got) <= budget
        assert time.perf_counter() - start < 30.0


def test_acceptance_8_lossless_split():
    with report(8, "lossless unit split"):
        rng = random.Random(424242)
        for _ in range(1000):
            stream = tokenize(random_text(rng))
            units = split_into_units(stream)
            # concatenation, word by word, rebuilds the stream text
            rebuilt = []
            word = []
            for u in units:
                word.append(u.text)
                if u.word_final:
                    rebuilt.append("".join(word))
                    word = []
            assert not word
            assert " ".join(rebuilt) == stream.text()
            # exactly one vowel nucleus per unit
            for u in units:
                assert u.vowel.is_vowel
                assert not any(l.is_vowel for l in u.pre_vowel)
                assert not any(l.is_vowel for l in u.post_vowel)
