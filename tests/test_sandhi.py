from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from versechant.sandhi import (
    apply_all,
    correct_anusvara,
    correct_hn,
    correct_visarga_aspirate,
    correct_visarga_sibilant,
)
from versechant.transliteration import tokenize

from conftest import random_text


def chant_form(text: str) -> str:
    return apply_all(tokenize(text)).text()


def test_hn_metathesis():
    assert chant_form("vahni") == "vanhi"
    # only within a word
    assert chant_form("saha nata") == "saha nata"
    # every h moves past every n after it in one pass
    assert correct_hn(tokenize("ahhnna")).text() == "annhha"


def test_hn_fixed_point_on_chains():
    stream = tokenize("ahnna")
    once = correct_hn(stream)
    assert correct_hn(once).text() == once.text()


def test_anusvara_class_nasal():
    assert chant_form("saṃgīta") == "saṅgīta"
    assert chant_form("saṃjaya") == "sañjaya"
    assert chant_form("saṃtoṣa") == "santoṣa"
    assert chant_form("saṃbodhi") == "sambodhi"
    assert chant_form("samnyāsa") == "sannyāsa"


def test_anusvara_unchanged_before_non_stops():
    # semivowels, sibilants, h leave the anusvara alone
    assert chant_form("saṃsāra") == "saṃsāra"
    assert chant_form("saṃyoga") == "saṃyoga"
    assert chant_form("siṃha") == "siṃha"


def test_anusvara_word_internal_only():
    assert chant_form("gurūṇāṃ caraṇā") == "gurūṇāṃ caraṇā"


def test_visarga_before_sibilant_merges_words():
    stream = apply_all(tokenize("namaḥ śivāya"))
    assert stream.text() == "namaśśivāya"
    assert not stream.word_breaks
    assert chant_form("namaḥ ṣaṇmukhāya") == "namaṣṣaṇmukhāya"
    assert chant_form("namaḥ sūryāya") == "namassūryāya"


def test_visarga_unchanged_otherwise():
    assert chant_form("rāmaḥ gacchati") == "rāmaḥ gacchati"
    assert chant_form("namaḥ te") == "namaḥ te"


def test_visarga_aspirate_allophones():
    assert chant_form("duḥkham") == "duzkham"
    assert chant_form("namaḥ pitre") == "namaf pitre"
    assert chant_form("naraḥ khanati") == "naraz khanati"
    assert chant_form("tapaḥ phalam") == "tapaf phalam"
    # the word break survives, unlike the sibilant merge
    stream = apply_all(tokenize("namaḥ pitre"))
    assert len(stream.word_spans()) == 2


def test_rules_compose():
    assert chant_form("vahniḥ khalu") == "vanhiz khalu"


def test_letter_count_preserved():
    rng = random.Random(7)
    for _ in range(200):
        stream = tokenize(random_text(rng))
        assert len(apply_all(stream)) == len(stream)


def test_apply_all_idempotent():
    rng = random.Random(20260819)
    for _ in range(500):
        stream = tokenize(random_text(rng))
        once = apply_all(stream)
        twice = apply_all(once)
        assert twice.letters == once.letters
        assert twice.word_breaks == once.word_breaks


def test_each_pass_idempotent_on_goldens():
    for text, fn in [
        ("vahni", correct_hn),
        ("ahhnna", correct_hn),
        ("saṃgīta", correct_anusvara),
        ("namaḥ śivāya", correct_visarga_sibilant),
        ("duḥkham", correct_visarga_aspirate),
    ]:
        once = fn(tokenize(text))
        assert fn(once).text() == once.text()


# Texts aimed at each rule's trigger: fragments around h + n, ṃ/m + a
# stop, ḥ + a sibilant across a break, and ḥ + k/kh/p/ph.  Spaces make
# one-letter words, so a trigger can also straddle or chain over breaks.
TRIGGER_FRAGMENTS = {
    "hn": ["a", "i", "h", "n", "hn", "hhn", "hnn", " "],
    "anusvara": ["a", "ā", "ṃ", "m", "k", "g", "ṅ", "c", "ñ", "ṭ", "ṇ", "t", "d", "n", "p", "b", "s", "y", " "],
    "sibilant": ["a", "ḥ", "ś", "ṣ", "s", "ḥ ", " ś", " ", "aḥ"],
    "aspirate": ["a", "u", "ḥ", "k", "kh", "p", "ph", " ", "aḥ "],
}
texts = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: random_text(random.Random(seed))),
    *(
        st.lists(st.sampled_from(frags), max_size=14).map("".join)
        for frags in TRIGGER_FRAGMENTS.values()
    ),
)


@pytest.mark.parametrize(
    "correct",
    [correct_hn, correct_anusvara, correct_visarga_sibilant, correct_visarga_aspirate, apply_all],
)
@settings(max_examples=300, deadline=None)
@given(text=texts)
@example(text="saṃṃkha")  # a run of nasals before a stop
@example(text="aḥ ḥ śa")  # a chain of ḥ words before a sibilant
def test_pass_applied_twice_equals_once(correct, text):
    once = correct(tokenize(text))
    twice = correct(once)
    assert twice.letters == once.letters
    assert twice.word_breaks == once.word_breaks
