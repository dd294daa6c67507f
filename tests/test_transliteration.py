from __future__ import annotations

import random

import pytest

from versechant.alphabet import Category, classify
from versechant.errors import UnknownCharacter, UnsupportedCodePoint
from versechant.transliteration import (
    detect_devanagari,
    devanagari_to_latin,
    normalize,
    split_quarters,
    tokenize,
)

from conftest import SAMPLE_VERSE, random_text


def letter_texts(s):
    return [l.text for l in tokenize(s).letters]


def test_longest_match_digraphs():
    assert letter_texts("kha") == ["kh", "a"]
    assert letter_texts("kaha") == ["k", "a", "h", "a"]
    assert letter_texts("ai") == ["ai"]
    assert letter_texts("bhai") == ["bh", "ai"]
    # au wins over a + u
    assert letter_texts("gaurau") == ["g", "au", "r", "au"]


def test_vocalic_liquids_and_aliases():
    # ṛ/ṝ/ḷ spellings fold to the ring-below forms
    assert letter_texts("ṛta") == letter_texts("r̥ta")
    assert letter_texts("pitṝn") == letter_texts("pitr̥̄n")
    assert letter_texts("kḷpta") == letter_texts("kl̥pta")
    assert letter_texts("r̥̄") == ["r̥̄"]
    # candrabindu and dot-above anusvara variants collapse to ṃ
    assert letter_texts("sam̐skr̥ta") == letter_texts("saṃskr̥ta")
    assert letter_texts("saṁskr̥ta") == letter_texts("saṃskr̥ta")


def test_case_folding():
    assert letter_texts("Vande") == letter_texts("vande")


def test_categories():
    assert classify("ṃ").category is Category.ANUSVARA
    assert classify("ḥ").category is Category.VISARGA
    assert classify("z").category is Category.JIHVAMULIYA
    assert classify("f").category is Category.UPADHMANIYA
    assert classify("ś").category is Category.SIBILANT
    assert classify("y").category is Category.SEMIVOWEL
    assert classify("kh").category is Category.CONSONANT
    assert classify("ai").is_vowel


def test_word_breaks():
    stream = tokenize("namaḥ śivāya")
    assert [l.text for l in stream.letters] == [
        "n", "a", "m", "a", "ḥ", "ś", "i", "v", "ā", "y", "a",
    ]
    assert set(stream.word_breaks) == {5}
    assert stream.word_spans() == [(0, 5), (5, 11)]


def test_breaks_never_at_zero_and_separators_break():
    stream = tokenize("  vande | gurūṇāṃ ")
    assert 0 not in stream.word_breaks
    assert len(stream.word_spans()) == 2


def test_render_round_trip():
    for text in ("vande", "namaḥ śivāya", "kārtsnyam", "r̥ṣi", "saṃsāra ha"):
        assert tokenize(text).text() == text


def test_render_round_trip_random():
    rng = random.Random(20260819)
    for _ in range(300):
        text = random_text(rng)
        canonical = normalize(text)
        assert tokenize(text).text() == canonical


def test_unknown_character_position():
    with pytest.raises(UnknownCharacter) as info:
        tokenize("vanqde")
    assert info.value.position == 3
    assert info.value.char == "q"


def test_stray_combining_mark_rejected():
    # a + combining macron folds to the long vowel under NFC
    stream = tokenize("ka\u0304ma")
    assert [l.text for l in stream.letters] == ["k", "ā", "m", "a"]
    # on k the macron composes with nothing and is no letter at all
    with pytest.raises(UnknownCharacter):
        tokenize("k\u0304a")


def test_split_quarters():
    assert split_quarters("a | b || c") == ["a", "b", "c"]
    assert split_quarters("one\ntwo\r\nthree") == ["one", "two", "three"]
    assert len(split_quarters(SAMPLE_VERSE)) == 4
    assert split_quarters("  ||  ") == []


# ---------------------------------------------------------------------------
# Devanagari

def test_devanagari_goldens():
    assert devanagari_to_latin("वन्दे") == "vande"
    assert devanagari_to_latin("नमः") == "namaḥ"
    assert devanagari_to_latin("गुरूणां") == "gurūṇāṃ"
    assert devanagari_to_latin("चरणारविन्दे") == "caraṇāravinde"


def test_devanagari_danda_becomes_quarter_break():
    text = devanagari_to_latin("नमः शिवाय। नमः॥")
    assert split_quarters(text) == ["namaḥ śivāya", "namaḥ"]


def test_devanagari_detection():
    assert detect_devanagari("वन्दे")
    assert detect_devanagari("vande वन्दे mixed")
    assert not detect_devanagari("vande")


def test_devanagari_virama_cluster():
    # conjunct written with explicit viramas
    assert devanagari_to_latin("स्वात्म") == "svātma"


def test_devanagari_independent_vowels():
    assert devanagari_to_latin("अहम् इति") == "aham iti"


def test_devanagari_rejects_avagraha():
    with pytest.raises(UnsupportedCodePoint) as info:
        devanagari_to_latin("सोऽहम्")
    assert info.value.position == 2


def test_devanagari_rejects_digits():
    with pytest.raises(UnsupportedCodePoint):
        devanagari_to_latin("वन्दे १")


def test_devanagari_output_tokenizes():
    text = devanagari_to_latin("वन्दे गुरूणां चरणारविन्दे")
    assert tokenize(text).text() == "vande gurūṇāṃ caraṇāravinde"
