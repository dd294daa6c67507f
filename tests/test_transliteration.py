from __future__ import annotations

import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versechant.alphabet import LETTERS, Category, classify
from versechant.errors import UnknownCharacter, UnsupportedCodePoint
from versechant.transliteration import (
    detect_devanagari,
    devanagari_to_latin,
    normalize,
    split_quarters,
    tokenize,
)

from versechant.synthesis import prepare, split_text

from conftest import (
    DEVA_CONSONANTS,
    DEVA_MARKS,
    DEVA_SIGNS,
    DEVA_VOWELS,
    SAMPLE_VERSE,
    VIRAMA,
    iast_to_devanagari,
    random_text,
)


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


def is_gap(ch):
    return ch.isspace() or ch in "|।॥"


ROMAN_PIECES = sorted(LETTERS) + [
    "ṛ", "ṝ", "ḷ", "ṁ", "m̐",  # alias spellings
    "A", "Kh", "Ā", "Ṛ", "AU",  # uppercase
    "\u0304", "\u0325", "\u0310", "\u0307",  # stray combining marks
    " ", "\u00a0", "\u2028", "\u001c", "\t", "|", "।", "॥",  # gaps
    "q", "x", "1", "-", "é", "ॐ",  # junk
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(ROMAN_PIECES), max_size=14).map("".join))
def test_tokenize_is_the_greedy_longest_letter_scan(text):
    s = normalize(text)
    # the scan written out: skip gaps, else take the longest letter text
    want, bad, i = [], None, 0
    while i < len(s) and bad is None:
        found = [t for t in LETTERS if s.startswith(t, i)]
        if is_gap(s[i]):
            i += 1
        elif found:
            want.append(max(found, key=len))
            i += len(want[-1])
        else:
            bad = i
    if bad is None:
        stream = tokenize(text)
        assert [l.text for l in stream.letters] == want
        # one space per gap run rebuilds the stripped, collapsed text
        assert stream.text() == " ".join("".join(" " if is_gap(c) else c for c in s).split())
    else:
        with pytest.raises(UnknownCharacter) as info:
            tokenize(text)
        assert (info.value.position, info.value.char) == (bad, s[bad])


def test_dandas_work_in_romanized_text():
    assert not detect_devanagari("vande । gurūṇāṃ ॥")
    assert split_quarters("a । b ॥ c") == ["a", "b", "c"]
    assert tokenize("vande।gurūṇāṃ॥").text() == "vande gurūṇāṃ"
    for verse in (SAMPLE_VERSE, "vande gurūṇāṃ | caraṇāravinde ||"):
        with_dandas = verse.replace("||", "॥").replace("|", "।")
        assert split_text(with_dandas) == split_text(verse)


def test_pipes_work_in_devanagari_text():
    assert tokenize(devanagari_to_latin("वन्दे|गुरूणां||")).text() == "vande gurūṇāṃ"
    q = [iast_to_devanagari(part) for part in split_quarters(SAMPLE_VERSE)]
    with_dandas = f"{q[0]}\n{q[1]} ।\n{q[2]}\n{q[3]} ॥"
    with_pipes = with_dandas.replace("॥", "||").replace("।", "|")
    assert split_text(with_pipes) == split_text(with_dandas) == split_text(SAMPLE_VERSE)
    assert split_text("वन्दे गुरूणां | नमः ||") == split_text("वन्दे गुरूणां । नमः ॥")


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


def test_devanagari_reads_avagraha_as_a_word_break():
    # the avagraha marks an elided a, no letter and no syllable; IAST
    # spells it ' or ’, and either script reads it as a word break
    assert devanagari_to_latin("सोऽहम्") == "so ham"
    assert tokenize("so'ham") == tokenize("so’ham") == tokenize("so ham")


# Bhagavad Gītā 2.47, a pathyā śloka with an avagraha in its last quarter
GITA_2_47 = (
    "karmaṇyevādhikāraste mā phaleṣu kadācana |\n"
    "mā karmaphalaheturbhūrmā te saṅgo'stvakarmaṇi ||"
)
GITA_2_47_DEVANAGARI = (
    "कर्मण्येवाधिकारस्ते मा फलेषु कदाचन ।\n"
    "मा कर्मफलहेतुर्भूर्मा ते सङ्गोऽस्त्वकर्मणि ॥"
)
# its contextual weights, checked by hand (1 heavy, 0 light)
GITA_2_47_WEIGHTS = [
    [1, 1, 1, 1, 0, 1, 1, 1],  # kar maṇ ye vā dhi kā ras te
    [1, 0, 1, 0, 0, 1, 0, 0],  # mā pha le ṣu ka dā ca na
    [1, 1, 0, 0, 0, 1, 1, 1],  # mā kar ma pha la he tur bhūr
    [1, 1, 1, 1, 0, 1, 0, 0],  # mā te saṅ go stva kar ma ṇi
]


def test_gita_2_47_scans_as_anustup_in_both_scripts():
    # each spelling of the avagraha plans as the text with a space for it
    spaced = prepare(GITA_2_47.replace("'", " "))
    assert spaced.analysis.metre.name == "Anuṣṭup"
    weights = [[int(tu.contextual) for tu in q.timed] for q in spaced.quarters]
    assert weights == GITA_2_47_WEIGHTS
    for text in (
        GITA_2_47,
        GITA_2_47.replace("'", "’"),
        GITA_2_47_DEVANAGARI,
        GITA_2_47_DEVANAGARI.replace("ऽ", " "),
    ):
        assert prepare(text) == spaced


def test_devanagari_rejects_digits():
    with pytest.raises(UnsupportedCodePoint):
        devanagari_to_latin("वन्दे १")


@pytest.mark.parametrize(
    "text, position", [("अ्", 1), ("ा", 0), ("क््", 2), ("कि्", 2), ("नमः ा", 4)]
)
def test_devanagari_rejects_a_stray_virama_or_vowel_sign(text, position):
    with pytest.raises(UnsupportedCodePoint) as info:
        devanagari_to_latin(text)
    assert (info.value.position, info.value.char) == (position, text[position])


DEVA_CONSONANT_SET = set(DEVA_CONSONANTS.values())
DEVA_MARK_SET = {sign for sign in DEVA_SIGNS.values() if sign} | {VIRAMA}
DEVA_TABLED = (
    DEVA_CONSONANT_SET | DEVA_MARK_SET | set(DEVA_VOWELS.values())
    | set(DEVA_MARKS.values()) | {"ँ", "ऽ", "।", "॥", "|"}  # candrabindu, avagraha, dandas
)
DEVA_PIECES = sorted(DEVA_TABLED) + [
    " ", "\n", "\u00a0", "०", "१", "़", "ॐ", "v",  # digits, nukta
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(DEVA_PIECES), max_size=12).map("".join))
def test_devanagari_converts_or_names_the_first_bad_code_point(text):
    s = unicodedata.normalize("NFC", text)

    def bad(p):
        stray = s[p] in DEVA_MARK_SET and (p == 0 or s[p - 1] not in DEVA_CONSONANT_SET)
        return stray or not (s[p] in DEVA_TABLED or s[p].isspace())

    first_bad = next((p for p in range(len(s)) if bad(p)), None)
    if first_bad is None:
        tokenize(devanagari_to_latin(text))
    else:
        with pytest.raises(UnsupportedCodePoint) as info:
            devanagari_to_latin(text)
        assert info.value.position == first_bad
        devanagari_to_latin(s[:first_bad])


def test_devanagari_output_tokenizes():
    text = devanagari_to_latin("वन्दे गुरूणां चरणारविन्दे")
    assert tokenize(text).text() == "vande gurūṇāṃ caraṇāravinde"


def test_iast_to_devanagari_helper():
    assert iast_to_devanagari("vande gurūṇāṃ") == "वन्दे गुरूणां"
    assert iast_to_devanagari("r̥ṣiḥ kr̥t") == "ऋषिः कृत्"
    assert iast_to_devanagari("aiśvaryam") == "ऐश्वर्यम्"


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), lines=st.integers(1, 4))
def test_devanagari_and_its_iast_give_the_same_units(rng, lines):
    iast = "\n".join(random_text(rng) for _ in range(lines))
    assert split_text(iast_to_devanagari(iast)) == split_text(iast)
