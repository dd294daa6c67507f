from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versechant.alphabet import LETTERS, classify
from versechant.errors import MalformedTail, NoVowelInWord
from versechant.sandhi import apply_all
from versechant.transliteration import LetterStream, tokenize
from versechant.units import split_into_units

from conftest import (
    Q1_UNITS,
    Q2_UNITS,
    Q3_UNITS,
    Q4_UNITS,
    SAMPLE_VERSE,
    random_text,
)


def split_texts(text: str) -> list[str]:
    return [u.text for u in split_into_units(tokenize(text))]


def test_golden_words():
    assert split_texts("vande") == ["van", "de"]
    assert split_texts("gurūṇām") == ["gu", "rū", "ṇām"]
    assert split_texts("kārtsnyam") == ["kārt", "snyam"]
    assert split_texts("kāryam") == ["kār", "yam"]
    assert split_texts("ajñā") == ["a", "jñā"]
    assert split_texts("sapriyaḥ") == ["sa", "pri", "yaḥ"]
    assert split_texts("brahma") == ["bra", "hma"]
    # kṣ moves whole to the next unit, as jñ does
    assert split_texts("akṣara") == ["a", "kṣa", "ra"]
    assert split_texts("lakṣmī") == ["la", "kṣmī"]


def test_more_coda_shapes():
    # tail markers close the unit at once
    assert split_texts("saṃskāra") == ["saṃ", "skā", "ra"]
    assert split_texts("duzkham") == ["duz", "kham"]
    assert split_texts("namaf") == ["na", "maf"]
    # single consonant before a vowel moves right
    assert split_texts("gacchati") == ["gac", "cha", "ti"]
    # plain conjunct keeps its first consonant
    assert split_texts("vande gurūṇāṃ") == ["van", "de", "gu", "rū", "ṇāṃ"]


def test_r_carries_following_consonant():
    # r + consonant + consonant: both stay in the coda
    assert split_texts("kārtsnyam")[0] == "kārt"
    # r + consonant + vowel: only the r stays
    assert split_texts("kāryam")[0] == "kār"
    assert split_texts("sarva") == ["sar", "va"]
    # r + vowel is a plain onset for the next unit
    assert split_texts("cara") == ["ca", "ra"]


def test_light_cluster_exceptions_need_short_nucleus():
    # short nucleus + pr/br/kr or h: cluster moves whole to the next unit
    assert split_texts("sapriyaḥ")[0] == "sa"
    assert split_texts("abrava") == ["a", "bra", "va"]
    assert split_texts("cakra") == ["ca", "kra"]
    assert split_texts("brahma")[1] == "hma"
    # long nucleus keeps the first consonant instead
    assert split_texts("kāpra") == ["kāp", "ra"]
    assert split_texts("sāhasa") == ["sā", "ha", "sa"]


def test_word_final_flags():
    units = split_into_units(tokenize("vande gurūṇām"))
    assert [u.word_final for u in units] == [False, True, False, False, True]


def test_trailing_letters_join_last_unit():
    units = split_into_units(tokenize("kārtsnyam"))
    assert units[-1].text == "snyam"
    assert units[-1].word_final


def test_sample_verse_quarters():
    from versechant.transliteration import split_quarters

    expected = [Q1_UNITS, Q2_UNITS, Q3_UNITS, Q4_UNITS]
    for chunk, want in zip(split_quarters(SAMPLE_VERSE), expected):
        stream = apply_all(tokenize(chunk))
        assert [u.text for u in split_into_units(stream)] == want


def test_diphthong_fusion_on_manual_stream():
    # a followed by a vowel i/u letter fuses into the diphthong nucleus
    letters = (classify("t"), classify("a"), classify("i"))
    stream = LetterStream(letters, frozenset())
    units = split_into_units(stream)
    assert [u.text for u in units] == ["tai"]
    assert units[0].vowel.text == "ai"


def test_hiatus_without_fusion():
    letters = (classify("t"), classify("a"), classify("e"))
    stream = LetterStream(letters, frozenset())
    assert [u.text for u in split_into_units(stream)] == ["ta", "e"]


def test_no_vowel_in_word():
    with pytest.raises(NoVowelInWord) as info:
        split_into_units(tokenize("vande t"))
    assert info.value.word_index == 1


def test_malformed_tails():
    # marker cannot open a unit
    with pytest.raises(MalformedTail):
        split_into_units(tokenize("ṃa"))
    # letters after a closed tail with no vowel left
    with pytest.raises(MalformedTail):
        split_into_units(tokenize("saṃs"))


def assert_split_law(stream: LetterStream, units) -> None:
    """Each word's units join back to its letters, each unit holds
    exactly one vowel, and no onset holds a tail marker."""
    rebuilt = []
    word = []
    for u in units:
        word.append(u.text)
        if u.word_final:
            rebuilt.append("".join(word))
            word = []
    words = [
        "".join(l.text for l in stream.letters[a:b]) for a, b in stream.word_spans()
    ]
    assert rebuilt == words
    for u in units:
        assert u.vowel.is_vowel
        assert not any(l.is_vowel for l in u.pre_vowel)
        assert not any(l.is_vowel for l in u.post_vowel)
        assert not any(l.is_tail_marker for l in u.pre_vowel)


def test_lossless_split_random():
    rng = random.Random(99)
    for _ in range(500):
        stream = tokenize(random_text(rng))
        assert_split_law(stream, split_into_units(stream))


# every letter once, plus extra weight on the letters the cut rule names,
# so tail markers, hiatus, a + i/u pairs and vowel-less words all occur
_POOL = tuple(LETTERS.values()) + tuple(
    classify(t) for t in "a a a a a a i i u u ā e ṃ ḥ r r h k ṣ j ñ p b".split()
)


@st.composite
def letter_streams(draw):
    letters = tuple(draw(st.lists(st.sampled_from(_POOL), max_size=14)))
    positions = st.integers(1, max(1, len(letters) - 1))
    breaks = draw(st.sets(positions, max_size=4)) if len(letters) > 1 else set()
    return LetterStream(letters, frozenset(breaks))


@settings(max_examples=500, deadline=None)
@given(stream=letter_streams())
def test_split_law_on_arbitrary_letters(stream):
    try:
        units = split_into_units(stream)
    except (NoVowelInWord, MalformedTail) as exc:
        # the failure names a word that breaks the rule it reports
        start, end = stream.word_spans()[exc.word_index]
        word = stream.letters[start:end]
        if isinstance(exc, NoVowelInWord):
            assert not any(l.is_vowel for l in word)
        else:
            assert any(l.is_tail_marker for l in word)
        return
    assert_split_law(stream, units)
