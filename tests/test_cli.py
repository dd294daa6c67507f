from __future__ import annotations

import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from versechant.cli import main
from versechant.dsp import read_wav

from conftest import (
    Q1_UNITS, Q2_UNITS, Q3_UNITS, Q4_UNITS, Q1_T, Q1_V, SAMPLE_VERSE, beat_request,
    iast_to_devanagari, mono16_wav,
)


def run_cli(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_units_subcommand():
    code, out, err = run_cli(["units", SAMPLE_VERSE])
    assert code == 0
    assert out.splitlines() == Q1_UNITS + Q2_UNITS + Q3_UNITS + Q4_UNITS


def test_scan_metre_and_totals():
    code, out, _ = run_cli(["scan", SAMPLE_VERSE])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "metre: Upajāti"
    assert "T_E=18 T_A=16" in lines[1]


def test_scan_weight_columns():
    code, out, _ = run_cli(["scan", SAMPLE_VERSE])
    assert code == 0
    lines = out.splitlines()
    # quarter 1 table: 11 unit rows after the header
    rows = [l.split() for l in lines[3 : 3 + 11]]
    assert [r[0] for r in rows] == Q1_UNITS
    assert [int(r[1]) for r in rows] == Q1_T
    assert [int(r[2]) for r in rows] == Q1_V
    # pitch column follows the metre row for quarter 1
    assert [int(r[3]) for r in rows] == [0, 0, 1, 2, 2, 0, 0, 1, -1, 0, -1]
    # rendered beats: v + 1 each
    assert [int(r[4]) for r in rows] == [v + 1 for v in Q1_V]


def test_scan_reads_stdin(monkeypatch):
    code, out, _ = run_cli(["scan", "-"], stdin_text=SAMPLE_VERSE, monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines()[0] == "metre: Upajāti"
    # a leading byte-order mark is dropped
    marked = run_cli(["scan", "-"], stdin_text="\ufeff" + SAMPLE_VERSE, monkeypatch=monkeypatch)
    assert marked == (0, out, "")


def test_scan_reads_file(tmp_path):
    path = tmp_path / "verse.txt"
    path.write_text(SAMPLE_VERSE, encoding="utf-8")
    code, out, _ = run_cli(["scan", str(path)])
    assert code == 0
    assert out.splitlines()[0] == "metre: Upajāti"
    # a file that starts with a byte-order mark reads as the same text,
    # in either script
    for text in (SAMPLE_VERSE, iast_to_devanagari(SAMPLE_VERSE.replace("|", ""))):
        for command in ("scan", "units"):
            path.write_text(text, encoding="utf-8")
            plain = run_cli([command, str(path)])
            path.write_text(text, encoding="utf-8-sig")
            assert path.read_bytes().startswith(b"\xef\xbb\xbf")
            assert run_cli([command, str(path)]) == plain
            assert plain[0] == 0


def test_synth_writes_wav(tmp_path):
    out_path = tmp_path / "chant.wav"
    code, out, err = run_cli(
        ["synth", SAMPLE_VERSE, str(out_path), "--beat", "0.25"]
    )
    assert code == 0
    assert out.strip() == str(out_path)
    assert "metre: Upajāti" in err
    clip = read_wav(out_path)
    assert clip.sample_rate == 44100
    # 75 beats at 0.25 s: the crossfades take no frames
    assert clip.n_frames == 75 * 11025


def test_synth_exact_length(tmp_path):
    # beat of 0.2 s at 22050 Hz is a whole 4410 frames, so no rounding
    out_path = tmp_path / "chant.wav"
    code, _, _ = run_cli(
        ["synth", SAMPLE_VERSE, str(out_path), "--beat", "0.2", "--rate", "22050"]
    )
    assert code == 0
    clip = read_wav(out_path)
    assert clip.sample_rate == 22050
    assert clip.n_frames == 75 * 4410


def test_no_crossfade_is_a_usage_error(tmp_path):
    # every render crossfades its joins; the flag that turned that off is gone
    err = io.StringIO()
    with pytest.raises(SystemExit) as info, redirect_stderr(err):
        main(["synth", SAMPLE_VERSE, str(tmp_path / "o.wav"), "--no-crossfade"])
    assert info.value.code == 2
    assert "unrecognized arguments: --no-crossfade" in err.getvalue()
    assert not (tmp_path / "o.wav").exists()


def test_empty_input_is_usage_error(monkeypatch):
    code, _, err = run_cli(["scan", "-"], stdin_text="   ", monkeypatch=monkeypatch)
    assert code == 2
    assert "empty" in err


def test_pipeline_error_exit_code():
    code, _, err = run_cli(["scan", "vande q ||"])
    assert code == 1
    assert err.startswith("error")
    assert "tokenize" in err


def test_unmatched_metre_exit_and_flag():
    code, _, err = run_cli(["scan", "vande gurūṇām"])
    assert code == 1
    assert "metre" in err
    code, out, _ = run_cli(["scan", "vande gurūṇām", "--no-require-metre"])
    assert code == 0
    assert out.splitlines()[0] == "metre: none"


def test_promotion_flag_changes_weights():
    _, out_default, _ = run_cli(["scan", "sapriyaḥ tat", "--no-require-metre"])
    _, out_promoted, _ = run_cli(
        ["scan", "sapriyaḥ tat", "--no-require-metre", "--promote-prbrkrh"]
    )
    row_default = out_default.splitlines()[3].split()
    row_promoted = out_promoted.splitlines()[3].split()
    assert row_default[0] == row_promoted[0] == "sa"
    assert int(row_default[2]) == 0
    assert int(row_promoted[2]) == 1


def test_devanagari_flag_and_autodetect():
    code, out, _ = run_cli(["units", "वन्दे"])
    assert code == 0
    assert out.splitlines() == ["van", "de"]
    # a danda alone does not make romanized text Devanagari
    code, out, _ = run_cli(["units", "vande ।"])
    assert code == 0
    assert out.splitlines() == ["van", "de"]
    # nor does "|" keep Devanagari text from being read
    with_pipes = run_cli(["units", "वन्दे गुरूणां | नमः ||"])
    assert with_pipes == run_cli(["units", "वन्दे गुरूणां । नमः ॥"])
    assert with_pipes[0] == 0


def test_metre_db_flag(tmp_path):
    db = tmp_path / "own.txt"
    records = "name: pair\nsyllables: 2 3 2 3\npitch_q13: 0 1\npitch_q24: 0 1 0\n"
    db.write_text(records, encoding="utf-8")
    argv = ["scan", "vande gurūṇāṃ gata ayana", "--metre-db", str(db)]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert out.splitlines()[0] == "metre: pair"
    # a database that starts with a byte-order mark reads the same
    db.write_text(records, encoding="utf-8-sig")
    assert run_cli(argv) == (0, out, "")


def test_clips_flag(tmp_path):
    from versechant.audio_store import SyntheticVoice
    from versechant.dsp import write_wav
    from versechant.prosody import Weight

    for text, weight in [("van", Weight.GURU), ("de", Weight.GURU)]:
        clip = SyntheticVoice().get_clip(beat_request(text, weight, 0.5))
        write_wav(clip, tmp_path / f"{text}_{weight.tag}.wav")
    out_path = tmp_path / "out.wav"
    code, _, _ = run_cli(
        ["synth", "vande", str(out_path), "--clips", str(tmp_path),
         "--no-require-metre"]
    )
    assert code == 0
    clip = read_wav(out_path)
    assert clip.n_frames == int((2 + 2 + 1) * 0.5 * 44100)


def test_clips_flag_rejects_two_files_for_one_take(tmp_path):
    from versechant.audio_store import SyntheticVoice
    from versechant.dsp import write_wav
    from versechant.prosody import Weight

    clip = SyntheticVoice().get_clip(beat_request("van", Weight.GURU, 0.5))
    for name in ("van_g.wav", "VAN_g.wav"):
        write_wav(clip, tmp_path / name)
    code, out, err = run_cli(
        ["synth", "vande", str(tmp_path / "out.wav"), "--clips", str(tmp_path),
         "--no-require-metre"]
    )
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: clip files VAN_g.wav and van_g.wav")
    assert not (tmp_path / "out.wav").exists()


def test_clips_flag_names_every_missing_take(tmp_path, monkeypatch):
    # an empty clip directory: the one error line names all 39 takes the
    # sample verse sings, and no take is read
    from versechant import audio_store
    from versechant.synthesis import prepare

    reads = []
    monkeypatch.setattr(audio_store, "read_wav", reads.append)
    code, out, err = run_cli(
        ["synth", SAMPLE_VERSE, str(tmp_path / "out.wav"), "--clips", str(tmp_path)]
    )
    takes = {
        f"{tu.unit.text}_{'lg'[tu.render_beats - 1]}.wav"
        for q in prepare(SAMPLE_VERSE).quarters
        for tu in q.timed
    }
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert err.startswith("error [clips]: no clip for 39 takes: van_g.wav, de_g.wav, ")
    assert set(err.strip().rsplit(": ", 1)[1].split(", ")) == takes
    assert len(takes) == 39
    assert reads == []
    assert not (tmp_path / "out.wav").exists()


@pytest.mark.parametrize(
    "argv, code, fragment",
    [
        pytest.param(["scan", "vande", "--beat", "0"], 2, "beat", id="beat-zero"),
        pytest.param(["scan", "vande", "--beat", "-1"], 2, "beat", id="beat-negative"),
        pytest.param(["scan", "vande", "--beat", "nan"], 2, "beat", id="beat-nan"),
        pytest.param(
            ["scan", "vande", "--beat", "0.001"], 2, "crossfade", id="beat-under-crossfade"
        ),
        # a beat under one frame (at 100 Hz, where the crossfade rounds to
        # none), or a render past a WAV's 2^31 - 1 frames; both are refused
        # before any audio is allocated
        pytest.param(
            ["synth", SAMPLE_VERSE, "{tmp}/o.wav", "--beat", "0.004", "--rate", "100",
             "--base-freq", "5"],
            2, "shorter than one frame at 100 Hz", id="beat-under-one-frame",
        ),
        pytest.param(
            ["synth", SAMPLE_VERSE, "{tmp}/o.wav", "--beat", "1e300"], 2,
            "beat", id="beat-past-wav-size",
        ),
        pytest.param(["scan", "vande", "--rate", "0"], 2, "sample rate", id="rate-zero"),
        pytest.param(
            ["scan", "vande", "--base-freq", "5000", "--rate", "8000"], 2,
            "base frequency", id="base-freq-over-nyquist",
        ),
        pytest.param(
            ["scan", "vande", "--rate", "8000", "--base-freq", "1500"], 2,
            "base frequency", id="base-freq-harmonics-alias",
        ),
        pytest.param(["units", "vande x"], 1, "[tokenize]", id="units-bad-letter"),
        pytest.param(
            ["units", "ा"], 1,
            "[transliteration]: unsupported code point U+093E at position 0",
            id="units-stray-vowel-sign",
        ),
        # text with no verse material is a usage error, whitespace or marks
        pytest.param(["units", "||"], 2, "error: verse text is empty", id="units-empty-verse"),
        pytest.param(["scan", "||"], 2, "error: verse text is empty", id="scan-empty-verse"),
        # {tmp} is a directory of the files the test writes below
        pytest.param(
            ["scan", "vande", "--metre-db", "{tmp}/missing.txt"], 2,
            "No such file", id="metre-db-missing",
        ),
        pytest.param(
            ["scan", "vande", "--metre-db", "{tmp}"], 2,
            "Is a directory", id="metre-db-directory",
        ),
        pytest.param(
            ["synth", "vande", "{tmp}/o.wav", "--no-require-metre",
             "--clips", "{tmp}/missing"], 2,
            "clip directory {tmp}/missing is not a directory", id="clips-missing",
        ),
        pytest.param(
            ["synth", "vande", "{tmp}/o.wav", "--no-require-metre",
             "--clips", "{tmp}/latin1.txt"], 2,
            "clip directory {tmp}/latin1.txt is not a directory", id="clips-file",
        ),
        # the one line names the file that failed to decode
        pytest.param(
            ["scan", "{tmp}/latin1.txt"], 2,
            "cannot decode {tmp}/latin1.txt as UTF-8: 'utf-8' codec can't decode",
            id="text-file-not-utf8",
        ),
        pytest.param(
            ["scan", "vande", "--metre-db", "{tmp}/latin1.txt"], 2,
            "cannot decode {tmp}/latin1.txt as UTF-8: 'utf-8' codec can't decode",
            id="metre-db-not-utf8",
        ),
        pytest.param(
            ["synth", "vande", "{tmp}/missing/o.wav", "--no-require-metre"], 2,
            "No such file", id="synth-out-dir-missing",
        ),
        # {tmp}/zero holds a take whose header says 0 Hz, {tmp}/empty a
        # take of no samples; each also holds a good de_g.wav, so no
        # take of "vande" is missing
        pytest.param(
            ["synth", "vande", "{tmp}/o.wav", "--no-require-metre",
             "--clips", "{tmp}/zero"], 1,
            "error [clips]: {tmp}/zero/van_g.wav: ", id="clips-zero-rate",
        ),
        pytest.param(
            ["synth", "vande", "{tmp}/o.wav", "--no-require-metre",
             "--clips", "{tmp}/empty"], 1,
            "error [clips]: {tmp}/empty/van_g.wav: clip holds no samples",
            id="clips-empty-take",
        ),
        # malformed metre databases, each a pipeline error
        pytest.param(
            ["scan", "vande", "--metre-db", "{tmp}/caesura.txt"], 1,
            "error [metre]: m: caesura position 3 out of range", id="metre-db-caesura",
        ),
        pytest.param(
            ["scan", "vande", "--metre-db", "{tmp}/count.txt"], 1,
            "error [metre]: syllables: expected integers, got '2 2 two 2'",
            id="metre-db-count",
        ),
        pytest.param(
            ["scan", "vande", "--metre-db", "{tmp}/none.txt"], 1,
            "error [metre]: metre database holds no records", id="metre-db-no-records",
        ),
    ],
)
def test_bad_input_is_one_error_line(argv, code, fragment, tmp_path):
    (tmp_path / "latin1.txt").write_bytes("vandé".encode("latin-1"))
    (tmp_path / "zero").mkdir()
    (tmp_path / "zero" / "van_g.wav").write_bytes(mono16_wav(0, 400, bytes(400)))
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "van_g.wav").write_bytes(mono16_wav(44100, 0, b""))
    for directory in ("zero", "empty"):
        (tmp_path / directory / "de_g.wav").write_bytes(mono16_wav(44100, 400, bytes(400)))
    db = "name: m\nsyllables: 2 2 2 2\npitch_q13: 0 1\npitch_q24: 0 1\n"
    (tmp_path / "caesura.txt").write_text(db + "caesura: 3\n", encoding="utf-8")
    (tmp_path / "count.txt").write_text(
        db.replace("2 2 2 2", "2 2 two 2"), encoding="utf-8"
    )
    (tmp_path / "none.txt").write_text("# no records here\n", encoding="utf-8")
    got, out, err = run_cli([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error")
    assert fragment.replace("{tmp}", str(tmp_path)) in err


def test_front_end_error_names_its_quarter():
    code, out, err = run_cli(["scan", SAMPLE_VERSE.replace(" ||", " x ||")])
    assert code == 1
    assert out == ""
    assert err.startswith("error [tokenize] in quarter 4: ")


def test_usage_error_exit_two():
    err = io.StringIO()
    with pytest.raises(SystemExit) as info:
        with redirect_stderr(err):
            main(["scan"])  # missing the text argument
    assert info.value.code == 2
    assert "text" in err.getvalue()


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "versechant", "units", "vande"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["van", "de"]


def test_scan_into_a_closed_pipe_is_quiet(tmp_path):
    # far more output than a pipe holds, so scan is still writing when
    # the reader leaves after one line, as ``| head -1`` does
    text = tmp_path / "verses.txt"
    text.write_text("\n".join([SAMPLE_VERSE] * 200), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "versechant", "scan", "--no-require-metre", str(text)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == b"metre: none\n"
    assert err == b""
