"""Self-test of the benchmark: corrupted outputs count as failures.

    python3 bench/selftest.py

Each case injects one defect into the program, in this process only,
and runs a few operations through the benchmark's own loop; every
operation the defect touches must be counted as failed.  The test also
checks that a wrapped name that no longer exists leaves its layer
unmeasured instead of crashing, and that BENCHMARK.json, run.py and
interactions.json name the same workloads and metrics.  Exits 0 when
every case holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from contextlib import contextmanager

import run
import spans
import verses

vc = run.load_program()
SEED = 7
WORK = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"


@contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def tally(workload: str, indices, make=None) -> run.Tally:
    """Run the given inputs of a workload; ``make`` replaces its inputs."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    wl = run.Workload(workload, SEED, WORK, vc)
    if make is not None:
        wl.make = make
    t = run.Tally()
    for i in indices:
        t.run(wl, wl.make(i))
    return t


def require(condition: bool, why) -> None:
    if not condition:
        raise AssertionError(why)


def expect_counts(name: str, t: run.Tally, attempted: int, failed: int) -> None:
    got = (t.attempted, t.failed)
    require(got == (attempted, failed), f"{name}: attempted, failed {got}")
    print(f"ok  {name}: {failed} of {attempted} failed", file=sys.stderr)


def test_clean_outputs_pass():
    # the sample verse, an Anuṣṭup and an Upajāti render and check cleanly
    expect_counts("clean render", tally("verse", range(3)), 3, 0)
    expect_counts("clean scan", tally("scan", range(len(verses.SCAN_CYCLE))), 9, 0)


def test_truncated_wav_fails():
    write_wav = vc.synthesis.write_wav

    def truncated(clip, path):
        write_wav(vc.AudioClip(clip.samples[:-1], clip.sample_rate), path)

    with patched(vc.synthesis, "write_wav", truncated):
        expect_counts("WAV one sample short", tally("verse", range(2)), 2, 2)


def test_missing_wav_fails():
    with patched(vc.synthesis, "write_wav", lambda clip, path: None):
        expect_counts("no WAV written", tally("verse", range(1)), 1, 1)


def test_truncated_clip_fails():
    concat = vc.synthesis.concat

    def halved(clips, crossfade=0):
        clip = concat(clips, crossfade)
        return vc.AudioClip(clip.samples[: clip.n_frames // 2], clip.sample_rate)

    with patched(vc.synthesis, "concat", halved):
        expect_counts("clip cut in half", tally("verse", range(2)), 2, 2)


def test_wrong_expected_metre_fails():
    def mislabelled(i):
        expect = verses.verse_input(SEED, i)
        return dataclasses.replace(expect, metre="Indravajrā")

    # input 3 is an Indravajrā; inputs 0-2 are not
    expect_counts("wrong expected metre", tally("verse", range(4), mislabelled), 4, 3)


def test_wrong_metre_from_program_fails():
    classify = vc.prosody.classify_metre

    def last_record(patterns, db):
        classify(patterns, db)
        return db[-1]  # Upajāti, whatever the quarters are

    # one cycle of scan: the two samples and both Upajāti verses stay right
    with patched(vc.prosody, "classify_metre", last_record):
        t = tally("scan", range(len(verses.SCAN_CYCLE)))
    expect_counts("program picks the wrong metre", t, 9, 5)


def test_missing_name_is_unmeasured():
    layers = dict(spans.LAYERS)
    layers["dsp.concat"] = (("versechant.synthesis", "concat_gone", None),)
    tracer = spans.Tracer(layers)
    require(tracer.unmeasured == ["dsp.concat"], tracer.unmeasured)
    require(tracer.missing == ["versechant.synthesis.concat_gone"], tracer.missing)
    WORK.mkdir(parents=True, exist_ok=True)
    result = tracer.op(vc.synthesize, verses.SAMPLE_VERSE, vc.Config(), WORK / "o.wav")
    require(result.joins > 0, "no joins")
    metrics = spans.layer_metrics(tracer)
    for name in ("dsp.concat.s", "dsp.concat.joins", "share.dsp.concat"):
        require(metrics[name] is None, (name, metrics[name]))
    require(metrics["dsp.pitch.s"] > 0, "dsp.pitch.s not measured")
    # the wrappers are gone again after the operation
    require(vc.synthesis.pitch_shift is vc.dsp.pitch_shift, "wrapper left installed")
    print("ok  missing name reported unmeasured", file=sys.stderr)


def test_definitions_agree():
    with open(run.BENCH / "interactions.json", encoding="utf-8") as f:
        links = json.load(f)
    workloads = tuple(w["name"] for w in run.DEFINITION["workloads"])
    require(workloads == run.WORKLOADS, workloads)
    layer_names = {m["name"] for m in run.DEFINITION["per_layer"]}
    traced = set(spans.layer_metrics(spans.Tracer()))
    require(traced <= layer_names, traced - layer_names)
    end_to_end = {m["name"] for m in run.DEFINITION["end_to_end"]}
    for link in links["links"]:
        require(set(link["layer"]) <= layer_names, link["layer"])
        require(set(link["moves"]) <= end_to_end, link["moves"])
        require(set(link["on"]) | set(link["not_on"]) <= set(workloads), link)
    print("ok  BENCHMARK.json, run.py and interactions.json agree", file=sys.stderr)


def main() -> int:
    try:
        test_definitions_agree()
        test_clean_outputs_pass()
        test_truncated_wav_fails()
        test_missing_wav_fails()
        test_truncated_clip_fails()
        test_wrong_expected_metre_fails()
        test_wrong_metre_from_program_fails()
        test_missing_name_is_unmeasured()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
