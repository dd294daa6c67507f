"""Output checks, run after each operation and outside its timed region.

Each check returns the list of problems it found; an operation with any
problem counts as failed.  Expected values come from how the input was
built (``verses.Expect``), not from the program under test.  Import
this module only once the program's sources are on ``sys.path``.
"""

from __future__ import annotations

import numpy as np
from versechant.dsp import crossfade_frames, read_wav


def check_plan(plan, expect) -> list[str]:
    """The metre, unit counts, pitches and beats the input was built for."""
    problems = []
    metre = plan.analysis.metre
    name = metre.name if metre is not None else None
    if name != expect.metre:
        problems.append(f"metre {name!r}, built for {expect.metre!r}")
    counts = tuple(len(q.timed) for q in plan.quarters)
    if counts != expect.counts:
        problems.append(f"units per quarter {counts}, built {expect.counts}")
        return problems
    for q, quarter in enumerate(plan.quarters):
        pitches = tuple(tu.pitch for tu in quarter.timed)
        if pitches != tuple(expect.pitch_row(q)):
            problems.append(f"quarter {q + 1} pitches {pitches}")
    if plan.total_beats != expect.total_beats:
        problems.append(f"{plan.total_beats} beats, built {expect.total_beats}")
    if expect.units is not None:
        units = tuple(tuple(tu.unit.text for tu in q.timed) for q in plan.quarters)
        if units != expect.units:
            problems.append(f"unit split {units}")
    return problems


def check_render(result, expect, wav_path, config) -> list[str]:
    """``check_plan``, plus the WAV on disk and the output length law.

    The WAV read back must equal ``result.clip`` sample for sample at the
    configured rate, and the length must satisfy
    |round(total_beats * beat * rate) - frames| <= joins * crossfade_frames(rate).
    """
    problems = check_plan(result.plan, expect)
    rate = config.sample_rate
    clip = result.clip
    back = read_wav(wav_path)
    if clip.sample_rate != rate or back.sample_rate != rate:
        problems.append(f"rates {clip.sample_rate}/{back.sample_rate}, configured {rate}")
    elif not np.array_equal(back.samples, clip.samples):
        problems.append(f"WAV ({back.n_frames} frames) differs from the clip ({clip.n_frames})")
    want = round(expect.total_beats * config.beat_seconds * rate)
    budget = result.joins * crossfade_frames(rate)
    if abs(want - back.n_frames) > budget:
        problems.append(f"{back.n_frames} frames, want {want} +- {budget}")
    return problems
