"""versechant benchmark: seeded closed-loop workloads against the public API.

One process, one thread, one client: each operation starts when the
previous one has finished.  An operation is one ``versechant.synthesize``
call that writes a WAV file, or one ``versechant.prepare`` call on
``scan``.  Every output is checked after its operation, outside the
timed region (see checks.py).

    python3 bench/run.py --workload verse --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see spans.py), and its spans go to
``.bench_out/spans-<workload>.jsonl``.  ``--workload all`` runs
every workload in its own process and prints every metric by name and
unit.  BENCHMARK.json at the repository root defines the workloads and
metrics, and the metrics' names and units are read from it;
interactions.json maps each per-layer metric to the end-to-end metric and
workload it should move.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import wave
import zlib
from pathlib import Path

import numpy as np

import spans
import verses

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("verse", "long-flat", "scan", "recorded")
SETUP_RUNS = 9
SAMPLE_SECONDS = 0.05  # shortest span one latency sample covers
# Verses with recorded takes (two cycles of the verse mix).  ``recorded``
# recites them in turn, so from its seventeenth operation on it renders
# verses it has rendered before in the same run.
RECORDED_REPERTOIRE = 16
TAKE_RATE = 22050
TAKE_STRETCH = 1.10  # takes run 10% longer than the beat grid wants
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "import versechant; versechant.load_metre_db()"
)
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def load_program():
    """Import versechant from this checkout's sources, or exit."""
    if not (SRC / "versechant" / "__init__.py").is_file():
        sys.exit(f"error: no versechant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import versechant

    if Path(versechant.__file__).resolve().parent != SRC / "versechant":
        sys.exit(f"error: imported versechant from {versechant.__file__}, not {SRC}")
    return versechant


def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports versechant and loads
    the bundled metre database."""
    start = time.perf_counter()
    code = SETUP_CODE.format(src=str(SRC))
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - start


def write_takes(directory: Path, keys, beat_seconds: float) -> None:
    """One recorded take per (unit text, weight) key, as
    ``<unit>_<l|g>.wav`` at 22050 Hz, 10% longer than its beats."""
    directory.mkdir(parents=True)
    for text, weight in sorted(keys):
        n = round((weight + 1) * beat_seconds * TAKE_RATE * TAKE_STRETCH)
        seed = zlib.crc32(f"{text}_{weight}".encode("utf-8"))
        rng = np.random.default_rng(seed)
        f0 = 150.0 + seed % 150
        t = np.arange(n) / TAKE_RATE
        x = 0.4 * np.sin(2 * np.pi * f0 * t) + 0.15 * np.sin(4 * np.pi * f0 * t)
        x += 0.02 * rng.standard_normal(n)
        samples = np.clip(np.rint(x * 32767), -32768, 32767).astype("<i2")
        with wave.open(str(directory / f"{text}_{'lg'[weight]}.wav"), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(TAKE_RATE)
            w.writeframes(samples.tobytes())


class Workload:
    """Inputs, the call that makes one operation, and its output check."""

    def __init__(self, name: str, seed: int, work: Path, vc):
        self.name = name
        self.render = name != "scan"
        self.wav = work / "out.wav"
        self.vc = vc
        if name == "long-flat":
            self.config = vc.Config(require_metre=False)
            self.make = lambda i: verses.long_flat_input(seed, i)
        elif name == "scan":
            self.config = vc.Config()
            self.make = lambda i: verses.verse_input(seed, i, verses.SCAN_CYCLE)
        elif name == "verse":
            self.config = vc.Config()
            self.make = lambda i: verses.verse_input(seed, i)
        elif name == "recorded":
            clips = work / "clips"
            self.config = vc.Config(clip_dir=clips)
            self.make = lambda i: verses.verse_input(seed, i % RECORDED_REPERTOIRE)
            keys = {
                (tu.unit.text, tu.render_beats - 1)
                for i in range(RECORDED_REPERTOIRE)
                for q in vc.prepare(self.make(i).text, self.config).quarters
                for tu in q.timed
            }
            write_takes(clips, keys, self.config.beat_seconds)
        else:
            raise ValueError(f"unknown workload {name!r}")

    def call(self, expect):
        if self.render:
            return self.vc.synthesize(expect.text, self.config, out_path=self.wav)
        return self.vc.prepare(expect.text, self.config)

    def check(self, expect, out) -> list[str]:
        import checks  # imports the program, so only after load_program()

        if self.render:
            return checks.check_render(out, expect, self.wav, self.config)
        return checks.check_plan(out, expect)

    def plan(self, out):
        return out.plan if self.render else out

    def audio_seconds(self, out) -> float:
        """Seconds of audio produced; on scan, the audio the plan describes."""
        if self.render:
            return out.clip.duration_seconds
        return out.total_beats * self.config.beat_seconds


class Tally:
    """Attempted and failed operations; the first failure is shown."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, wl: Workload, expect, tracer=None) -> tuple[object, float]:
        """Time one operation, traced when a tracer is given, and check its
        output; returns (output, or None if it raised, and its seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = tracer.op(wl.call, expect) if tracer else wl.call(expect)
        except Exception:
            seconds = time.perf_counter() - start
            self._fail(expect, traceback.format_exc())
            return None, seconds
        seconds = time.perf_counter() - start
        try:
            problems = wl.check(expect, out)
        except Exception:  # an output too broken to check, e.g. no WAV file
            problems = [traceback.format_exc()]
        if problems:
            self._fail(expect, "; ".join(problems))
        return out, seconds

    def _fail(self, expect, why: str) -> None:
        self.failed += 1
        if self.failed == 1:
            print(f"failed ({expect.kind}): {why}\n{expect.text}", file=sys.stderr)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and
    that percentile; with ten samples or fewer, the maximum."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def run_untraced(wl: Workload, seconds: float) -> tuple[dict, Tally]:
    """Operations back to back for ``seconds`` of operation time.

    A latency sample is one operation's wall time; operations shorter
    than SAMPLE_SECONDS are timed in consecutive groups that together
    take at least that long, each group giving the mean time of its
    operations, because single calls of a millisecond or so measure the
    machine's scheduling noise more than the program.  The set-up time is
    measured SETUP_RUNS times, spread evenly over the run between
    operations, and reported as the median.
    """
    tally = Tally()
    samples, setups = [], []
    window = audio = group_s = 0.0
    ops = group_ops = 0
    while window < seconds:
        if len(setups) < SETUP_RUNS and window >= len(setups) * seconds / SETUP_RUNS:
            setups.append(measure_setup())
        out, dt = tally.run(wl, wl.make(ops))
        ops += 1
        window += dt
        group_s += dt
        group_ops += 1
        if group_s >= SAMPLE_SECONDS:
            samples.append(group_s / group_ops)
            group_s, group_ops = 0.0, 0
        if out is not None:
            audio += wl.audio_seconds(out)
    if group_ops:
        samples.append(group_s / group_ops)
    while len(setups) < SETUP_RUNS:
        setups.append(measure_setup())
    tail_s, tail_pct = tail(samples)
    print(
        f"{wl.name}: {ops} ops, {len(samples)} latency samples; tail is p{tail_pct:.1f}",
        file=sys.stderr,
    )
    return {
        "latency_ms.p50": 1e3 * statistics.median(samples),
        "latency_ms.tail": 1e3 * tail_s,
        "ops_per_s": ops / window,
        "rtf": window / audio if audio else None,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, tally


def run_traced(wl: Workload, seconds: float, spans_path: Path) -> tuple[dict, Tally]:
    """Each input runs once untraced and once traced, alternating which
    goes first; per-layer metrics come from the traced operations."""
    tracer = spans.Tracer()
    for name in tracer.missing:
        print(f"not wrapped (no longer exists): {name}", file=sys.stderr)
    tally = Tally()
    times = {False: 0.0, True: 0.0}
    seen_run: set = set()
    requests = repeats_in_op = repeats_run = units = pitched = joins = 0
    audio = 0.0
    i = 0
    while times[False] + times[True] < seconds:
        expect = wl.make(i)
        order = (False, True) if i % 2 == 0 else (True, False)
        i += 1
        outs = {}
        for traced in order:
            outs[traced], dt = tally.run(wl, expect, tracer if traced else None)
            times[traced] += dt
        if outs[True] is None:
            continue
        plan = wl.plan(outs[True])
        seen_op: set = set()
        for q in plan.quarters:
            for tu in q.timed:
                key = (tu.unit.text, tu.render_beats - 1, wl.config.beat_seconds, tu.pitch)
                repeats_in_op += key in seen_op
                repeats_run += key in seen_run
                seen_op.add(key)
                seen_run.add(key)
                requests += 1
                pitched += tu.pitch != 0
        units += sum(len(q.timed) for q in plan.quarters)
        joins += plan.joins
        audio += wl.audio_seconds(outs[True])
    tracer.write(spans_path)

    ops = max(1, tracer.ops)
    values = spans.layer_metrics(tracer)
    values.update({
        "audio_store.repeat_share.in_op": repeats_in_op / max(1, requests),
        "audio_store.repeat_share.across_ops": repeats_run / max(1, requests),
        "input.units": units / ops,
        "input.pitched_share": pitched / max(1, units),
        "input.joins": joins / ops,
        "input.audio_s": audio / ops,
        "trace.overhead": times[True] / times[False] - 1.0,
    })
    for layer in tracer.unmeasured:
        print(f"unmeasured: {layer}", file=sys.stderr)
    shares = {k: v for k, v in values.items() if k.startswith("share.") and v is not None}
    lead = max(shares, key=shares.get)
    print(f"{wl.name}: largest layer {lead[len('share.'):]} ({shares[lead]:.1%})", file=sys.stderr)
    return values, tally


def row(workload: str, metric: str, value, unit: str) -> str:
    shown = "unmeasured" if value is None else f"{value:.6g}"
    return f"{workload:<10} {metric:<38} {shown:>12} {unit}"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    vc = load_program()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = Workload(name, seed, work, vc)
        Tally().run(wl, wl.make(0))  # warm-up, not counted
        if trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            values, tally = run_traced(wl, seconds, out_dir / f"spans-{name}.jsonl")
        else:
            values, tally = run_untraced(wl, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # exactly the metrics BENCHMARK.json declares for this kind of run
    declared = DEFINITION["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for metric, m in metrics.items():
        print(row(name, metric, m["value"], m["unit"]), file=sys.stderr)
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a table of every metric."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result, exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<10} {'metric':<38} {'value':>12} unit")
    for name, result in results.items():
        share = result["failed"] / result["attempted"]
        print(row(name, "failed_share", share, f"share ({result['failed']} of {result['attempted']})"))
        for metric, m in result["metrics"].items():
            print(row(name, metric, m["value"], m["unit"]))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
