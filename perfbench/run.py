#!/usr/bin/env python3
"""The palfact benchmark: three workloads against the CLI in ``src/``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kmax-30 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1              # every workload, one after another

Workloads (one client, one command at a time, closed loop):

* ``kmax-30``: ``palfact --format csv kmax --max-n 30 --allow-long`` without
  a cache, one process per unit.
* ``reproduce``: a paper-replay session of five processes sharing one fresh
  cache directory: ``verify all --max-n 26``, ``worst --n 26``, ``kbar
  --max-n 26`` (cold, stores rows), ``histogram --n 26`` and ``bounds``
  (warm hits).
* ``factor-mix``: one worker process per unit sends 35 seeded words,
  uniform random and palindrome-rich interleaved, through
  ``dispatch(["--format", "json", "factor", w])``.

Every output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics from untraced units; ``--trace 1``
alternates untraced and traced units and reports the per-layer split,
measured by wrapping palfact's public functions inside the child
processes (see ``child.py``).  Spans of the run are written to
``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import selectors
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import child

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"

# Every run ends well inside the 180 s a run may take: no unit starts after
# RUN_LIMIT_S, and a child still running at CHILD_LIMIT_S is killed.
RUN_LIMIT_S = 120.0
CHILD_LIMIT_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

FACTOR_CLASSES = ("random", "rich", "other")
LAYERS = ("setup", "cli", "words", "factorization", "enumeration", "extremal", "distribution", "lemmas", "asymptotics", "cache")

PER_LAYER = {
    "enumeration.layer_build_s": "s",
    "enumeration.row_extract_s": "s",
    "enumeration.words": "count",
    "enumeration.words_per_s": "1/s",
    "enumeration.layer_bytes": "B",
    "enumeration.passes": "count",
    "enumeration.extension_calls": "count",
    **{f"factorization.{what}.{cls}": unit for cls in FACTOR_CLASSES
       for what, unit in (("calls", "count"), ("letters", "count"), ("busy_s", "s"))},
    "factorization.letters_per_s.random": "1/s",
    "factorization.letters_per_s.rich": "1/s",
    "lemmas.cases": "count",
    "words.orbit_calls": "count",
    "asymptotics.busy_s": "s",
    "asymptotics.f_evals": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.rejects": "count",
    "cache.stores": "count",
    "cache.hit_ratio": "ratio",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.bytes_written": "B",
    "cli.stdout_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.unaccounted_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass
class Proc:
    """One finished child process."""

    label: str
    start: float
    wall: float
    setup: float
    rss_mb: float
    status: int
    stdout: bytes
    report: dict | None
    reference: float = 0.0  # seconds the child spent in reference loops
    scale: float = 1.0  # reference speed over this process's speed, on scaled workloads

    @property
    def net_wall(self) -> float:
        """Wall time without the reference loops, at the reference speed."""
        return (self.wall - self.reference) * self.scale

    @property
    def text(self) -> str:
        return self.stdout.decode(errors="replace")

    def problems(self) -> list[str]:
        if self.status != 0:
            return [f"{self.label}: exit status {self.status}"]
        if self.report is None:
            return [f"{self.label}: no report"]
        if not Path(self.report["palfact_file"]).is_relative_to(SRC):
            return [f"{self.label}: palfact imported from {self.report['palfact_file']}"]
        return []


@dataclass
class Unit:
    """One repetition of a workload: its processes, commands and checks."""

    traced: bool
    procs: list[Proc]
    latencies: list[float]  # one per command, in the same order in every unit
    attempted: int
    problems: list[list[str]]  # per command
    letters: dict[str, list[float]] = field(default_factory=dict)  # factor-mix: class -> [letters, seconds]
    stdout_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(p.net_wall for p in self.procs)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


class Run:
    """Shared state of one benchmark run."""

    def __init__(self, seed: int, tmp: Path, scaled: bool) -> None:
        self.seed = seed
        self.tmp = tmp
        self.scaled = scaled
        self.start = time.monotonic()
        self.child_deadline = self.start + CHILD_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k not in ("PALIN_CACHE_DIR", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self._reports = 0

    def spawn(self, label: str, mode: str, args: list[str], traced: bool) -> Proc:
        """Start child.py, collect its stdout, wait for it; never outlives the run."""
        self._reports += 1
        report_path = self.tmp / f"report-{self._reports}.json"
        argv = [sys.executable, str(CHILD), str(report_path), "1" if traced else "0", mode, *args]
        read_fd, write_fd = os.pipe()
        start = time.monotonic()
        try:
            pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1)])
        finally:
            os.close(write_fd)
        chunks = []
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(read_fd, selectors.EVENT_READ)
                while sel.select(max(0.0, self.child_deadline - time.monotonic())):
                    data = os.read(read_fd, 1 << 16)
                    if not data:
                        break
                    chunks.append(data)
                else:
                    os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
            raise
        finally:
            os.close(read_fd)
        wall = time.monotonic() - start
        report = None
        if report_path.exists():
            try:
                report = json.loads(report_path.read_text())
            except ValueError:
                pass
            report_path.unlink()
        references = (report or {}).get("references") or [0.0]
        return Proc(
            label=label,
            start=start,
            wall=wall,
            setup=report["import_done"] - start if report else 0.0,
            rss_mb=usage.ru_maxrss / 1024,
            status=os.waitstatus_to_exitcode(status),
            stdout=b"".join(chunks),
            report=report,
            reference=sum(references),
            scale=child.REFERENCE_S[mode] / statistics.median(references)
            if self.scaled and report and mode in child.REFERENCE_S else 1.0,
        )


# --------------------------------------------------------------------------
# Workloads.  Each unit function runs one repetition and checks its output.


def kmax_unit(run: Run, index: int, traced: bool) -> Unit:
    proc = run.spawn("kmax", "cli", ["--format", "csv", "kmax", "--max-n", "30", "--allow-long"], traced)
    problems = proc.problems() or checks.kmax_csv(proc.text)
    return Unit(traced, [proc], [proc.net_wall], 1, [problems], stdout_bytes=len(proc.stdout))


REPRODUCE_N = 26


def _cache_state(directory: Path) -> dict[str, tuple[int, int]]:
    if not directory.is_dir():
        return {}
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in directory.iterdir()}


def reproduce_unit(run: Run, index: int, traced: bool) -> Unit:
    verify_seed = random.Random(f"reproduce:{run.seed}:{index}").randrange(1 << 31)
    cache = run.tmp / f"cache-{index}"
    n = str(REPRODUCE_N)
    steps = (
        ("verify", ["verify", "all", "--max-n", n, "--seed", str(verify_seed)]),
        ("worst", ["worst", "--n", n]),
        ("kbar", ["kbar", "--max-n", n]),
        ("histogram", ["histogram", "--n", n]),
        ("bounds", ["bounds"]),
    )
    procs, states = [], [_cache_state(cache)]
    try:
        for label, args in steps:
            procs.append(run.spawn(label, "cli", ["--format", "json", "--cache-dir", str(cache), *args], traced))
            states.append(_cache_state(cache))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    verify, worst, kbar, hist, bounds = procs
    kbar_problems, s_n = checks.kbar(kbar.text, REPRODUCE_N)
    if not states[3] or states[3] == states[2]:
        kbar_problems.append("kbar stored no rows on a cold cache")
    problems = [
        verify.problems() or checks.verify_all(verify.text, REPRODUCE_N),
        worst.problems() or checks.worst(worst.text, REPRODUCE_N),
        kbar.problems() or kbar_problems,
        hist.problems() or checks.histogram(hist.text, REPRODUCE_N, s_n)
        + (["histogram missed the warm cache"] if states[4] != states[3] else []),
        bounds.problems() or checks.bounds(bounds.text)
        + (["bounds missed the warm cache"] if states[5] != states[3] else []),
    ]
    return Unit(traced, procs, [p.net_wall for p in procs], len(steps), problems,
                stdout_bytes=sum(len(p.stdout) for p in procs))


# One unit is one word at each of FACTOR_LEVELS log-spaced lengths, random
# and rich levels alternating, so every unit has the same length profile.
FACTOR_LEVELS = 35
FACTOR_LENGTHS = (200, 2000)
RICH_KINDS = ("run", "fibonacci", "palcat", "palindrome", "family")


def _fibonacci(length: int) -> str:
    word = "a"
    while len(word) < length:
        word = "".join("ab" if c == "a" else "a" for c in word)
    return word


FIBONACCI = _fibonacci(FACTOR_LENGTHS[1] + 1100)


@dataclass(frozen=True)
class FactorWord:
    level: int
    text: str
    cls: str  # random | rich
    kind: str
    known: tuple[str, int] | None  # ("eq", m) or ("le", bound)


def _random_text(rng: random.Random, length: int) -> str:
    return format(rng.getrandbits(length), f"0{length}b").translate(str.maketrans("01", "ab"))


def _palindrome(rng: random.Random, length: int) -> str:
    half = _random_text(rng, length // 2)
    return half + (rng.choice("ab") if length % 2 else "") + half[::-1]


def _rich_word(rng: random.Random, level: int, length: int) -> FactorWord:
    kind = RICH_KINDS[level // 2 % len(RICH_KINDS)]
    if kind == "run":
        return FactorWord(level, rng.choice("ab") * length, "rich", kind, ("eq", 1))
    if kind == "palindrome":
        return FactorWord(level, _palindrome(rng, length), "rich", kind, ("eq", 1))
    if kind == "palcat":
        pieces = rng.randint(2, 4)
        base = length // pieces
        sizes = [base + rng.randint(-base // 4, base // 4) for _ in range(pieces - 1)]
        sizes.append(length - sum(sizes))
        return FactorWord(level, "".join(_palindrome(rng, s) for s in sizes), "rich", kind, ("le", pieces))
    if kind == "fibonacci":
        offset = rng.randrange(1000)
        text = FIBONACCI[offset : offset + length]
        if rng.random() < 0.5:
            text = text.translate(str.maketrans("ab", "ba"))
        return FactorWord(level, text, "rich", kind, None)
    family = rng.choice("UVW")
    index = {"U": length, "V": (length - 14) // 6, "W": (length - 5) // 6}[family]
    text, m = checks.family_word(family, index)
    return FactorWord(level, text, "rich", f"{family}({index})", ("eq", m))


def factor_words(seed: int, index: int) -> list[FactorWord]:
    """The words of one factor-mix unit: level j has length
    200 * 10^((j + 0.5) / 35) and is uniform random for even j and
    palindrome-rich for odd j; contents and order come from the seed, and
    the two classes alternate."""
    rng = random.Random(f"factor-mix:{seed}:{index}")
    lo, hi = FACTOR_LENGTHS
    lengths = [round(lo * (hi / lo) ** ((j + 0.5) / FACTOR_LEVELS)) for j in range(FACTOR_LEVELS)]
    random_levels, rich_levels = list(range(0, FACTOR_LEVELS, 2)), list(range(1, FACTOR_LEVELS, 2))
    rng.shuffle(random_levels)
    rng.shuffle(rich_levels)
    words = []
    for i, j in enumerate(random_levels):
        words.append(FactorWord(j, _random_text(rng, lengths[j]), "random", "uniform", None))
        if i < len(rich_levels):
            words.append(_rich_word(rng, rich_levels[i], lengths[rich_levels[i]]))
    return words


def factor_unit(run: Run, index: int, traced: bool) -> Unit:
    words = factor_words(run.seed, index)
    path = run.tmp / f"words-{index}.json"
    path.write_text(json.dumps([[w.text, w.cls] for w in words]))
    try:
        proc = run.spawn("factor", "words", [str(path)], traced)
    finally:
        path.unlink()
    failure = proc.problems()
    items = (proc.report or {}).get("items") or [[None, 0.0, ""]] * len(words)
    refs = (proc.report or {}).get("references") or [1.0] * (len(words) + 1)
    problems, latencies, letters = [], [0.0] * len(words), defaultdict(lambda: [0, 0.0])
    for i, (word, (rc, latency, out)) in enumerate(zip(words, items)):
        if run.scaled:
            latency *= 2 * child.REFERENCE_S["words"] / (refs[i] + refs[i + 1])
        problems.append(failure or ([f"factor: exit status {rc}"] if rc != 0 else checks.factor(word.text, word.known, out)))
        latencies[word.level] = latency
        letters[word.cls][0] += len(word.text)
        letters[word.cls][1] += latency
    return Unit(traced, [proc], latencies, len(words), problems, dict(letters),
                stdout_bytes=sum(len(item[2].encode()) for item in items))


WORKLOADS = {
    # name: (unit function, least number of units in a run, times scaled to
    # the reference speed).  kmax-30 streams memory, and its speed does not
    # follow the reference loop's, so its times are left as measured.
    "kmax-30": (kmax_unit, 3, False),
    "reproduce": (reproduce_unit, 3, True),
    "factor-mix": (factor_unit, 3, True),
}


# --------------------------------------------------------------------------
# Metrics.


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, within the data."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def end_to_end(units: list[Unit]) -> dict[str, float]:
    """The end-to-end metrics of the untraced units.

    Latency percentiles are stratified: each command position of a unit (a
    word length on factor-mix, a step on reproduce) is represented by its
    median latency over the units, and the percentiles are taken over the
    positions, which every unit has alike.
    """
    latencies = [statistics.median(u.latencies[i] for u in units) for i in range(len(units[0].latencies))]
    return {
        "wall_s": statistics.median(u.wall for u in units),
        "peak_rss_mb": max(p.rss_mb for u in units for p in u.procs),
        "setup_s": statistics.median(sum(p.setup * p.scale for p in u.procs) for u in units),
        "latency_p50_ms": 1000 * percentile(latencies, 0.5),
        "latency_p90_ms": 1000 * percentile(latencies, 0.9),
    }


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_split(traced: list[Unit], untraced: list[Unit]) -> dict[str, float]:
    """Per-layer metrics, as means over the traced units.

    A span's self time is its duration minus its direct children's; the
    setup of each process (spawn to ``import palfact.cli`` done) is a span
    of layer ``setup``.  Whatever no span covers is ``trace.unaccounted_s``,
    so the self times and that remainder add up to ``trace.wall_s``.
    """
    total: dict[str, float] = defaultdict(float)
    enum_busy = 0.0
    for unit in traced:
        covered = 0.0
        for proc in unit.procs:
            total["setup.self_s"] += proc.setup * proc.scale
            covered += proc.setup * proc.scale
            spans = (proc.report or {}).get("spans", [])
            inner = [0.0] * len(spans)
            extension = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    inner[parent] += (end - start) * proc.scale
                    if name == "enumeration.extension_m":
                        extension[parent] += (end - start) * proc.scale
            for i, (name, start, end, parent, note) in enumerate(spans):
                layer, took = _layer(name), (end - start) * proc.scale
                total[f"{layer}.self_s"] += took - inner[i]
                covered += took - inner[i]
                parent_name = spans[parent][0] if parent >= 0 else ""
                outermost = _layer(parent_name) != layer
                if name == "enumeration.scan_lengths":
                    total["enumeration.passes"] += 1
                    note = note if isinstance(note, int) else 0
                    total["enumeration.words"] += (1 << (note + 1)) - 2
                    total["enumeration.row_extract_s"] += took - extension[i]
                elif name == "enumeration.extension_m":
                    total["enumeration.extension_calls"] += 1
                    note = note if isinstance(note, int) else 0
                    total["enumeration.layer_build_s"] += took
                    total["enumeration.layer_bytes"] += (1 << (note + 1)) - 2
                    if parent_name != "enumeration.scan_lengths":
                        total["enumeration.words"] += (1 << (note + 1)) - 2
                elif name == "words.orbit":
                    total["words.orbit_calls"] += 1
                elif name == "asymptotics.f_theta":
                    total["asymptotics.f_evals"] += 1
                elif name == "cache.ResultCache.load":
                    total["cache.load_s"] += took
                    total["cache.hits" if note == "hit" else "cache.misses"] += 1
                    total["cache.rejects"] += note == "reject"
                elif name == "cache.ResultCache.store":
                    total["cache.store_s"] += took
                    if note is not None:
                        total["cache.stores"] += 1
                        total["cache.bytes_written"] += note
                if not outermost:
                    continue
                if layer == "enumeration":
                    enum_busy += took
                elif layer == "factorization":
                    cls, letters = note
                    total[f"factorization.calls.{cls}"] += 1
                    total[f"factorization.letters.{cls}"] += letters or 0
                    total[f"factorization.busy_s.{cls}"] += took
                elif layer == "lemmas":
                    total["lemmas.cases"] += note or 0
                elif layer == "asymptotics":
                    total["asymptotics.busy_s"] += took
            total["trace.spans"] += len(spans)
        total["cli.stdout_bytes"] += unit.stdout_bytes
        total["trace.wall_s"] += unit.wall
        total["trace.unaccounted_s"] += unit.wall - covered
    count = len(traced)
    out = {name: total.get(name, 0.0) / count for name in PER_LAYER}
    out["enumeration.words_per_s"] = total["enumeration.words"] / enum_busy if enum_busy else 0.0
    for cls in ("random", "rich"):
        busy = total[f"factorization.busy_s.{cls}"]
        out[f"factorization.letters_per_s.{cls}"] = total[f"factorization.letters.{cls}"] / busy if busy else 0.0
    loads = total["cache.hits"] + total["cache.misses"]
    out["cache.hit_ratio"] = total["cache.hits"] / loads if loads else 0.0
    out["trace.untraced_wall_s"] = statistics.fmean(u.wall for u in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def write_trace(run: Run, workload: str, units: list[Unit]) -> Path:
    """All spans of the run's traced units, one id per command."""
    commands, spans = [], []

    def rel(t: float) -> float:
        return t - run.start

    for unit_index, unit in enumerate(units):
        if not unit.traced:
            continue
        for proc in unit.procs:
            proc_cmd = len(commands)
            commands.append({"id": proc_cmd, "unit": unit_index, "label": proc.label})
            spans.append({"cmd": proc_cmd, "name": "setup", "start": rel(proc.start),
                          "end": rel(proc.start + proc.setup), "parent": None, "note": None})
            base = len(spans)
            cmd_of: list[int] = []
            for name, start, end, parent, note in (proc.report or {}).get("spans", []):
                if parent < 0 and proc.label == "factor":
                    cmd = len(commands)
                    commands.append({"id": cmd, "unit": unit_index, "label": "factor.word"})
                else:
                    cmd = cmd_of[parent] if parent >= 0 else proc_cmd
                cmd_of.append(cmd)
                spans.append({"cmd": cmd, "name": name, "start": rel(start), "end": rel(end),
                              "parent": base + parent if parent >= 0 else None, "note": note})
    path = WORK / f"trace-{workload}-seed{run.seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": run.seed, "commands": commands, "spans": spans}))
    return path


# --------------------------------------------------------------------------
# Running a workload.


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run units of one workload for ``seconds`` and return the result object."""
    unit_fn, min_units, scaled = WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"run-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    try:
        run = Run(seed, tmp, scaled)
        run.spawn("warm-up", "probe", [], False)  # byte-compile and load before timing
        run.start = time.monotonic()
        units: list[Unit] = []
        while True:
            units.append(unit_fn(run, len(units), trace and len(units) % 2 == 1))
            elapsed = time.monotonic() - run.start
            typical = statistics.median(sum(p.wall for p in u.procs) for u in units)
            if elapsed > RUN_LIMIT_S or (len(units) >= min_units and elapsed + typical > seconds):
                break
        untraced = [u for u in units if not u.traced]
        traced = [u for u in units if u.traced]
        metrics = layer_split(traced, untraced) if trace else end_to_end(untraced)
        units_of = PER_LAYER if trace else END_TO_END
        trace_path = write_trace(run, workload, units) if trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    summary(workload, seed, units, metrics, units_of, attempted, failed, trace_path)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }


def summary(workload, seed, units, metrics, units_of, attempted, failed, trace_path) -> None:
    """Human-readable report; the JSON result line follows it."""
    first = next((p.report for u in units for p in u.procs if p.report), {})
    ram_gib = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    print(f"# {workload} seed={seed}: {len(units)} units ({sum(u.traced for u in units)} traced)")
    print(f"#   machine: nproc={os.cpu_count()} ram={ram_gib:.1f}GiB python={platform.python_version()} "
          f"numpy={first.get('numpy')} palfact={first.get('palfact_file')}")
    print(f"#   fail_ratio = {failed}/{attempted} = {failed / attempted:.4f} (failed/attempted)")
    print(f"#   unit wall as measured: median {statistics.median(sum(p.wall for p in u.procs) for u in units):.4f} s; "
          f"scale to the reference speed: median {statistics.median(p.scale for u in units for p in u.procs):.4f}")
    for problems in [p for u in units for p in u.problems if p][:5]:
        print(f"#   FAILED: {'; '.join(problems)[:300]}")
    letters = defaultdict(lambda: [0, 0.0])
    for unit in units:
        for cls, (count, took) in unit.letters.items():
            letters[cls][0] += count
            letters[cls][1] += took
    for cls, (count, took) in sorted(letters.items()):
        print(f"#   letters_per_s.{cls} = {count / took:.1f} 1/s (dispatch latency, {count} letters)")
    if workload == "factor-mix":
        words = factor_words(seed, 0)
        for cls in ("random", "rich"):
            lengths = sorted(len(w.text) for w in words if w.cls == cls)
            kinds = sorted({w.kind.split("(")[0] for w in words if w.cls == cls})
            print(f"#   {cls}: share {len(lengths) / len(words):.2f}, length min/p50/p90/max = "
                  f"{lengths[0]}/{percentile(lengths, 0.5):.0f}/{percentile(lengths, 0.9):.0f}/{lengths[-1]}, "
                  f"kinds {kinds}")
    for name, unit in units_of.items():
        print(f"#   {name} = {metrics[name]:.6g} {unit}")
    if trace_path is not None:
        for unit in units:
            if unit.traced:
                for proc in unit.procs:
                    spans = (proc.report or {}).get("spans", [])
                    passes = sum(1 for s in spans if s[0] == "enumeration.scan_lengths")
                    print(f"#   traced {proc.label}: wall as measured {proc.wall:.3f} s, scan_lengths passes {passes}")
                break
        print(f"#   spans written to {trace_path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "palfact" / "cli.py").is_file():
        print(f"error: no palfact sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
