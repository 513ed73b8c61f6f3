#!/usr/bin/env python3
"""Show that wrong outputs count as failures in the palfact benchmark.

    python3 perfbench/selfcheck.py      # from the root of a checkout, ~25 s

First every output check is fed a right output (no problems expected) and
deliberately wrong ones (problems expected).  Then one unit of each
workload runs against the real program with one command's output
corrupted on its way back to the harness, and the unit must report
exactly that command as failed.  Exit status 1 if anything is not caught.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import checks
import run

FAILURES: list[str] = []


def expect(label: str, problems: list[str], wrong: bool) -> None:
    ok = bool(problems) == wrong
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problems[:1] if problems else 'no problems'}")
    if not ok:
        FAILURES.append(label)


def check_the_checks() -> None:
    kmax = "\n".join(
        ["n,K,maximizer_count"]
        + [f"{n},{checks.K_TABLE[n - 1]},{checks.MAXIMIZER_COUNTS[n - 1]}" for n in range(1, 31)]
    )
    expect("kmax right", checks.kmax_csv(kmax), False)
    expect("kmax K(30) = 12", checks.kmax_csv(kmax.replace("30,11,50", "30,12,50")), True)
    expect("kmax row missing", checks.kmax_csv(kmax.rsplit("\n", 1)[0]), True)

    good = json.dumps({"word": "aabab", "m": 2, "cuts": [0, 2, 5], "blocks": ["aa", "bab"]})
    expect("factor right", checks.factor("aabab", None, good), False)
    expect("factor known m", checks.factor("aabab", ("eq", 2), good), False)
    expect("factor wrong known m", checks.factor("aabab", ("eq", 1), good), True)
    expect("factor non-palindrome block",
           checks.factor("aabab", None, good.replace('"aa", "bab"', '"aab", "ab"').replace("[0, 2, 5]", "[0, 3, 5]")), True)
    expect("factor blocks not the word", checks.factor("aabab", None, good.replace('"bab"', '"bbb"')), True)
    expect("factor m inconsistent", checks.factor("aabab", None, good.replace('"m": 2', '"m": 3')), True)

    orbit = ["aababbbaababbaababbaaababb", "bbabaaabbabaabbabaabbbabaa"]
    worst = {"n": 26, "K": 10, "orbits": [{"representative": orbit[0], "size": 2, "words": orbit}]}
    expect("worst right", checks.worst(json.dumps(worst), 26), False)
    worst["orbits"][0]["words"] = [orbit[0], orbit[0][:-1] + "a"]
    expect("worst wrong word", checks.worst(json.dumps(worst), 26), True)

    hist = {"n": 26, "counts": {"1": (1 << 26) - 2, "10": 2}}
    s_26 = (1 << 26) - 2 + 20
    expect("histogram right", checks.histogram(json.dumps(hist), 26, s_26), False)
    expect("histogram wrong S", checks.histogram(json.dumps(hist), 26, s_26 + 1), True)
    hist["counts"]["1"] -= 1
    expect("histogram short of 2^26", checks.histogram(json.dumps(hist), 26, None), True)

    reports = [{"lemma": name, "params": {"cases": 3, "n_max": 26}, "verdict": "pass", "counterexamples": []}
               for name in sorted(checks.VERIFY_CLAIMS)]
    expect("verify right", checks.verify_all(json.dumps(reports), 26), False)
    reports[0]["verdict"] = "fail"
    expect("verify one claim failing", checks.verify_all(json.dumps(reports), 26), True)
    reports[0]["verdict"], reports[1]["params"]["cases"] = "pass", 0
    expect("verify vacuous claim", checks.verify_all(json.dumps(reports), 26), True)

    bounds = {"upper_exact": checks.UPPER_EXACT, "theta_prime": 0.09488207858521491,
              "lower": 0.0878100985065393, "upper": 372487 / (7 * 2**18)}
    expect("bounds right", checks.bounds(json.dumps(bounds)), False)
    bounds["upper_exact"] = {"num": 372488, "den": "7*2^18"}
    expect("bounds wrong fraction", checks.bounds(json.dumps(bounds)), True)


class CorruptingRun(run.Run):
    """Corrupts the output of the first command labelled ``target``."""

    def __init__(self, seed, tmp, scaled, target, corrupt) -> None:
        super().__init__(seed, tmp, scaled)
        self.target, self.corrupt = target, corrupt

    def spawn(self, label, mode, args, traced):
        proc = super().spawn(label, mode, args, traced)
        if label == self.target and self.corrupt is not None:
            proc, self.corrupt = self.corrupt(proc), None
        return proc


def _flip_first_factor(proc: run.Proc) -> run.Proc:
    items = [list(item) for item in proc.report["items"]]
    doc = json.loads(items[0][2])
    doc["blocks"] = doc["blocks"][::-1]  # same letters, wrong order
    items[0][2] = json.dumps(doc)
    return dataclasses.replace(proc, report={**proc.report, "items": items})


def check_the_pipeline() -> None:
    cases = (
        ("kmax-30", "kmax", lambda p: dataclasses.replace(p, stdout=p.stdout.replace(b"30,11,50", b"30,12,50"))),
        ("reproduce", "bounds", lambda p: dataclasses.replace(p, stdout=p.stdout.replace(b"372487", b"372488"))),
        ("reproduce", "worst", lambda p: dataclasses.replace(p, status=1)),
        ("factor-mix", "factor", _flip_first_factor),
    )
    run.WORK.mkdir(exist_ok=True)
    tmp = run.WORK / f"selfcheck-{os.getpid()}"
    tmp.mkdir()
    try:
        for workload, target, corrupt in cases:
            unit_fn, _, scaled = run.WORKLOADS[workload]
            clean = unit_fn(CorruptingRun(7, tmp, scaled, target, None), 0, False)
            expect(f"{workload} unit as printed", sum(clean.problems, []), False)
            bad = unit_fn(CorruptingRun(7, tmp, scaled, target, corrupt), 0, False)
            caught = bad.failed == 1 and clean.failed == 0
            expect(f"{workload} unit with corrupted {target}: failed {bad.failed}/{bad.attempted}",
                   sum(bad.problems, []) if caught else [], True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    if not (run.SRC / "palfact" / "cli.py").is_file():
        print(f"error: no palfact sources under {run.SRC}", file=sys.stderr)
        return 2
    check_the_checks()
    check_the_pipeline()
    print(f"{len(FAILURES)} check(s) did not behave as expected" if FAILURES else "every wrong output was caught")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
