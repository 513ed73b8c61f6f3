"""Command-line front end.

Subcommands: m, factor, kmax, kbar, histogram, worst, verify, bounds.
Exit status is 0 on success, 1 when a verification ran and failed (the
counterexamples are printed), 2 on usage errors (and on a cached n = 21
row that contradicts the pinned upper bound), and 3 when a worker
process of a multi-process enumeration died (killed by a signal, say, or
by the out-of-memory killer; one line on stderr says so, and no row of
that pass is cached).  Output is byte-stable for a fixed configuration
and seed, and each command makes at most one enumeration pass.

The global options --format, --cache-dir and --seed are each declared
once and fill the invocation's one ``RunConfig``.  All three go before the
subcommand; a subcommand also accepts after its name the ones it uses:
--format every one, --cache-dir kbar, histogram and bounds, and --seed
only verify, the one command with randomized checks.  A value given after
the subcommand wins over one given before it, and PALIN_CACHE_DIR wins
over both; an empty --cache-dir is a usage error.  kmax and worst print
``rows.worst_rows``, made by a pruned search.  The other commands read
their rows through ``rows.length_row`` or ``rows.length_rows``, and only
kbar, histogram and bounds pass them the cache, a ``ResultCache`` row store
that serves the rows they print (histogram and bounds one row, kbar every
row up to --max-n); a miss makes one enumeration pass that stores every
row it made.  The file format is known to ``cache`` alone.  Every length
in 1..32 runs without a flag; kmax, kbar, histogram and worst accept
--allow-long and ignore it, so command lines written when lengths above 26
needed it still run.  numpy is loaded only by an enumeration pass: a cache
miss, and the row claims of verify.  m, factor, kmax, worst, the case
analyses of verify and warm cache hits run without it.

verify prints the ``LemmaReport`` of each claim of ``lemmas.standard_runs``
that its target names, field by field in every format.  Its --trials is
capped at MAX_TRIALS, so that no value makes the randomized check run for
hours, and m and factor refuse a word longer than MAX_WORD_LENGTH letters.
bounds prints theta' and the critical points of g correctly rounded.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import click

from . import lemmas
from .asymptotics import bounds_report
from .cache import ResultCache
from .factorization import min_factorization
from .lemmas import COUNTING_MIN_N
from .rows import PACKED_LIMIT, WorkerDied, length_row, length_rows, worst_rows
from .words import Orbit, WordError, parse_word

__all__ = ["RunConfig", "cli", "dispatch", "main"]

FORMATS = ("table", "csv", "json")

# Exit status when a worker process of a sharded enumeration died.
WORKER_DIED = 3


@dataclass
class RunConfig:
    """The settings of one invocation; PALIN_CACHE_DIR wins over cache_dir."""

    format: str = "table"
    cache_dir: str | None = None
    seed: int = 42

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")

    @property
    def cache(self) -> ResultCache:
        return ResultCache(os.environ.get("PALIN_CACHE_DIR") or self.cache_dir)


def _override(ctx: click.Context, param: click.Parameter, value) -> None:
    """Set the option's field of the invocation's one RunConfig, if given.
    Click processes the group's options before the subcommand's, so a value
    after the subcommand overwrites one before it."""
    config = ctx.ensure_object(RunConfig)
    if value == "":  # Path("") is the working directory
        raise click.BadParameter("must not be empty", ctx, param)
    if value is not None:
        setattr(config, param.name, value)


# The global options, each declared once: the group applies all three, and
# each subcommand the ones it uses.
_format_option = click.option(
    "--format", "-f", type=click.Choice(FORMATS), expose_value=False, callback=_override, help="Output format."
)
_cache_dir_option = click.option(
    "--cache-dir",
    type=click.Path(file_okay=False),
    expose_value=False,
    callback=_override,
    help="Directory for persisted rows (PALIN_CACHE_DIR overrides).",
)
_seed_option = click.option(
    "--seed", type=int, expose_value=False, callback=_override, help="Seed for randomized checks."
)
# Lengths above 26 once needed this flag; command lines that pass it still run.
_allow_long_option = click.option("--allow-long", is_flag=True, expose_value=False, help="Ignored.")


def _echo_json(doc: object) -> None:
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


# m and factor hold ~60 B a letter on a random word and ~150 B on a
# Fibonacci word, whose ~n distinct palindromes make it the costliest
# class: at 10^7 letters ~0.6 GB and ~7 s, or ~1.5 GB and ~45 s
# (scaled from 4*10^6-letter `m -` runs on a 2-vCPU Xeon).
MAX_WORD_LENGTH = 10**7


def _read_stdin_word() -> str:
    """stdin with surrounding whitespace stripped, read 1 MiB at a time so
    that a word of more than MAX_WORD_LENGTH letters is refused before it
    is held whole.  Of whitespace-only pieces in a row after the word, one
    is held: a letter after them makes the word invalid either way."""
    pieces: list[str] = []
    held = 0
    while piece := sys.stdin.read(1 << 20):
        piece = piece if pieces else piece.lstrip()
        if not piece or piece.isspace() and pieces[-1][-1].isspace():
            continue
        if held + len(piece.rstrip()) > MAX_WORD_LENGTH:
            raise click.UsageError(f"WORD must be at most {MAX_WORD_LENGTH} letters")
        pieces.append(piece)
        held += len(piece)
    return "".join(pieces).rstrip()


def _parse_word_arg(text: str):
    """Parse WORD; ``-`` reads it from stdin (argv caps one argument at
    128 KiB on Linux), surrounding whitespace stripped."""
    if text == "-":
        text = _read_stdin_word()
    try:
        return parse_word(text)
    except WordError as exc:
        raise click.UsageError(str(exc)) from exc


def _guard_length(option: str, n: int) -> None:
    """Reject a length before the cache is read or any word is enumerated."""
    if n < 1:
        raise click.UsageError(f"{option} must be positive, got {n}")
    if n > PACKED_LIMIT:
        raise click.UsageError(f"{option} must be in 1..{PACKED_LIMIT}, got {n}")


@click.group()
@_format_option
@_cache_dir_option
@_seed_option
def cli() -> None:
    """Minimal palindromic factorizations: worst cases, averages, bounds."""


@cli.command("m")
@click.argument("word")
@_format_option
@click.pass_obj
def m_command(config: RunConfig, word: str) -> None:
    """Print the asymmetry measure m(WORD); WORD - reads it from stdin."""
    fact = min_factorization(_parse_word_arg(word))
    if config.format == "json":
        _echo_json({"word": fact.word.text, "m": fact.m})
    elif config.format == "csv":
        click.echo("word,m")
        click.echo(f"{fact.word.text},{fact.m}")
    else:
        click.echo(str(fact.m))


@cli.command("factor")
@click.argument("word")
@_format_option
@click.pass_obj
def factor_command(config: RunConfig, word: str) -> None:
    """Print a minimal palindromic factorization of WORD; WORD - reads it from stdin."""
    fact = min_factorization(_parse_word_arg(word))
    if config.format == "json":
        _echo_json(
            {
                "word": fact.word.text,
                "m": fact.m,
                "cuts": list(fact.cuts),
                "blocks": list(fact.blocks()),
            }
        )
    elif config.format == "csv":
        click.echo("word,m,factorization")
        click.echo(f"{fact.word.text},{fact.m},{fact}")
    else:
        click.echo(str(fact))


def _orbit_json(orb: Orbit) -> dict:
    return {"representative": orb.representative, "size": orb.size, "words": list(orb.words)}


@cli.command("kmax")
@click.option("--max-n", type=int, required=True, help="Compute K(n) for every n up to this length.")
@_allow_long_option
@_format_option
@click.pass_obj
def kmax_command(config: RunConfig, max_n: int) -> None:
    """Exact worst-case table K(1)..K(MAX_N) by pruned search."""
    _guard_length("--max-n", max_n)
    rows = worst_rows(max_n)
    if config.format == "csv":
        click.echo("n,K,maximizer_count")
        for row in rows:
            click.echo(f"{row.n},{row.k},{row.maximizer_count}")
    elif config.format == "json":
        _echo_json(
            [
                {
                    "n": row.n,
                    "K": row.k,
                    "maximizer_count": row.maximizer_count,
                    "orbits": [_orbit_json(orb) for orb in row.sample_orbits],
                }
                for row in rows
            ]
        )
    else:
        click.echo(f"{'n':>3} {'K':>3} {'maximizers':>11}  sample")
        for row in rows:
            click.echo(f"{row.n:>3} {row.k:>3} {row.maximizer_count:>11}  {row.sample_orbits[0].representative}")


@cli.command("kbar")
@click.option("--max-n", type=int, required=True, help="Exact averages for every n up to this length.")
@_allow_long_option
@_format_option
@_cache_dir_option
@click.pass_obj
def kbar_command(config: RunConfig, max_n: int) -> None:
    """Exact average table kbar(1)..kbar(MAX_N)."""
    _guard_length("--max-n", max_n)
    rows = length_rows(max_n, config.cache)
    # kbar = S/2^n in lowest terms: an odd numerator over a power of two.
    docs = [
        {
            "n": row.n,
            "S": row.s,
            "kbar_decimal": row.kbar_text,
            "kbar_num": row.kbar.numerator,
            "kbar_den_pow2": row.kbar.denominator.bit_length() - 1,
            "ratio_decimal": row.ratio_text,
        }
        for row in rows
    ]
    if config.format == "csv":
        click.echo("n,S,kbar_decimal,kbar_num,kbar_den_pow2")
        for doc in docs:
            click.echo("{n},{S},{kbar_decimal},{kbar_num},{kbar_den_pow2}".format(**doc))
    elif config.format == "json":
        _echo_json(docs)
    else:
        click.echo(f"{'n':>3} {'S':>12} {'kbar':>8} {'kbar/n':>8}")
        for row in rows:
            click.echo(f"{row.n:>3} {row.s:>12} {row.kbar_text:>8} {row.ratio_text:>8}")


@cli.command("histogram")
@click.option("--n", "n", type=int, required=True, help="Word length.")
@_allow_long_option
@_format_option
@_cache_dir_option
@click.pass_obj
def histogram_command(config: RunConfig, n: int) -> None:
    """Exact counts x_k of words of length N with m = k."""
    _guard_length("--n", n)
    hist = length_row(n, config.cache)
    if config.format == "csv":
        click.echo("n,k,x_k")
        for k, count in sorted(hist.counts.items()):
            click.echo(f"{hist.n},{k},{count}")
    elif config.format == "json":
        _echo_json({"n": hist.n, "counts": {str(k): v for k, v in sorted(hist.counts.items())}})
    else:
        click.echo(f"{'k':>3} {'x_k':>12}")
        for k, count in sorted(hist.counts.items()):
            click.echo(f"{k:>3} {count:>12}")


@cli.command("worst")
@click.option("--n", "n", type=int, required=True, help="Word length.")
@_allow_long_option
@_format_option
@click.pass_obj
def worst_command(config: RunConfig, n: int) -> None:
    """All words attaining K(N), grouped into symmetry orbits."""
    _guard_length("--n", n)
    row = worst_rows(n)[-1]
    orbits = list(row.orbits())
    if config.format == "csv":
        click.echo("n,representative,orbit_size")
        for orb in orbits:
            click.echo(f"{n},{orb.representative},{orb.size}")
    elif config.format == "json":
        _echo_json(
            {
                "n": n,
                "K": row.k,
                "orbits": [_orbit_json(orb) for orb in orbits],
            }
        )
    else:
        click.echo(f"K({n}) = {row.k}, {len(orbits)} orbit(s)")
        for orb in orbits:
            click.echo(f"  {orb.representative}  (orbit size {orb.size}: {', '.join(orb.words)})")


VERIFY_TARGETS = ("all", *lemmas.standard_runs())

_COUNTEREXAMPLE_PRINT_LIMIT = 10

# At ~25 us a trial (2-vCPU Xeon), the randomized check stays under half a minute.
MAX_TRIALS = 10**6


@cli.command("verify")
@click.argument("target", type=click.Choice(VERIFY_TARGETS))
@click.option("--max-n", type=int, default=20, help="Length ceiling for the table-driven checks.")
@click.option("--trials", type=int, default=10_000, help="Trials for the randomized tuple check.")
@_format_option
@_seed_option
@click.pass_obj
def verify_command(config: RunConfig, target: str, max_n: int, trials: int) -> int:
    """Replay the machine-checkable claims; exit 1 on any failure."""
    _guard_length("--max-n", max_n)
    # Below its first length a claim would check nothing: the counting bound
    # starts at COUNTING_MIN_N, and subadditivity adds two lengths.
    first = {"counting": COUNTING_MIN_N, "all": COUNTING_MIN_N, "subadditivity": 2}.get(target, 1)
    if max_n < first:
        raise click.UsageError(f"verify {target} needs --max-n >= {first}, got {max_n}")
    if trials < 1:
        raise click.UsageError(f"--trials must be positive, got {trials}")
    if trials > MAX_TRIALS:
        raise click.UsageError(f"--trials must be at most {MAX_TRIALS}, got {trials}")
    runs = lemmas.standard_runs(trials, config.seed, max_n)
    reports = [run() for name, run in runs.items() if target in (name, "all")]
    if config.format == "json":
        _echo_json(
            [
                {
                    "lemma": rep.lemma_id,
                    "params": {**rep.params, "cases": rep.cases},
                    "verdict": rep.verdict,
                    "counterexamples": list(rep.counterexamples),
                }
                for rep in reports
            ]
        )
    elif config.format == "csv":
        # The params as compact sorted JSON, which the csv module quotes; the
        # counterexamples are counted.
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("lemma", "verdict", "cases", "counterexamples", "params"))
        for rep in reports:
            params = json.dumps(rep.params, sort_keys=True, separators=(",", ":"))
            writer.writerow((rep.lemma_id, rep.verdict, rep.cases, len(rep.counterexamples), params))
        click.echo(buf.getvalue(), nl=False)
    else:
        for rep in reports:
            suffix = f" {rep.params}" if rep.params else ""
            click.echo(f"{rep.lemma_id}: {rep.verdict.upper()} (cases={rep.cases}){suffix}")
            for bad in rep.counterexamples[:_COUNTEREXAMPLE_PRINT_LIMIT]:
                click.echo(f"  counterexample: {bad}")
            remaining = len(rep.counterexamples) - _COUNTEREXAMPLE_PRINT_LIMIT
            if remaining > 0:
                click.echo(f"  ... and {remaining} more")
    return 0 if all(rep.passed for rep in reports) else 1


@cli.command("bounds")
@_format_option
@_cache_dir_option
@click.pass_obj
def bounds_command(config: RunConfig) -> None:
    """Both bound constants for the limit of kbar(n)/n."""
    row = length_row(21, config.cache)
    try:
        report = bounds_report(row)
    except ArithmeticError as exc:
        # A cached row can be possible for its length and still wrong.
        raise click.UsageError(f"{exc}; the row for n = 21 is wrong (delete a cached row_21.json)") from exc
    den = report.upper_bound.denominator
    exp2 = (den & -den).bit_length() - 1
    odd = den >> exp2
    den_text = f"{odd}*2^{exp2}" if odd > 1 and exp2 else (f"2^{exp2}" if exp2 else str(odd))
    if config.format == "json":
        _echo_json(
            {
                "theta_prime": report.theta_prime,
                "lower": report.g_at_theta_prime,
                "upper_exact": {"num": report.upper_bound.numerator, "den": den_text},
                "upper": float(report.upper_bound),
                "g_prime_roots": list(report.g_prime_roots),
                "f0": report.f0,
            }
        )
    elif config.format == "csv":
        click.echo("quantity,value")
        click.echo(f"theta_prime,{report.theta_prime!r}")
        click.echo(f"lower,{report.g_at_theta_prime!r}")
        click.echo(f"upper,{float(report.upper_bound)!r}")
        click.echo(f"upper_exact,{report.upper_bound.numerator}/{den_text}")
        click.echo(f"g_prime_root_1,{report.g_prime_roots[0]!r}")
        click.echo(f"g_prime_root_2,{report.g_prime_roots[1]!r}")
    else:
        click.echo(f"theta'        = {report.theta_prime:.10f}")
        click.echo(f"lower bound   = {report.lower_text}  (g(theta'))")
        click.echo(f"upper bound   = {report.upper_text}  (= {report.upper_bound.numerator}/{den_text} exactly)")
        click.echo(f"g' roots      = {report.g_prime_roots[0]:.4f}, {report.g_prime_roots[1]:.3f}")


def dispatch(argv: Sequence[str]) -> int:
    """Run one CLI invocation and return its exit status (0/1/2/3)."""
    try:
        result = cli.main(args=list(argv), prog_name="palfact", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except WorkerDied as exc:
        click.echo(f"Error: {exc}", err=True)
        return WORKER_DIED
    return result if isinstance(result, int) else 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
