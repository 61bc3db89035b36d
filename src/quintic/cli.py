"""Command-line front end: classify, factor, symbol, genus, report, enumerate, selftest.

All commands emit deterministic JSON envelopes (fixed key order, LF line
endings); identical inputs produce byte-identical output. Exit codes:
0 success, 1 internal invariant failure, 2 input error.

Importing this module loads no other quintic module but ``errors``: each
command imports the modules it runs in its own body, so ``--help``,
``--version``, a usage error and a ``classify`` never compile the genus,
symbol and class-group code.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING

import click

from . import __version__
from .errors import InputError, QuinticError

if TYPE_CHECKING:
    from .cyclo import CycInt
    from .radicand import Verdict

_ENUM_BATCH = 64  # chunks per worker handed to the pool at a time
_SYMBOL_LEGEND = {str(i): f"value zeta^{i}" + (" (a is a fifth power)" if i == 0 else "") for i in range(5)}


def _open_out(out):
    """--out opened for append, so a failed command leaves it as it was; no --out yields None."""
    if not out:
        return contextlib.nullcontext()
    try:
        return open(out, "a", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise InputError(f"cannot open --out file {out}: {exc.strerror}") from exc


# Every click.echo names its stream: without file=, click caches a wrapper per
# sys.stdout object, and each in-process invocation (CliRunner) leaks one.
def _write(pieces: list[str], fh):
    """Replace what fh, from _open_out, holds with pieces; with fh None, echo them."""
    if fh is None:
        for piece in pieces:
            click.echo(piece, nl=False, file=sys.stdout)
        return
    if fh.seekable() and fh.tell():  # a pipe cannot seek, and /dev/null cannot be truncated
        fh.truncate(0)
    fh.writelines(pieces)


_LITERAL = {None: "null", True: "true", False: "false"}


def _json_text(value, lead: str = "\n") -> str:
    """The text the json module writes for value with a two-space indent.

    Only the types a command's document holds are written: dict with str keys,
    list, str, int, bool and None, matched by exact type. Anything else (a float,
    a tuple, an int key, an int subclass) raises TypeError. lead is "\n" plus the
    indent of value's own depth; only the recursion passes it. A container writes
    a str or int item in place, recurses on any other, and joins its items once.
    The tests hold it to the json module's bytes.
    """
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = lead + "  "
        texts = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"cannot write a {type(key).__name__} key as JSON")
            kind = type(item)
            text = _json_str(item) if kind is str else int.__repr__(item) if kind is int else _json_text(item, inner)
            texts.append(_json_str(key) + ": " + text)
        return "{" + inner + ("," + inner).join(texts) + lead + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = lead + "  "
        texts = [_json_str(item) if type(item) is str else int.__repr__(item) if type(item) is int
                 else _json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(texts) + lead + "]"
    if value is None or kind is bool:
        return _LITERAL[value]
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def _emit(command: str, inputs: dict, result, warnings: list[str], out):
    doc = {"tool_version": __version__, "command": command, "input": inputs, "result": result, "warnings": warnings}
    with _open_out(out) as fh:
        _write([_json_text(doc) + "\n"], fh)


def _error_doc(exc: QuinticError) -> dict:
    return {"error": {"code": exc.code, "message": str(exc)}}


def _fail(exc: QuinticError):
    click.echo(_json_text(_error_doc(exc)), file=sys.stderr)
    sys.exit(exc.exit_code)


def _section(build, *args):
    """build(*args), or the error document of the QuinticError it raises."""
    try:
        return build(*args)
    except QuinticError as exc:
        return _error_doc(exc)


class _Main(click.Group):
    """The one failure boundary: a usage error or a QuinticError leaves as an
    error document on stderr with its exit code, not as click's text or a traceback."""

    def parse_args(self, ctx, args):
        bare = not args  # read first: click's parser consumes args
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            if bare:  # click 8.2 and later raise this to print the help
                raise
            _fail(InputError(exc.format_message()))

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(InputError(exc.format_message()))
        except QuinticError as exc:
            _fail(exc)


@click.group(cls=_Main)
@click.version_option(__version__)
@click.option("--quiet", is_flag=True, default=False, expose_value=False,
              help="Accepted for scripting; changes nothing yet, since no command writes progress.")
def main():
    """Exact-arithmetic analyzer for pure quintic fields Q(n^(1/5))."""


_json_flag = click.option("--json", is_flag=True, default=True, expose_value=False,
                          help="Emit a JSON envelope (always on; accepted for scripting).")
_out_opt = click.option("--out", type=click.Path(writable=True, dir_okay=False), default=None,
                        help="Write output to a file instead of stdout.")


def _h_gamma_opts(fn):
    """The --h-gamma and --table options of genus and report."""
    fn = click.option("--table", type=click.Path(exists=True, dir_okay=False), default=None,
                      help="CSV table of 'n,h_gamma' lines ('#' comments).")(fn)
    return click.option("--h-gamma", type=int, default=None, help="Class number of Q(n^(1/5)), if known.")(fn)


@main.command()
@click.argument("n", type=int)
@_json_flag
@_out_opt
def classify(n, out):
    """Classify the radicand N into family I, II, III or none."""
    from . import radicand

    form = radicand.classify(n)
    _emit("classify", {"n": n}, form.to_json(), [radicand.HYPOTHESIS_NOTE], out)


@main.command()
@click.argument("n", type=int)
@_json_flag
@_out_opt
def factor(n, out):
    """Factor N over Z[zeta5]: unit times prime powers."""
    from . import radicand
    from .primes import factor_radicand

    _emit("factor", {"n": n}, factor_radicand(n, radicand.radicand_factorization(n)), [], out)


def _parse_cyc(text: str) -> CycInt:
    from .cyclo import CycInt

    parts = text.split(",")
    try:
        if len(parts) == 1:
            return CycInt(int(parts[0]))
        return CycInt(tuple(int(x) for x in parts))
    except ValueError as exc:
        raise InputError(f"cannot parse {text!r} as an integer or 4 coordinates") from exc


# a negative first coordinate ("-5,0,1,0", "-3") is an argument, not an option
@main.command(context_settings={"ignore_unknown_options": True})
@click.argument("a")
@click.argument("p", type=int)
@_json_flag
@_out_opt
def symbol(a, p, out):
    """Quintic residue symbols of A at every prime of Z[zeta5] above P.

    A is a rational integer or four comma-separated power-basis coordinates.
    """
    from .primes import factor_rational_prime
    from .symbols import quintic_symbol, residue_field

    elem = _parse_cyc(a)
    rows = []
    for q in factor_rational_prime(p):
        rf = residue_field(q)
        rows.append(
            {
                "prime": q.to_json(),
                "zeta_image": list(rf.zeta_image),
                "exponent": quintic_symbol(elem, q),
            }
        )
    _emit("symbol", {"a": elem.to_json(), "p": p}, {"symbols": rows, "legend": _SYMBOL_LEGEND}, [], out)


def _resolve_h_gamma(n, h_gamma, table):
    """--h-gamma, else n's line in --table; a given table is read and checked either way."""
    from . import genus

    if h_gamma is not None and h_gamma < 1:
        raise InputError(f"--h-gamma must be >= 1, got {h_gamma}")
    h = genus.load_class_number_table(table).get(n) if table is not None else None
    return h_gamma if h_gamma is not None else h


@main.command("genus")
@click.argument("n", type=int)
@_h_gamma_opts
@_json_flag
@_out_opt
def genus_cmd(n, h_gamma, table, out):
    """Genus-field report for N: r, 5^r, period polynomials, d, q*, generators."""
    from . import genus, radicand

    h = _resolve_h_gamma(n, h_gamma, table)
    form = radicand.classify(n)
    report = genus.build_genus_report(form)
    report["corollary"] = _section(genus.corollary_report, form, h) if h is not None else None
    _emit("genus", {"n": n, "h_gamma": h}, report, [radicand.HYPOTHESIS_NOTE], out)


@main.command()
@click.argument("n", type=int)
@_h_gamma_opts
@_out_opt
def report(n, h_gamma, table, out):
    """Full pipeline for N: classification, factorization, genus, generators,
    admissible capitulation types."""
    from . import classgroup, genus, radicand
    from .primes import factor_radicand

    h = _resolve_h_gamma(n, h_gamma, table)
    form = radicand.classify(n)
    warnings = [radicand.HYPOTHESIS_NOTE, classgroup.TAU2_PROOF_NOTE]
    doc = {
        "radicand": form.to_json(),
        "factorization": factor_radicand(n, form.factorization),
        "genus": _section(genus.build_genus_report, form),
        "corollary": _section(genus.corollary_report, form, h) if h is not None else None,
        "capitulation": None,
    }
    if form.verdict is not radicand.Verdict.NONE:
        certificate = _section(classgroup.generator_certificate, form)
        if "error" not in certificate:
            warnings.append(classgroup.RESIDUE_READING_NOTE)
        doc["capitulation"] = {
            "n": n,
            "form": form.verdict.value,
            "admissible_types": classgroup.ADMISSIBLE_TYPES,
            "certificate": certificate,
            "tau2_permutation": classgroup.TAU2_PERMUTATION,
            "subgroups": classgroup.CANONICAL_SUBGROUPS,
        }
    _emit("report", {"n": n, "h_gamma": h}, doc, warnings, out)


def _row_chunk(start: int, hi: int, verdict: Verdict | None, as_jsonl: bool) -> str:
    """The output lines of the chunk that starts at start, cut off at hi, as JSONL or CSV text,
    each written from its compact ledger; a row the verdict filter drops is never written."""
    from . import radicand

    line = radicand.ledger_json if as_jsonl else radicand.ledger_csv
    ledgers = radicand.enumerate_ledgers(start, min(start + radicand.WINDOW - 1, hi), verdict)
    lines = [line(n, ledger) for n, _, ledger in ledgers]
    lines.append("")  # one join ends every line in a newline, and leaves a chunk without rows empty
    return "\n".join(lines)


@main.command("enumerate")
@click.argument("lo", type=int)
@click.argument("hi", type=int)
@click.option("--form", "form_filter", type=click.Choice(["I", "II", "III", "none"]), default=None,
              help="Only emit radicands with this verdict.")
@click.option("--jsonl/--csv", "as_jsonl", default=True, help="Row format (JSONL default).")
@click.option("--from", "from_n", type=int, default=None,
              help="Start at this n (inclusive) when it is above LO. This does not resume: --out is rewritten.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Classify range chunks in parallel; output order is unaffected.")
@_out_opt
def enumerate_cmd(lo, hi, form_filter, as_jsonl, from_n, workers, out):
    """Classify every fifth-power-free N in [LO, HI], ascending."""
    from . import radicand

    if from_n is not None:
        lo = max(lo, from_n)
    if not (2 <= lo <= hi):
        raise InputError(f"invalid range [{lo}, {hi}]")
    if workers < 1:
        raise InputError(f"--workers must be >= 1, got {workers}")
    verdict = None if form_filter is None else radicand.Verdict(form_filter)
    rows = functools.partial(_row_chunk, hi=hi, verdict=verdict, as_jsonl=as_jsonl)
    pieces = [] if as_jsonl else [radicand.CSV_HEADER + "\n"]  # held to the end: a failed window writes no row
    starts = range(lo, hi + 1, radicand.WINDOW)  # fixed chunks: output order never depends on them
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1, len(starts[:workers]))  # len(starts) overflows past 2**63
    with _open_out(out) as fh:  # before any classify, so a bad --out is refused at once
        if workers > 1:
            # imported here: it pulls in multiprocessing, which no other path needs
            from concurrent.futures import ProcessPoolExecutor
            # pool.map submits every item it is given at once, so it gets a bounded batch at a time
            pending = iter(starts)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for batch in iter(lambda: tuple(islice(pending, _ENUM_BATCH * workers)), ()):
                    pieces.extend(pool.map(rows, batch))
        else:
            pieces.extend(map(rows, starts))
        _write(pieces, fh)


@main.command("selftest")
# sorted(selftest.SUITES), written out so that parsing the command line imports no suite
@click.option("--suite", "suite_name", default=None,
              type=click.Choice(["capitulation", "classifier", "periods", "ring", "splitting", "symbols"]),
              help="Run a single suite instead of all of them.")
def selftest_cmd(suite_name):
    """Run the oracle-equivalence and invariant suites; exit 0 iff all pass."""
    from . import selftest

    names = None if suite_name is None else [suite_name]
    results = selftest.run(names)
    failed = False
    for res in results:
        status = "ok" if res.passed else "FAIL"
        click.echo(f"suite {res.name}: {res.checks} checks, {len(res.failures)} failures [{status}]",
                   file=sys.stdout)
        for msg in res.failures[:10]:
            click.echo(f"  - {msg}", file=sys.stdout)
        failed = failed or not res.passed
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
