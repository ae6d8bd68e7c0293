"""Command-line front end.

Subcommands:
  synth     generate a CSV from a scenario spec
  audit     ingest a CSV and print the proportionality report
  plot      turn a structured report into an SVG chart
  debias    apply the SP-equalizing post-processor to a CSV
  pipeline  full run: gate, debias, re-gate, audit

Exit codes: 0 proportionate/fair, 2 review required, 3 disproportionate or
still unfair, 1 usage or data error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import sys

from . import __version__, lazy_names
from .frame import ValidationError, decode_utf8, read_text

# The names the commands take from other modules, each imported when a
# command first looks it up, so a command loads only the modules it runs.
# Commands look them up on this module (``_cli``), so a name replaced here
# before main runs, by a tracer's wrapper say, is the one called.
__getattr__, __dir__ = lazy_names(globals(), {
    "chart": ("emit_chart",),
    "debias": ("check_options", "place", "sp_equalizing_debiaser"),
    # No command calls run_audit_pipeline; it stays here for code that wraps
    # the pipeline by this name, as perfbench/traced_cli.py does.
    "pipeline": ("run_audit_pipeline", "run_counts_pipeline"),
    "report": ("build_report", "parse_structured", "render_structured", "render_text"),
    "scenario": ("REFERENCE_EXAMPLE", "generate_scenario", "load_spec"),
    "tabular": ("ColumnMapping", "frame_to_csv_blocks", "ingest", "ingest_counts"),
    "thresholds": ("ThresholdConfig",),
})
_cli = sys.modules[__name__]

# synth's builtin scenarios, by name: the spec each stands for is looked up
# on this module when synth runs, so the parser's help for them loads no
# scenario code.
BUILTIN_SCENARIOS = {"reference-example": "REFERENCE_EXAMPLE"}

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REVIEW = 2
EXIT_DISPROPORTIONATE = 3

_VERDICT_CODES = {
    "Proportionate": EXIT_OK,
    "ReviewRequired": EXIT_REVIEW,
    "Disproportionate": EXIT_DISPROPORTIONATE,
}


def _add_mapping_args(p: argparse.ArgumentParser):
    p.add_argument("--pred-col", default="pred", help="predicted-label column name")
    p.add_argument("--group-col", default="group", help="group membership column name")
    p.add_argument("--true-col", default=None, help="true-label column name (optional)")
    p.add_argument("--favorable", type=int, default=1, choices=(0, 1),
                   help="raw value meaning the favorable outcome")
    p.add_argument("--privileged", type=int, default=1, choices=(0, 1),
                   help="raw value meaning the privileged group")


def _mapping(args) -> ColumnMapping:
    # Only audit reads corrected labels; debias and pipeline ingest corr = pred.
    return _cli.ColumnMapping(
        pred_col=args.pred_col,
        corr_col=getattr(args, "corr_col", None),
        group_col=args.group_col,
        true_col=args.true_col,
        favorable=args.favorable,
        privileged=args.privileged,
    )


def _load_config(args) -> ThresholdConfig:
    if args.thresholds:
        return _cli.ThresholdConfig.load(args.thresholds)
    return _cli.ThresholdConfig.default()


def _write_output(data, path: str | None):
    """Write ``data``, bytes or an iterable of bytes-like blocks, as it is.

    Output never depends on the locale. Each block is written before the
    next is drawn, so a generator may reuse one buffer for all of them.
    """
    blocks = [data] if isinstance(data, bytes) else data
    if path is None or path == "-":
        if sys.stdout is None:  # the process started with no descriptor 1
            raise ValidationError("cannot write -: stdout is closed", code="unwritable")
        try:
            sys.stdout.flush()
            sys.stdout.buffer.writelines(blocks)
            sys.stdout.buffer.flush()
        except OSError as exc:
            # The bytes not written stay buffered, and the interpreter's flush
            # at exit would fail on them again with a second message. Send
            # them to devnull instead (the SIGPIPE recipe in the signal docs).
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise ValidationError(f"cannot write -: {exc}", code="unwritable") from None
        return
    try:
        with open(path, "wb") as fh:
            fh.writelines(blocks)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}", code="unwritable") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipaudit",
        description="Audit how a post-processing debiaser distributed label "
                    "flips across protected groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a CSV from a scenario spec")
    p.add_argument("--scenario", required=True,
                   help=f"builtin name ({', '.join(BUILTIN_SCENARIOS)}) or spec file path")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("audit", help="audit a CSV and print the report")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--thresholds", default=None, help="threshold config file")
    p.add_argument("--corr-col", default="corr", help="corrected-label column name")
    _add_mapping_args(p)

    p = sub.add_parser("plot", help="render a structured report as SVG")
    p.add_argument("--input", "-i", required=True, help="structured report ('-' for stdin)")
    p.add_argument("--output", "-o", required=True)

    p = sub.add_parser("debias", help="SP-equalize predicted labels in a CSV")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    _add_mapping_args(p)

    p = sub.add_parser("pipeline", help="gate, debias, re-gate and audit")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--thresholds", default=None)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    _add_mapping_args(p)

    return parser


# Each command returns its output, for _write_output, and its exit code.
def _cmd_synth(args):
    builtin = BUILTIN_SCENARIOS.get(args.scenario)
    spec = getattr(_cli, builtin) if builtin else _cli.load_spec(args.scenario)
    return _cli.frame_to_csv_blocks(_cli.generate_scenario(spec)), EXIT_OK


def _cmd_audit(args):
    counts = _cli.ingest_counts(args.input, _mapping(args))
    report = _cli.build_report(counts, _load_config(args))
    text = _cli.render_text(report) if args.format == "text" else _cli.render_structured(report)
    return text.encode(), _VERDICT_CODES[report.verdict]


def _cmd_plot(args):
    if args.input == "-":
        if sys.stdin is None:  # the process started with no descriptor 0
            raise ValidationError("cannot read -: stdin is closed", code="unreadable")
        try:
            text = decode_utf8(sys.stdin.buffer.read())
        except OSError as exc:
            raise ValidationError(f"cannot read -: {exc}", code="unreadable") from None
    else:
        text = read_text(args.input)
    return _cli.emit_chart(_cli.parse_structured(text)).encode(), EXIT_OK


def _cmd_debias(args):
    frame = _cli.ingest(args.input, _mapping(args))
    corrected = _cli.sp_equalizing_debiaser(
        frame.y_predicted, frame.group, args.epsilon, args.seed
    )
    return _cli.frame_to_csv_blocks(frame.with_corrected(corrected), args.favorable,
                                    args.privileged), EXIT_OK


def _cmd_pipeline(args):
    mapping = _mapping(args)
    # The repair is planned over the count table; the frame is read only to
    # place flips the counts do not decide. A pipe can be read only once, so
    # its frame is read at once.
    frame = None if os.path.isfile(args.input) else _cli.ingest(args.input, mapping)
    missing = None  # a group with no rows is reported after the options
    try:
        counts = frame.counts() if frame else _cli.ingest_counts(args.input, mapping)
    except ValidationError as exc:
        if exc.code != "missing_group":
            raise
        missing = exc
    _cli.check_options(args.epsilon, args.seed)
    config = _load_config(args)
    if missing is not None:
        raise missing

    def placed(plan):
        given = frame or _cli.ingest(args.input, mapping)
        return given.with_corrected(_cli.place(plan, given, args.seed)).counts()

    outcome = _cli.run_counts_pipeline(counts, args.epsilon, placed, config)
    if args.format == "structured":
        text = _cli.render_structured(outcome.report, decision=outcome.decision.value)
    else:
        text = _cli.render_text(outcome.report) + f"Decision: {outcome.decision.value}\n"
    # Still unfair exits 3; a fair run exits by its verdict, which is
    # Proportionate when no flips were needed.
    if not outcome.post_fairness.passed:
        return text.encode(), EXIT_DISPROPORTIONATE
    return text.encode(), _VERDICT_CODES[outcome.report.verdict]


_COMMANDS = {
    "synth": _cmd_synth,
    "audit": _cmd_audit,
    "plot": _cmd_plot,
    "debias": _cmd_debias,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors; normalize to 1. Exiting 0, it
            # has printed --help or --version, which is written as output is.
            if exc.code != 0:
                return EXIT_ERROR
            _write_output(printed.getvalue().encode(), None)
            return EXIT_OK
        output, code = _COMMANDS[args.command](args)
        _write_output(output, args.output)
        return code
    except ValidationError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run():
    """The process entry: run ``main`` on ``sys.argv`` and exit with its code.

    By the time ``main`` returns, its output is written and every file it
    opened is closed. What is left alive is mostly the heap the imports
    built. The collections the interpreter runs at shutdown would walk all
    of it and free its reference cycles one object at a time; frozen objects
    are out of their reach, and the operating system reclaims the memory.
    Exit is otherwise unchanged: atexit handlers run and stdio is flushed.
    ``main`` itself leaves the collector alone, for callers in a process
    that goes on.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
