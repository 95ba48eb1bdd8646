"""Run one ``qkonc`` experiment as a benchmark job process.

Usage: python3 job.py STAMP_FILE SPAN_FILE|- <experiment> --config ... [qkonc options]

The package is imported from the ``src`` directory next to this benchmark,
never from an installed copy.  Right after ``qkonc.cli`` has finished
importing, the job writes ``time.monotonic()`` to STAMP_FILE; the parent
subtracts its own spawn timestamp (the clock is system-wide) to get the
job's set-up time.  With a SPAN_FILE other than ``-``, the job installs the
span tracer before running the experiment and writes the spans on exit.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import qkonc  # noqa: E402
import qkonc.cli  # noqa: E402

stamp = time.monotonic()


def main(argv: list[str]) -> int:
    stamp_file, span_file, cli_args = argv[0], argv[1], argv[2:]
    if SRC not in Path(qkonc.__file__).resolve().parents:
        print(f"qkonc imported from {qkonc.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    Path(stamp_file).write_text(repr(stamp))
    tracer = None
    if span_file != "-":
        import tracer as span_tracer

        tracer = span_tracer.install(qkonc)
    try:
        qkonc.cli.main(args=cli_args, prog_name="qkonc", standalone_mode=False)
    finally:
        if tracer is not None:
            tracer.write(span_file)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
