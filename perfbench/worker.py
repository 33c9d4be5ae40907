"""One batch of alphaspec CLI commands in a fresh interpreter.

Usage: python3 worker.py JOB.json   (run a batch, print its result as JSON)
       python3 worker.py --setup-only (import alphaspec.cli and report when)

The first thing the worker does is import alphaspec.cli, and it records
``time.monotonic()`` right after, a clock shared by every process on the
host, so the parent can time set-up from the moment it spawned the
interpreter.  Each command runs in-process through ``alphaspec.cli.main``
with its stdout and stderr captured, and is timed together with the
reference loop before and after it (see reference.py).
"""

import time

import alphaspec.cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402  (after the timed import)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402


def run_commands(commands: list[list[str]], ref_s: float) -> list[dict]:
    """Run each command, timed, and time the reference loop after each
    one; ``ref_s`` is its time before the first command."""
    outputs = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = alphaspec.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed command, not a failed benchmark
                code = -1
                err.write(traceback.format_exc())
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        ref_after = reference.reference_s()
        outputs.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "wall_s": wall_s, "cpu_s": cpu_s, "ref_s": (ref_s + ref_after) / 2})
        ref_s = ref_after
    return outputs


def main(argv: list[str]) -> None:
    result = {"imported_at": IMPORTED_AT, "ref_s": reference.reference_s()}
    if argv != ["--setup-only"]:
        with open(argv[0], encoding="utf-8") as fh:
            job = json.load(fh)
        tracer = None
        if job["trace"]:
            import tracing

            tracer = tracing.install()
        outputs = run_commands(job["commands"], result["ref_s"])
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["outputs"] = outputs
        result["trace"] = tracer.summary() if tracer else None
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
