"""Child process of the benchmark: import the crt-equidist CLI, note the
moment `main` is about to run, run it once, and exit with its code.

Usage: python3 launch.py STAMP_FILE TRACE_FILE|- [CLI ARGS...]

STAMP_FILE receives JSON with `ready` (time.monotonic() just before `main`;
the clock is system-wide, so the parent can subtract its spawn time), the
imported package path and the numpy version. With a TRACE_FILE the tracer in
tracer.py is installed first and its per-span stats are written there along
with `main_ns`, the traced duration of `main`. With no CLI arguments the
child stops after import: that is a set-up-only run.
"""

import json
import sys
import time


def run():
    stamp_path, trace_path, *cli_args = sys.argv[1:]
    from crt_equidist import cli

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    code = 0
    if cli_args:
        start = time.perf_counter_ns()
        code = cli.main(cli_args)
        main_ns = time.perf_counter_ns() - start
        if tracer is not None:
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"main_ns": main_ns, "spans": tracer.stats}, fh)
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "package": cli.__file__, "numpy": sys.modules["numpy"].__version__}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
