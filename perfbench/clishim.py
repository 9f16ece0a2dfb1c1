"""Run one ``triderive`` command from the checkout's sources.

Usage: python3 perfbench/clishim.py <triderive arguments...>

The same as the installed ``triderive`` script, which calls
``triderive.cli.main``.  With PERFBENCH_TRACE=1 in the environment it
also wraps the layers and writes, as the last line of stderr, a marker
followed by the import time and the recorded spans as JSON.
"""

import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]

_start = time.perf_counter()
import triderive.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start


def main() -> int:
    if os.environ.get("PERFBENCH_TRACE") != "1":
        return triderive.cli.main(sys.argv[1:])
    import layers

    rec = layers.Recorder()
    with layers.installed(rec):
        rec.active = True
        try:
            code = triderive.cli.main(sys.argv[1:])
        finally:
            rec.active = False
    sys.stdout.flush()
    payload = {"import_s": IMPORT_S, "spans": rec.snapshot()}
    print(layers.TRACE_MARKER + json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
