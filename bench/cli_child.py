"""Run the subentropy CLI under the benchmark's tracer and save its spans.

Usage: python bench/cli_child.py SPANS_PATH CLI_ARGS...

The import of subentropy.cli is timed before the tracer loads, so the
recorded import time is the CLI's own.  The exit code is the CLI's.
"""

import json
import sys
import time


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import subentropy.cli
    import_s = time.perf_counter() - start

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = subentropy.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
