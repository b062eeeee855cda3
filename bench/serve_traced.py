"""``letdma serve`` with the benchmark's layer wrappers installed.

Usage: ``python -m bench.serve_traced SPANS.json [serve flags ...]``.

Installs the same wrappers as a traced benchmark run, runs
``repro.cli.main(["serve", ...])`` until the server is shut down, and
then writes every span and counter to ``SPANS.json``, so the traced
``service_open`` run can split codec, queue and solver time inside the
server.
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, serve_args = argv[0], argv[1:]

    from bench.common import ensure_src

    ensure_src()
    from repro import cli

    from bench.trace import Tracer

    tracer = Tracer().install()
    try:
        return cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, handle)


if __name__ == "__main__":
    sys.exit(main())
