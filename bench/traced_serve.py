"""``repro serve`` with the span wrappers installed.

Usage: ``python bench/traced_serve.py SPANS_PATH [serve options...]``
with ``src`` on ``PYTHONPATH``.  Installs the wrappers, runs
``repro.cli.main(["serve", ...])`` until the server drains (SIGTERM),
then writes every recorded span to ``SPANS_PATH``.
"""

import sys

import repro.cli
import tracing


def main() -> int:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    tracer = tracing.install("s")
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
