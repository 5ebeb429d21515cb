"""Run one walkdim CLI command with the benchmark's tracer installed and
write its spans to a file.

    python3 bench/cli_traced.py <spans.json> <walkdim arguments...>

The import of ``walkdim.cli`` is one span, ``walkdim.<import>``, with
a child span per layer-module import; the command's library calls
follow as spans with parents.
"""

import importlib
import sys

from inputs import SRC
from tracer import IMPORT, ImportSpans, Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    sys.meta_path.insert(0, ImportSpans(tracer))
    sys.path.insert(0, str(SRC))
    try:
        cli = tracer.call(f"walkdim.{IMPORT}", importlib.import_module, ("walkdim.cli",))
        install(tracer)
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
