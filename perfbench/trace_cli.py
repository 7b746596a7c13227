"""Run one schurkit command line under the tracer.

Usage: python3 trace_cli.py <totals.json> <spans.npz or -> <verb> [options]

Times ``import schurkit.cli``, runs the verb with every layer wrapped (see
tracer.py), writes the tracer's sums to <totals.json> and, unless the
second argument is ``-``, the spans to <spans.npz>.  Exits with the verb's
exit code; its output goes to stdout as usual.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    totals_path, spans_path, *argv = sys.argv[1:]
    start = time.perf_counter()
    import schurkit.cli

    import_s = time.perf_counter() - start
    import numpy as np
    from tracer import Tracer

    tracer = Tracer()
    tracer.keep_spans = spans_path != "-"
    with tracer:
        code = schurkit.cli.main(argv)
    sys.stdout.flush()
    totals = tracer.totals()
    totals["import_s"] = import_s
    Path(totals_path).write_text(json.dumps(totals))
    if tracer.keep_spans:
        np.savez(spans_path, names=np.array(json.dumps(tracer.names)), **tracer.spans())
    return code


if __name__ == "__main__":
    sys.exit(main())
