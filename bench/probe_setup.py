"""Set-up probe: what every urnnet invocation pays before any compute.

    python bench/probe_setup.py GRAPH MODEL

imports urnnet.cli, loads the edge file and builds the ModelConfig through
the package's public functions, and prints one JSON line with the import
time and the path urnnet was imported from.
"""
import json
import sys
import time

t0 = time.perf_counter()
import urnnet.cli  # noqa: E402
import_s = time.perf_counter() - t0

import urnnet  # noqa: E402

graph = urnnet.load_edge_file(sys.argv[1], False)
urnnet.ModelConfig.from_code(sys.argv[2], p=0.5, s=2, C=1, t0=4, w0=2, n=graph.n)
print(json.dumps({"import_s": import_s, "urnnet_file": urnnet.__file__}))
