"""What every `tiwlab` command pays before it works: import, load, validate.

Run in a fresh interpreter with tiwlab's sources on PYTHONPATH:
    python3 tiwbench/setup_probe.py <config.yaml>
Prints {"setup_s": ..., "import_s": ..., "load_config_s": ...} as one JSON
line; setup_s is the sum of the other two.
"""

import json
import sys
import time

start = time.perf_counter()
import tiwlab.cli  # noqa: E402,F401  (the CLI imports every module)
imported = time.perf_counter()
tiwlab.cli.load_config(sys.argv[1])
loaded = time.perf_counter()
print(json.dumps({"setup_s": loaded - start, "import_s": imported - start,
                  "load_config_s": loaded - imported}))
