"""One cold start, run in a fresh interpreter by bench/run.py.

    python3 bench/setup_child.py SRC doc JSON    # config_from_dict(JSON)
    python3 bench/setup_child.py SRC file PATH   # load_config(PATH)

Prints the seconds from before `import raydiss` to the return of the first
`dynamics.accel` call on the config's initial state.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

src, kind, arg = sys.argv[1:4]
sys.path.insert(0, src)

import raydiss.config as cf  # noqa: E402
import raydiss.dynamics as dy  # noqa: E402

cfg = cf.config_from_dict(json.loads(arg)) if kind == "doc" \
    else cf.load_config(arg)
dy.accel(cfg.system, cfg.initial)
print(repr(time.perf_counter() - t0))
