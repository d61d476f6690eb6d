"""Record the output fingerprints the benchmark checks against.

Writes bench/reference.json: at the default workload seed, the
fingerprint of each distinct call of every workload (see the
workloads' ``fingerprint`` methods), with every 10th interval bound of
the band of each covariate profile. Run it from the root of a
checkout, and only for a change that is meant to alter doseband's
outputs:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json

import numpy as np

from program import load_program


def main() -> None:
    load_program()
    import workloads as w

    out = {}
    for name, wl in w.WORKLOADS.items():
        state = wl.setup(w.DEFAULT_SEED)
        fps = [wl.fingerprint(wl.call(state, wl.prepare(state, k))) for k in range(wl.distinct)]
        if name == "band":
            fps = [bounds[:: w.BAND_CHECK_STRIDE].tolist() for bounds in fps]
        elif name == "gps-em":
            fps = [{k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fp.items()} for fp in fps]
        out[name] = fps
    with open(w.REFERENCE_PATH, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
