"""ns_extension(uniform box, N clones) under a capped address space.

Usage: python3 perfbench/capped.py N

At N = 5 the extension LP has 4096 variables and 12 368 rows, and the dense
elastic phase-one stacks identity blocks beside the rows.  Its matrices
(the 12k x 29k stack alone is 2.9 GB) exhaust an 8 GB machine, and without
a cap the kernel kills the process.  The cap turns that into a MemoryError in this
child alone.  It is set high enough that row assembly (about 1 GB resident)
completes and the failure comes from the elastic block itself.

Prints one JSON line and exits 0 when an extension is found or refused, and
exits 3 on MemoryError.
"""

import resource
import sys
from pathlib import Path

ADDRESS_SPACE_CAP = 1536 * 2**20

resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import json  # noqa: E402

from monogamy import model, sharing  # noqa: E402


def main() -> int:
    clones = int(sys.argv[1])
    try:
        result = sharing.ns_extension(model.uniform_box(model.Scenario(2, (2, 2), (2, 2))), clones)
    except MemoryError:
        print(f"MemoryError under a {ADDRESS_SPACE_CAP >> 20} MiB address-space cap")
        return 3
    feasible = isinstance(result, sharing.ExtensionCertificate)
    print(json.dumps({
        "feasible": feasible,
        "symmetry_residual": result.symmetry_residual if feasible else None,
        "marginal_residual": result.marginal_residual if feasible else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
