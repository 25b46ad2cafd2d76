"""Fixed reference work that measures how fast the host is right now.

Run by ``run.py`` as a child, between the commands it times.  It does the
same kind of work as a ``bratteli`` command, with the stdlib and numpy only:
start an interpreter, import numpy, push exact rational masses down a fixed
weighted triangle, render them as TSV and JSON.  The work never changes, so
its wall time tracks the host's speed at the moment it runs, and ``run.py``
scales each timing by the reference runs around it.  It prints the SHA-256
of what it rendered, which ``run.py`` compares with ``REFERENCE_SHA256``.

    python3 reference.py
"""

import hashlib
import json
from fractions import Fraction

import numpy  # noqa: F401  (every command pays this import too)

DEPTH = 36


def weights(depth):
    """Weights 1..9 from a fixed linear congruential sequence."""
    x = 12345
    out = []
    for n in range(depth):
        row = []
        for _ in range(n + 1):
            x = (1103515245 * x + 12345) % 2**31
            row.append((x >> 16) % 9 + 1)
        out.append(row)
    return out


def main():
    w = weights(DEPTH)
    level = [Fraction(1)]
    lines = ["level\tid\tvalue", "0\t0:0\t1"]
    for n in range(DEPTH):
        nxt = [Fraction(0)] * (n + 2)
        for k, mass in enumerate(level):
            up = Fraction(w[n][k], w[n][k] + 10 - w[n][k] % 3)
            nxt[k] += mass * (1 - up)
            nxt[k + 1] += mass * up
        level = nxt
        for k, m in enumerate(level):
            lines.append(f"{n + 1}\t{n + 1}:{k}\t{m.numerator}/{m.denominator}")
    assert sum(level) == 1
    text = "\n".join(lines) + "\n" + json.dumps({"rows": lines[1:]})
    print(hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
