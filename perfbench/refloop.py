"""The reference loop that run.py scales its times by.

It parses 30,000 study-shaped CSV lines into retained tuples: string, tuple
and integer work that allocates as the program's parsers do. It runs in a
child process of its own, so its memory never shows in the workload's peak
RSS and the workload's heap never changes its cost. Run as a script, it
prints the loop's time in seconds.
"""

import csv
import gc
from time import perf_counter

LINES = 30_000


def reference_loop() -> float:
    lines = [
        f"R{k:07d},{k % 91},private,services," + ",".join("YN"[k >> f & 1] for f in range(20))
        for k in range(LINES)
    ]
    gc.disable()
    start = perf_counter()
    rows = []
    for row in csv.reader(lines):
        rows.append((row[0], tuple(row[1:4]), sum(1 << f for f, c in enumerate(row[4:]) if c == "Y")))
    return perf_counter() - start


if __name__ == "__main__":
    print(reference_loop())
