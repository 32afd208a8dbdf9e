"""Fixed reference program: exact rational Gaussian elimination of a fixed
matrix, with no bn2 code.

run.py times it as a fresh process next to the bn2 commands.  Its work never
changes, so its wall time measures the host's speed at that moment; dividing
by it removes the host's speed drift from the benchmark's timings.
"""

from fractions import Fraction

N = 24


def main() -> None:
    x = 12345
    rows = []
    for _ in range(N):
        row = []
        for _ in range(N):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(Fraction(x % 2001 - 1000, 1 + x % 7))
        rows.append(row)
    for k in range(N):
        pivot = rows[k][k]
        for i in range(k + 1, N):
            f = rows[i][k] / pivot
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]


if __name__ == "__main__":
    main()
