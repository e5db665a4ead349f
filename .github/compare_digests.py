"""Compare the output digests of the CI matrix entries.

    python .github/compare_digests.py DIGESTS...

Each argument is one matrix entry's digest list: `sha256sum` lines
`<hex>  <file>`, named after the directory that holds it (the artifact it
was downloaded in). Every file is printed with its digest in each entry.
The exit code is 1 when a run's file has different digests in two
entries, or is missing from one. That covers every run whose R has a
closed form: the homogeneous_sum runs, and the general-mode pendulum,
whose one addend has a known velocity degree. Only the files of the
general-mode pendulum with a tanh addend are listed side by side and not
compared: the graded rule integrates that addend, and its node sums
(BLAS dot products) and numpy's SIMD transcendentals can differ between
hosts and numpy versions.
"""

import os
import sys

NOT_COMPARED = "pendulum_tanh."


def read(path):
    """{file name: digest} of one sha256sum listing."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                digest, name = line.split(maxsplit=1)
                out[name.strip().lstrip("*")] = digest
    return out


def main(paths):
    if not paths:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    entries = {os.path.dirname(p) or p: read(p) for p in paths}
    failed = []
    for name in sorted(set().union(*entries.values())):
        seen = {e: d.get(name, "missing") for e, d in entries.items()}
        compared = not name.startswith(NOT_COMPARED)
        if compared and len(set(seen.values())) > 1:
            failed.append(name)
        print(f"{name}: {'compared' if compared else 'listed only'}")
        for entry, digest in seen.items():
            print(f"    {digest}  {entry}")
    if failed:
        print(f"digests differ between entries: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
