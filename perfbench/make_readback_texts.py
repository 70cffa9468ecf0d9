"""Rebuild ``data/readback_texts.json``, the texts the readback workload
reads back.

Run from the repository root:

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/make_readback_texts.py

The texts are the canonical forms the program writes for:

* theta_vector, threej_spinor and threej_double at every r >= s >= t with
  r + s + t <= 4, and theta_vector and threej_spinor at r + s + t = 5;
* theta_spinor(a) for a = 1..5;
* the Fierz coefficients F(a, b), a <= b <= 5.

Each entry keeps its family and parameters, from which the benchmark's
checks recompute the classical image.  Equal texts are stored once.
"""

from __future__ import annotations

import json
from pathlib import Path

from qspin import recoupling, scalar

OUT = Path(__file__).resolve().parent / "data" / "readback_texts.json"


def sources():
    for m in range(6):
        families = ("theta_vector", "threej_spinor")
        if m <= 4:
            families += ("threej_double",)
        for r in range(m, -1, -1):
            for s in range(min(r, m - r), -1, -1):
                t = m - r - s
                if t > s:
                    continue
                for family in families:
                    yield family, [r, s, t]
    for a in range(1, 6):
        yield "theta_spinor", [a]
    for a in range(6):
        for b in range(a, 6):
            yield "fierz", [a, b]


def main() -> None:
    texts, seen = [], set()
    for family, params in sources():
        text = scalar.to_text(getattr(recoupling, family)(*params))
        if text not in seen:
            seen.add(text)
            texts.append({"family": family, "params": params, "text": text})
    OUT.write_text(json.dumps({"texts": texts}, indent=1) + "\n")
    print(f"wrote {len(texts)} texts to {OUT}")


if __name__ == "__main__":
    main()
