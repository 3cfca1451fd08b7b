"""Resolutions: answering the questions a formula asks.

Each global disjunction is a choice point; committing to a disjunct at
every occurrence yields a classical formula.  A partial resolution of
degree n commits at n of the occurrences.
"""

from teamseq import (parse_formula, partial_resolutions, render, resolutions,
                     resolutions_multiset)

f = parse_formula("p || (q || r)")
print(f"formula: {render(f)}")
for n in range(3):
    out = sorted(render(g) for g in partial_resolutions(f, n))
    print(f"  degree {n}: {out}")
print("  full resolutions:", sorted(render(g) for g in resolutions(f)))

print()
ms = resolutions_multiset([parse_formula("p||(q||r)"), parse_formula("s||r")])
print("multiset resolutions of {p||(q||r), s||r}:")
for m in sorted(ms, key=lambda k: [render(x) for x in k]):
    print("  {", ", ".join(render(x) for x in m), "}")
