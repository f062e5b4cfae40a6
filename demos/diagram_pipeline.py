"""From a diagram file to the invariant, one step at a time.

Reads the shipped fixtures, assembles the linking matrix, prints the
pairwise linking numbers it holds, and shows that merging two loops of
one component adds their rows, i.e. linking numbers are bilinear in the
loops.
"""

from pathlib import Path

from hlk import handlebody_linking, linking_matrix, merge_loops, parse_diagram

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

for name in ("hopf.hlk", "separated.hlk", "worked_example.hlk"):
    d = parse_diagram((FIXTURES / name).read_text())
    m = linking_matrix(d)
    print(f"{name}: components {d.component_names}, "
          f"{sum(map(len, d.loops))} loops, {len(d.crossing_sums)} crossing loop pairs")
    print(f"  linking matrix {m.rows} x {m.cols}, Lk = {handlebody_linking(m)}")

print()
worked = parse_diagram((FIXTURES / "worked_example.hlk").read_text())
print("Pairwise linking numbers of worked_example.hlk:")
table = linking_matrix(worked)
for i, e in enumerate(worked.loops[0]):
    print(f"  {e}: {list(table.row(i))}")

print()
print("Merging e1 and e2 adds their rows (linking numbers are bilinear):")
merged = merge_loops(worked, "e1", "e2", "e12")
m = linking_matrix(merged)
for i, loop in enumerate(merged.loops[0]):
    print(f"  {loop}: {list(m.row(i))}")
print("The invariant of the merged diagram:", handlebody_linking(m))
