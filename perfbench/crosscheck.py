"""Cross-check of the recorded reference against the committed
quick-mode results (``results/experiments_quick.txt``).

The file prints rounded tables; each recorded value is rounded the same
way and compared cell by cell.  Mismatches are returned, not raised: a
stale cell of the committed file is recorded beside the reference, and
the benchmark keeps checking against what this tree computes.
"""

from __future__ import annotations

from pathlib import Path


def _section(text: str, name: str) -> list[str]:
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines)
                 if ln.split()[:2] == ["===", name])
    out = []
    for line in lines[start + 1:]:
        if line.startswith("--- " + name + " done"):
            break
        out.append(line)
    return out


def _fnum(x: float, nd: int = 1) -> str:
    return "-" if x != x else f"{x:.{nd}f}"


def against_quick_results(workloads: dict, path: Path) -> dict:
    """``{"matched": n, "mismatches": [...]}`` over the fig8 cells run,
    the fig7 transpose rows at the low-load rates and the fig10
    latency rows of the recorded applications."""
    text = path.read_text()
    matched = 0
    mismatches = []

    def cell(where: str, ours: str, theirs: str) -> None:
        nonlocal matched
        if ours == theirs:
            matched += 1
        else:
            mismatches.append({"cell": where, "this_tree": ours,
                               "committed": theirs})

    fig8 = workloads["fig8_saturation"]["summary"]["saturation"]
    sec = _section(text, "fig8")
    columns = sec[0].split()[1:]
    rows = {}
    for line in sec[1:]:
        parts = line.split()
        if parts:
            rows.setdefault(parts[0], dict(zip(columns, parts[1:])))
    for size, column in fig8.items():
        for label, sat in column.items():
            cell(f"fig8 {label} {size}", f"{sat:.3f}", rows[label][size])

    fig7 = workloads["fig7_lowload"]["summary"]["series"]
    sec = _section(text, "fig7")
    head = sec.index("--- transpose (avg packet latency by injection rate)")
    labels = sec[head + 1].split()[1:]
    for line in sec[head + 2:]:
        parts = line.split()
        if not parts or parts[0].startswith("saturation"):
            break
        rate = float(parts[0])
        for label, committed in zip(labels, parts[1:]):
            ours = {r: lat for r, lat in fig7.get(label, [])}
            if rate in ours:
                cell(f"fig7 transpose {label} @{rate:.2f}",
                     _fnum(ours[rate]), committed)

    fig10 = workloads["fig10_apps"]["summary"]["latency"]
    sec = _section(text, "fig10")
    # Scheme labels hold spaces: the header is fixed-width (14 + 22*k).
    head = sec[1]
    labels = [head[i:i + 22].strip() for i in range(14, len(head), 22)]
    for line in sec[2:]:
        parts = line.split()
        if not parts or parts[0].startswith("---"):
            break
        bench = parts[0]
        if bench not in fig10:
            continue
        for label, committed in zip(labels, parts[1:]):
            cell(f"fig10 latency {bench} {label}",
                 _fnum(fig10[bench][label]), committed)
    return {"matched": matched, "mismatches": mismatches}
