#!/usr/bin/env bash
# headline_ab.sh — the paper-size explain, a change against a control.
#
#   scripts/headline_ab.sh <control-rev> [rows] [runs]
#
# Builds cmd/experiments from <control-rev> (any git revision) and from the
# working tree into a temporary directory outside the checkout, then
# alternates control and change runs of
#
#   experiments -exp headline -rows <rows> -trace
#
# (rows defaults to the paper's 5,819,079, runs to 3 of each). For every run
# it prints the explanation and the process peak RSS (VmHWM, from getrusage);
# then, per span of the trace tree, the median wall time and allocation of
# each side and the change/control ratios. The runs' full output stays in the
# temporary directory, whose path is printed. Run it from anywhere inside the
# checkout, on an otherwise idle machine: at the paper's size one run takes
# about 35 s and 2 GB.
set -euo pipefail
if [ $# -lt 1 ]; then
    echo "usage: $0 <control-rev> [rows] [runs]" >&2
    exit 2
fi
control=$1
rows=${2:-5819079}
runs=${3:-3}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/headline_ab.XXXXXX")
echo "builds and run output in $tmp"

mkdir "$tmp/control"
git -C "$root" archive "$control" | tar -x -C "$tmp/control"
go build -C "$tmp/control" -o "$tmp/experiments.control" ./cmd/experiments
go build -C "$root" -o "$tmp/experiments.change" ./cmd/experiments

for i in $(seq 1 "$runs"); do
    for side in control change; do
        out="$tmp/$side.$i.txt"
        "$tmp/experiments.$side" -exp headline -rows "$rows" -trace >"$out" 2>&1
        printf '%-7s run %d: %s; %s\n' "$side" "$i" \
            "$(grep -m1 '^explanation:' "$out")" \
            "$(grep -m1 -o 'process peak RSS [0-9]* MB' "$out" | sed 's/process peak RSS/VmHWM/')"
    done
done

# Per span: the median over the runs of each side; durations in ms and
# allocations in MiB, as the trace tree prints them (µs/ms/s, B/KiB/MiB/GiB).
awk '
function ms(v) {
    if (v ~ /µs$/) return v / 1000
    if (v ~ /ms$/) return v + 0
    if (v ~ /ns$/) return v / 1e6
    if (v ~ /s$/) return v * 1000
    return 0
}
function mib(v) {
    if (v ~ /GiB$/) return v * 1024
    if (v ~ /MiB$/) return v + 0
    if (v ~ /KiB$/) return v / 1024
    if (v ~ /B$/) return v / 1048576
    return 0
}
function median(list,    a, n, i, j, t) {
    n = split(list, a, " ")
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] + 0 > a[j] + 0; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
FNR == 1 { side = FILENAME; sub(/.*\//, "", side); sub(/\..*/, "", side); inTree = 0 }
/^experiments / { inTree = 1 }
/^counters:/ { inTree = 0 }
inTree {
    line = $0
    sub(/ +\{.*$/, "", line)                 # span attributes
    gsub(/├─|└─/, "+-", line)               # one byte per column of the tree
    gsub(/│/, "|", line)
    pos = match(line, /[^ |+-]/)
    depth = int((pos - 1) / 3)
    rest = substr(line, pos)
    n = split(rest, f, /  +/)
    name = f[1]
    path[depth] = name
    key = ""
    for (d = 0; d <= depth; d++) key = key (d ? " > " : "") path[d]
    if (!(key in seen)) { seen[key] = 1; order[++nkeys] = key; label[key] = sprintf("%*s%s", 2 * depth, "", name) }
    wall[side, key] = wall[side, key] " " ms(f[2])
    alloc[side, key] = alloc[side, key] " " (n >= 4 ? mib(f[4]) : 0)
}
END {
    printf "\n%-44s %11s %11s %6s %10s %10s %6s\n", "span (median of runs)", "control ms", "change ms", "ratio", "ctl MiB", "chg MiB", "ratio"
    for (k = 1; k <= nkeys; k++) {
        key = order[k]
        if (!(("control", key) in wall) || !(("change", key) in wall)) continue
        cw = median(wall["control", key]); nw = median(wall["change", key])
        ca = median(alloc["control", key]); na = median(alloc["change", key])
        printf "%-44s %11.1f %11.1f %6s %10.1f %10.1f %6s\n", substr(label[key], 1, 44), cw, nw,
            (cw > 0 ? sprintf("%.2f", nw / cw) : "-"), ca, na, (ca > 0 ? sprintf("%.2f", na / ca) : "-")
    }
}' "$tmp"/control.*.txt "$tmp"/change.*.txt
