#!/bin/sh
# check_docs.sh — docs hygiene gate for CI.
#
#   1. gofmt: the tree must be gofmt-clean.
#   2. links: every relative markdown link in README.md and docs/*.md
#      must point at a file that exists.
#   3. symbols: every backticked `pkg.Name` or `Type.Member` cited in
#      docs/ARCHITECTURE.md, docs/API.md, docs/OPERATIONS.md, DESIGN.md,
#      README.md and EXPERIMENTS.md must resolve to a declaration in the non-test Go sources
#      (TestDocSymbols, docs_test.go), so the docs cannot silently rot after
#      a rename or deletion.
#   4. sections: load-bearing doc sections (referenced from code comments
#      and other docs) must keep existing under their exact headings.
#   5. paths: every `cmd/<name>` or `internal/<pkg>` cited in backticks in
#      README.md, DESIGN.md and docs/*.md must still be a directory, so a
#      deleted binary or package cannot stay documented.
#   6. flags: every command-line flag cited at the start of a code span
#      (`-name`) in README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md must
#      be defined by a flag call in cmd/ or internal/rpc/daemon.go, so a
#      deleted flag cannot stay documented. Go-tool flags (`-race`, ...)
#      are allowlisted.
#   7. routes: every `GET /path` or `POST /path` cited in README.md,
#      DESIGN.md and docs/*.md must occur as /path" in a non-test Go file
#      under internal/ or cmd/ (a route pattern or a wire path constant), so
#      a deleted endpoint cannot stay documented.
#
# Run from the repository root: ./scripts/check_docs.sh
set -u
fail=0

# --- 1. gofmt ---------------------------------------------------------------
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "check_docs: gofmt needed on:" >&2
    echo "$unformatted" >&2
    fail=1
fi

# --- 2. relative links in README.md and docs/*.md ---------------------------
tmp_broken=$(mktemp)
for doc in README.md docs/*.md; do
    dir=$(dirname "$doc")
    # extract the (target) parts of [text](target) links, one per line
    grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//' | while IFS= read -r link; do
        case "$link" in
        http://*|https://*|mailto:*|\#*) continue ;;
        esac
        target=${link%%#*} # drop anchors
        [ -z "$target" ] && continue
        if [ ! -e "$dir/$target" ]; then
            echo "check_docs: $doc links to missing file: $link" >&2
            echo BROKEN >>"$tmp_broken"
        fi
    done
done
if [ -s "$tmp_broken" ]; then
    fail=1
fi
rm -f "$tmp_broken"

# --- 3. Go symbols cited in the docs must resolve ---------------------------
# TestDocSymbols parses the non-test tree and resolves each citation against
# its declarations: a package's top-level names, a type's fields and methods.
if ! symout=$(go test -count=1 -run '^TestDocSymbols$' . 2>&1); then
    echo "check_docs: symbols cited in the docs are not declared in the Go sources:" >&2
    echo "$symout" >&2
    fail=1
fi

# --- 4. required sections ----------------------------------------------------
# Headings other docs and code comments point at by name; renaming one must
# fail CI so the references get updated together.
require_section() {
    doc=$1
    heading=$2
    if ! grep -qxF "$heading" "$doc"; then
        echo "check_docs: $doc is missing required section: $heading" >&2
        fail=1
    fi
}
require_section docs/ARCHITECTURE.md '## KG backends'
require_section docs/ARCHITECTURE.md '## Hot path & caching'
require_section docs/ARCHITECTURE.md '## Subgroup lattice parallelism'
require_section docs/ARCHITECTURE.md '## Observability invariant'
require_section docs/ARCHITECTURE.md '### Serving metrics'
require_section README.md '### Subgroup lattice parallelism'
require_section docs/ARCHITECTURE.md '## Serving tier: cache + admission control'
require_section docs/ARCHITECTURE.md '## Unified counting kernel'
require_section README.md '### Report cache and admission control'
require_section README.md '### Unified counting kernel'
require_section docs/API.md '## kgd wire protocol'
require_section docs/API.md '## Timeouts, cancellation, shutdown'
require_section docs/API.md '## Metrics'
require_section docs/API.md '### pprof and slow-request capture'
require_section docs/API.md '## Report cache'
require_section docs/API.md '## Admission control'
require_section docs/OPERATIONS.md '## Capacity tuning'
require_section docs/OPERATIONS.md '## Failure modes and the metrics that diagnose them'
require_section docs/OPERATIONS.md '### A restart is the invalidation'
require_section docs/ARCHITECTURE.md '## Columnar data engine'
require_section README.md '### Paper-scale quickstart'
require_section docs/ARCHITECTURE.md '## Distributed scoring'

# --- 5. cmd/ and internal/ paths cited in the docs must exist ---------------
pathfail=$(
    grep -ho '`\(cmd\|internal\)/[A-Za-z0-9_]*' README.md DESIGN.md docs/*.md |
        tr -d '\`' | sort -u |
        while IFS= read -r dir; do
            [ -d "$dir" ] || echo "$dir"
        done
)
if [ -n "$pathfail" ]; then
    echo "check_docs: paths cited in the docs no longer exist:" >&2
    echo "$pathfail" >&2
    fail=1
fi

# --- 6. flags cited in the docs must be defined -----------------------------
# A flag is defined by a flag-package call whose first string literal names
# it: fs.Int("queue", ...), fs.StringVar(&x, "csv", ...).
defined_flags=$(
    grep -rhoE '\b(fs|flag)\.(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var|BoolVar|DurationVar|Float64Var|IntVar|Int64Var|StringVar|UintVar|Uint64Var)\([^"]*"[A-Za-z0-9_-]+"' \
        cmd internal/rpc/daemon.go |
        sed 's/.*"\([^"]*\)"$/\1/' | sort -u
)
go_tool_flags='bench benchmem count cpu fuzz fuzztime race run short v'
flagfail=$(
    grep -ho '`[^`]*`' README.md DESIGN.md EXPERIMENTS.md docs/*.md |
        grep -o '^`-[a-z][a-z0-9-]*' | sed 's/^`-//' | sort -u |
        while IFS= read -r name; do
            case " $go_tool_flags " in *" $name "*) continue ;; esac
            echo "$defined_flags" | grep -qxF "$name" || echo "-$name"
        done
)
if [ -n "$flagfail" ]; then
    echo "check_docs: flags cited in the docs are not defined in cmd/ or internal/rpc/daemon.go:" >&2
    echo "$flagfail" >&2
    fail=1
fi

# --- 7. routes cited in the docs must be served -----------------------------
routefail=$(
    grep -ho '`\(GET\|POST\) /[^` ]*`' README.md DESIGN.md docs/*.md |
        sed 's/^`[A-Z]* //; s/`$//' | sort -u |
        while IFS= read -r path; do
            grep -rqF --include='*.go' --exclude='*_test.go' "$path\"" internal cmd || echo "$path"
        done
)
if [ -n "$routefail" ]; then
    echo "check_docs: routes cited in the docs are not served by internal/ or cmd/:" >&2
    echo "$routefail" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_docs: OK"
