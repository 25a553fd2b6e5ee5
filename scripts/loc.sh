#!/bin/sh
# The two size figures ROADMAP tracks: non-test Go lines in the root
# module, and how many packet transfers internal/elements writes by hand
# beside its SimpleActions (a SimpleAction class gets both burst
# transfers from core). Push and Pull read 0 and should stay 0: an
# element writes PushBatch/PullBatch only, and core.Base's Push and Pull,
# a burst of one, are the only scalar transfers.
set -eu

cd "$(dirname "$0")/.."

printf 'non-test Go lines (root module): '
find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l

for m in Push PushBatch Pull PullBatch SimpleAction; do
	printf '%s: ' "$m"
	cat $(ls internal/elements/*.go | grep -v _test.go) | grep -c "^func (e \*[A-Za-z]*) $m(" || true
done
