#!/bin/sh
# Full verification: build, vet, tests, the race-detector tier, and the
# bench module's own tests; then the size figures ROADMAP tracks.
#
# The race tier is one run of everything under -race. It is there to
# catch: a control operation (hot-swap, tenant splice, write handler)
# landing anywhere but a SyncDo quiescent point, which shows up as a
# race between the caller's goroutine and the run loop on transplanted
# or restructured state; read handlers sampling a running router's live
# counters (Queue occupancy, drops, high water) with plain loads; the
# UDP pump feeding the run loop from another goroutine; and packet
# refcounts and the buffer pool used from more than one goroutine.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test ./...
go test -race ./...
# bench/ is its own module, so ./... above does not reach it: its tests
# hold the harness to zero allocations and BENCHMARK.json to the metric
# names the harness emits.
(cd bench && go vet ./... && go test ./...)
sh scripts/loc.sh
