#!/bin/sh
# Full verification: build, vet, tests, the race-detector tier, the size
# figures ROADMAP tracks, and the bench module's own tests.
#
# The race tier is one run of everything under -race. It is there to
# catch: a control operation (hot-swap, tenant splice, write handler)
# landing anywhere but a SyncDo quiescent point, which shows up as a
# race between the caller's goroutine and the run loop on transplanted
# or restructured state; read handlers sampling a running router's live
# counters (Queue occupancy, drops, high water) with plain loads; packet
# refcounts and the recycling pool used from more than one goroutine;
# and a packet touched after `Kill` (race builds retire killed headers,
# and every packet method panics on one).
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The UDP receive path is chosen by build tag (internal/io/udp_linux.go,
# udp_other.go), so vet the portable one as well.
GOOS=darwin go vet ./...
GOOS=windows go vet ./...
test -z "$(gofmt -l .)"
go test ./...
go test -race ./...
# The model reproductions (Fig 8-13, the E series) must not move:
# results_all.txt is their committed output, byte for byte.
go run ./cmd/click-bench -experiment all | diff results_all.txt -
sh scripts/loc.sh
# bench/ is its own module, so ./... above does not reach it: its tests
# hold the harness to zero allocations and BENCHMARK.json to the metric
# names the harness emits. Last, so that a failure there hides nothing
# above.
(cd bench && go vet ./... && go test ./...)
