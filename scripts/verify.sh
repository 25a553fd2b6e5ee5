#!/bin/sh
# Full verification: build, vet, tests, the race-detector tier, and the
# bench module's own tests.
#
# The race tier is one run of everything under -race. It is there to
# catch: state shared across workers (Queue rings, ARP tables, the
# sharded packet pool, refcounts) touched without its guard; a hot-swap,
# tenant splice or write handler landing anywhere but a SyncDo quiescent
# point (a missed round boundary or rendezvous shows up as a race on
# transplanted state); flow-cache shards and guard generations read on
# the fast path while handlers bump them; and the UDP pump feeding the
# task loop from another goroutine.
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
