package elements

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
)

// Handler exports for the element library. Names follow Click's
// conventions: "count", "length", "drops", "reset_counts", etc.

func intHandler(name string, get func() int64) core.Handler {
	return core.Handler{Name: name, Read: func() string {
		return strconv.FormatInt(get(), 10)
	}}
}

// Handlers exports count/byte_count/reset_counts.
func (e *Counter) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("count", func() int64 { return e.Packets }),
		intHandler("byte_count", func() int64 { return e.Bytes }),
		{Name: "reset_counts", Write: func(string) error {
			e.Packets, e.Bytes = 0, 0
			return nil
		}},
	}
}

// Handlers exports length/capacity/drops/highwater/reset.
func (e *Queue) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("length", func() int64 { return int64(e.Len()) }),
		{Name: "capacity",
			Read: func() string { return strconv.Itoa(e.Capacity()) },
			Write: func(v string) error {
				n, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("Queue: bad capacity %q", v)
				}
				if err := e.SetCapacity(n); err != nil {
					return err
				}
				e.BumpGuard(core.GuardConfig)
				return nil
			}},
		intHandler("drops", func() int64 { return atomic.LoadInt64(&e.Drops) }),
		intHandler("highwater_length", func() int64 { return atomic.LoadInt64(&e.HighWater) }),
		{Name: "reset_counts", Write: func(string) error {
			atomic.StoreInt64(&e.Drops, 0)
			atomic.StoreInt64(&e.Enqueued, 0)
			atomic.StoreInt64(&e.HighWater, int64(e.Len()))
			return nil
		}},
	}
}

// Handlers exports count.
func (e *Discard) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("count", func() int64 { return e.Count }),
		{Name: "reset_counts", Write: func(string) error { e.Count = 0; return nil }},
	}
}

// Handlers exports the emission count and a writable limit.
func (e *InfiniteSource) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("count", func() int64 { return e.Emitted }),
		{Name: "limit",
			Read: func() string { return strconv.FormatInt(e.limit, 10) },
			Write: func(v string) error {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return fmt.Errorf("InfiniteSource: bad limit %q", v)
				}
				e.limit = n
				return nil
			}},
	}
}

// Handlers exports paint-match statistics.
func (e *CheckPaint) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("matched", func() int64 { return e.Matched }),
		{Name: "color", Read: func() string { return strconv.Itoa(int(e.color)) }},
	}
}

// Handlers exports validation statistics.
func (e *CheckIPHeader) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("good", func() int64 { return e.Good }),
		intHandler("drops", func() int64 { return e.Bad }),
	}
}

// Handlers exports TTL expiry statistics.
func (e *DecIPTTL) Handlers() []core.Handler {
	return []core.Handler{intHandler("expired", func() int64 { return e.Expired })}
}

// Handlers exports routing statistics plus runtime route mutation.
// "add" and "remove" bump the route guard generation, so flow fast
// paths re-validate every cached entry against the updated table.
func (e *LookupIPRoute) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("no_route", func() int64 { return e.NoRoute }),
		intHandler("lookups", func() int64 { return e.Lookups }),
		{Name: "table", Read: func() string {
			out := ""
			for _, r := range e.routes {
				out += fmt.Sprintf("%08x/%d -> %s port %d\n", r.dst, r.maskLen, r.gw, r.port)
			}
			return out
		}},
		{Name: "add", Write: e.AddRoute},
		{Name: "remove", Write: e.RemoveRoute},
	}
}

// Handlers exports ARP statistics plus runtime table insertion ("insert
// IP ETH"), which bumps the ARP guard generation like a learned entry.
func (e *ARPQuerier) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("queries", func() int64 { return e.Queries }),
		intHandler("responses", func() int64 { return e.Responses }),
		intHandler("drops", func() int64 { return e.Drops }),
		intHandler("table_size", func() int64 {
			return int64(len(e.tbl))
		}),
		{Name: "insert", Write: func(v string) error {
			ip, eth, err := parseIPEth("ARPQuerier: insert", strings.Fields(v))
			if err == nil {
				e.InsertEntry(ip, eth)
			}
			return err
		}},
	}
}

// Handlers exports RED drop statistics and runtime-writable dropping
// parameters, mirroring Queue's writable capacity.
func (e *RED) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("drops", func() int64 { return atomic.LoadInt64(&e.Drops) }),
		{Name: "min_thresh",
			Read: func() string { return strconv.Itoa(e.minThresh) },
			Write: func(v string) error {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 || n >= e.maxThresh {
					return fmt.Errorf("RED: bad min threshold %q", v)
				}
				e.minThresh = n
				e.BumpGuard(core.GuardConfig)
				return nil
			}},
		{Name: "max_thresh",
			Read: func() string { return strconv.Itoa(e.maxThresh) },
			Write: func(v string) error {
				n, err := strconv.Atoi(v)
				if err != nil || n <= e.minThresh {
					return fmt.Errorf("RED: bad max threshold %q", v)
				}
				e.maxThresh = n
				e.BumpGuard(core.GuardConfig)
				return nil
			}},
		{Name: "max_p",
			Read: func() string { return strconv.Itoa(int(e.maxP*1000 + 0.5)) },
			Write: func(v string) error {
				n, err := strconv.Atoi(v)
				if err != nil || n <= 0 || n > 1000 {
					return fmt.Errorf("RED: bad max-p %q", v)
				}
				e.maxP = float64(n) / 1000
				e.BumpGuard(core.GuardConfig)
				return nil
			}},
	}
}

// Handlers exports device statistics.
func (e *PollDevice) Handlers() []core.Handler {
	return []core.Handler{intHandler("count", func() int64 { return e.Recv })}
}

// Handlers exports device statistics.
func (e *ToDevice) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("count", func() int64 { return e.Sent }),
		intHandler("rejected", func() int64 { return e.Rejected }),
	}
}

// Handlers exports classification statistics.
func (e *classifierBase) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("matched", func() int64 { return e.Matched }),
		intHandler("dropped", func() int64 { return e.Dropped }),
		{Name: "program", Read: func() string { return e.prog.String() }},
	}
}
