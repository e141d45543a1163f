package dram

import (
	"reflect"
	"testing"

	"ipcp/internal/memsys"
)

// TestRestoreResetsBankCounts: RestoreState empties the queues, so it
// must zero the per-bank queue counts NextEvent reads too. A controller
// restored over queued work and then given new requests must count
// exactly what it queues, report the same NextEvent as a fresh
// controller restored from the same state and fed the same requests,
// and go on to schedule identically.
func TestRestoreResetsBankCounts(t *testing.T) {
	cfg := DefaultConfig(2)
	src, _ := New(cfg)
	s := &sink{}
	for i := 0; i < 24; i++ {
		src.AddRead(read(blockAddr(src, i%2, i%8, uint64(i%3), i), s))
		if i%3 == 0 {
			src.AddWrite(&memsys.Request{Addr: blockAddr(src, i%2, (i+1)%8, 1, i), Type: memsys.Writeback})
		}
	}
	now := int64(0)
	for ; !src.Quiescent(); now++ {
		src.Cycle(now)
	}
	state, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	// Bank 2 of channel 0 is still precharging at the snapshot, so a
	// request to it cannot start before its busy horizon, while a bank
	// credited with a stale count would look ready at once.
	state.Channels[0].Banks[2].BusyUntil = now + 500

	dirty, _ := New(cfg)
	for i := 0; i < 6; i++ {
		dirty.AddRead(read(blockAddr(dirty, 0, i%2, 7, i), s))
		dirty.AddWrite(&memsys.Request{Addr: blockAddr(dirty, 0, 1, 7, i), Type: memsys.Writeback})
	}
	fresh, _ := New(cfg)
	for _, c := range []*Controller{dirty, fresh} {
		if err := c.RestoreState(state, now); err != nil {
			t.Fatal(err)
		}
	}

	sinks := []*sink{{}, {}}
	for k, c := range []*Controller{dirty, fresh} {
		c.AddRead(read(blockAddr(c, 0, 2, 4, 0), sinks[k]))
		c.AddRead(read(blockAddr(c, 0, 2, 4, 1), sinks[k]))
		c.AddWrite(&memsys.Request{Addr: blockAddr(c, 0, 5, 4, 0), Type: memsys.Writeback})
	}
	for i := range dirty.chans {
		cn := &dirty.chans[i]
		reads, writes := make([]int, cfg.BanksPerChannel), make([]int, cfg.BanksPerChannel)
		for _, p := range cn.readQ {
			reads[p.bank]++
		}
		for _, p := range cn.writeQ {
			writes[p.bank]++
		}
		if !reflect.DeepEqual(cn.readsAt, reads) || !reflect.DeepEqual(cn.writesAt, writes) {
			t.Fatalf("channel %d counts reads %v writes %v, queues hold reads %v writes %v",
				i, cn.readsAt, cn.writesAt, reads, writes)
		}
	}
	if got, want := dirty.NextEvent(now), fresh.NextEvent(now); got != want {
		t.Fatalf("NextEvent after restore over queued work = %d, fresh restore = %d", got, want)
	}
	if got := fresh.NextEvent(now); got < now+500 {
		t.Fatalf("NextEvent = %d; channel 0's only queued bank is busy until %d", got, now+500)
	}

	for end := now + 2000; now < end; now++ {
		dirty.Cycle(now)
		fresh.Cycle(now)
	}
	if !reflect.DeepEqual(sinks[0].done, sinks[1].done) || dirty.Stats != fresh.Stats ||
		!reflect.DeepEqual(viewOf(dirty), viewOf(fresh)) {
		t.Fatalf("restored controllers diverge: completions %v vs %v, stats %+v vs %+v",
			sinks[0].done, sinks[1].done, dirty.Stats, fresh.Stats)
	}
}
