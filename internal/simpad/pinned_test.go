package simpad

import (
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/frag"
)

// TestSmallRunPinned pins one small single-user run to the digit: two
// 1STORE queries on FMonthGroup at d = 40, p = 8, t = 5, seed 1. Every
// Result field and the calendar's event count must stay exactly these
// values across any change to the des kernel or the simulator that is meant
// to keep behaviour.
func TestSmallRunPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::group")
	cfg := DefaultConfig()
	cfg.Disks = 40
	cfg.Nodes = 8
	cfg.TasksPerNode = 5
	placement := alloc.Placement{Disks: cfg.Disks, Scheme: alloc.RoundRobin, Staggered: true}
	sys, err := NewSystem(cfg, icfg, placement, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs := sys.Run([]*Plan{NewPlan(spec, icfg, storeQuery(s), cfg), NewPlan(spec, icfg, storeQuery(s), cfg)})
	want := []Result{
		{ResponseTime: 293.65625065372564, Subqueries: 11520, DiskOps: 921600, DiskPages: 6992640,
			MeanDiskUtil: 0.9053637352874034, BufferHitRate: 0, Events: 1935362},
		{ResponseTime: 293.43537319828926, Subqueries: 11520, DiskOps: 921600, DiskPages: 6992640,
			MeanDiskUtil: 0.9057719379985036, BufferHitRate: 0, Events: 3870724},
	}
	if !reflect.DeepEqual(rs, want) {
		t.Errorf("results:\n got %#v\nwant %#v", rs, want)
	}
	if got := sys.sim.EventsRun(); got != 3870724 {
		t.Errorf("EventsRun = %d, want 3870724", got)
	}
	if got := sys.sim.Now(); got != 587.0916238520149 {
		t.Errorf("Now = %v, want 587.0916238520149", got)
	}
}
